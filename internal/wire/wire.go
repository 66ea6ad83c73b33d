// Package wire defines the calciomd network protocol: the CALCioM
// coordination API (Prepare/Complete/Inform/Check/Wait/Release, paper
// §III-C) carried as length-prefixed JSON frames over a byte stream.
//
// Framing: every message is a 4-byte big-endian payload length followed by
// that many bytes of JSON. Frames above MaxFrame are rejected on both read
// and write, so a corrupt length prefix cannot make a peer allocate
// unboundedly.
//
// Message flow: the client sends Request frames, each carrying a
// client-chosen nonzero Seq; the server answers every request with exactly
// one Response frame of type TypeResp echoing that Seq. Responses can be
// deferred and arrive out of order — TypeWait in particular is answered only
// once arbitration authorizes the application. The server additionally
// pushes unsolicited frames (Seq 0) of type TypeGrant or TypeRevoke whenever
// an application's authorization flips without a Wait pending, so a client
// polling Check sees revocations without a round trip.
//
// Request types and their fields:
//
//	register  App, Cores, Target?  introduce the application (first request);
//	                               Target sets the session's default target
//	prepare   Info, Target?        stack MPI_Info-style hints (bytes_total, ...)
//	complete  Target?              unstack the most recent prepare
//	inform    BytesDone?, Target?  open/continue an I/O phase, trigger arbitration
//	progress  BytesDone, Target?   report progress only; no state change
//	check     Target?              poll authorization; never blocks
//	wait      Target?              block until authorized (deferred response)
//	release   BytesDone?, Target?  end one access step
//	end       Target?              end the I/O phase entirely
//	stats     —                    LASSi-style live metrics snapshot
//
// Target names the storage target (PFS server group, burst buffer, ...)
// whose coordination domain the request addresses: arbitration is
// independent per target, so a grant on one target never convoys behind a
// holder on another. An empty Target means the session's default target
// (itself defaulting to ""), which preserves the original single-target
// protocol byte for byte — a client that never sets Target speaks exactly
// the pre-target wire format.
//
// Every TypeResp response carries the application's authorization on the
// request's target at the time it was sent (Target echoed), so a client can
// maintain its cached per-target Check state from the ordered response
// stream alone.
//
// The protocol is deliberately ignorant of transport concerns beyond
// framing; internal/server and internal/client own connection lifecycle.
package wire

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// MaxFrame is the maximum payload size either side will read or write.
const MaxFrame = 1 << 20

// Request types, client → server.
const (
	TypeRegister = "register"
	TypePrepare  = "prepare"
	TypeComplete = "complete"
	TypeInform   = "inform"
	TypeProgress = "progress"
	TypeCheck    = "check"
	TypeWait     = "wait"
	TypeRelease  = "release"
	TypeEnd      = "end"
	TypeStats    = "stats"
)

// Response types, server → client.
const (
	// TypeResp answers one Request, echoing its Seq.
	TypeResp = "resp"
	// TypeGrant is an unsolicited authorization grant (Seq 0).
	TypeGrant = "grant"
	// TypeRevoke is an unsolicited authorization revocation (Seq 0).
	TypeRevoke = "revoke"
)

// Error codes carried on Response.Code when Err is set. Codes partition
// failures into retryable conditions (the request may succeed against the
// same daemon later, or against its successor after a restart) and fatal
// protocol errors (retrying the identical request can never succeed).
// Responses from daemons predating codes carry Code "" — clients must treat
// an empty code as fatal, which matches the old fail-fast behavior.
const (
	// CodeDraining: the daemon is shutting down gracefully; re-issue the
	// request after reconnecting (to a restarted daemon). Retryable.
	CodeDraining = "draining"
	// CodeStaleIncarnation: a register named an incarnation not newer than
	// the one the daemon already holds for that app name — a second client
	// instance lost the resume race. Fatal for this client instance.
	CodeStaleIncarnation = "stale_incarnation"
	// CodeDuplicate: the app name is registered by a live session and the
	// register carried no incarnation (legacy client). Fatal.
	CodeDuplicate = "duplicate"
	// CodeTooManyTargets: the daemon's bound on storage targets (256) is
	// exhausted. Fatal.
	CodeTooManyTargets = "too_many_targets"
	// CodeProtocol: the request violated the coordination protocol state
	// machine (complete without prepare, release while idle, ...). Fatal.
	CodeProtocol = "protocol"
	// CodeBusy: admission control rejected a new registration because the
	// daemon is at its -max-sessions bound. Retryable — capacity frees as
	// sessions end or are evicted.
	CodeBusy = "busy"
	// CodeOverloaded: the daemon shed this request under load (a shard over
	// its queue high-water mark sheds advisory verbs; a connection over its
	// rate limit is throttled). Retryable after backing off.
	CodeOverloaded = "overloaded"
)

// Retryable reports whether an error code names a transient condition worth
// backing off and retrying, as opposed to a protocol violation or a lost
// resume race that no retry can fix.
func Retryable(code string) bool {
	return code == CodeDraining || code == CodeBusy || code == CodeOverloaded
}

// Request is a client → server message.
type Request struct {
	Seq   uint64            `json:"seq"`
	Type  string            `json:"type"`
	App   string            `json:"app,omitempty"`   // register
	Cores int               `json:"cores,omitempty"` // register
	Info  map[string]string `json:"info,omitempty"`  // prepare
	// BytesDone, when positive, reports phase progress (monotone max), as
	// the paper piggybacks progress on coordination messages. Honored on
	// inform and release.
	BytesDone float64 `json:"bytes_done,omitempty"`
	// Target names the storage target this request addresses; empty means
	// the session's default target. On register it sets that default.
	Target string `json:"target,omitempty"`
	// Incarnation, on register, is the client instance's monotonically
	// increasing connection epoch for this app name. Zero means a legacy
	// client: the name must be free. Nonzero means resume semantics: if the
	// name is held by a disconnected (grace-window) or superseded session,
	// a strictly newer incarnation reclaims the name and its accounting.
	Incarnation uint64 `json:"incarnation,omitempty"`
	// SelfGrants and DegradedS, on register, report coordination the client
	// performed for itself while the daemon was unreachable past its
	// fail-open deadline: the number of self-granted waits and the seconds
	// spent in degraded (uncoordinated) mode since the last report. The
	// daemon folds them into per-app degraded accounting in Stats.
	SelfGrants uint64  `json:"self_grants,omitempty"`
	DegradedS  float64 `json:"degraded_s,omitempty"`
}

// Response is a server → client message: either the answer to one request
// (TypeResp, Seq echoed) or an unsolicited push (TypeGrant/TypeRevoke,
// Seq 0).
type Response struct {
	Seq  uint64 `json:"seq,omitempty"`
	Type string `json:"type"`
	OK   bool   `json:"ok,omitempty"`
	Err  string `json:"err,omitempty"`
	// Code classifies Err (see the Code* constants); empty on success and
	// on errors from daemons predating typed codes (treat as fatal).
	Code       string `json:"code,omitempty"`
	Authorized bool   `json:"authorized,omitempty"`
	// Target names the storage target the Authorized bit (or the pushed
	// grant/revoke) refers to; empty is the default target.
	Target string `json:"target,omitempty"`
	Stats  *Stats `json:"stats,omitempty"`
}

// AppStats is one application's slice of the live metrics snapshot on one
// storage target. An application coordinating on several targets appears
// once per target; a session appears from its first coordination verb on a
// target (registration alone announces no coordination domain, so a
// registered-but-idle session is counted in Stats.Sessions but has no app
// row yet).
type AppStats struct {
	Name string `json:"name"`
	// Target is the storage target these counters belong to ("" = default).
	Target     string  `json:"target,omitempty"`
	Cores      int     `json:"cores"`
	State      string  `json:"state"`
	Authorized bool    `json:"authorized,omitempty"`
	Phases     int     `json:"phases"`
	Grants     uint64  `json:"grants"`
	BytesTotal float64 `json:"bytes_total,omitempty"`
	BytesDone  float64 `json:"bytes_done,omitempty"`
	IOTimeS    float64 `json:"io_time_s"`
	WaitTimeS  float64 `json:"wait_time_s"`
	// WaitsImmediate counts Waits answered without deferral (the app was
	// already authorized — the only cost was the protocol round trip);
	// WaitsDeferred counts Waits parked until a later arbitration granted
	// access. Their sum is Grants, across a resume too: the session's whole
	// record moves to the new connection.
	WaitsImmediate uint64 `json:"waits_immediate,omitempty"`
	WaitsDeferred  uint64 `json:"waits_deferred,omitempty"`
	// ConvoyWaitS and ProtocolWaitS decompose WaitTimeS by the cause at the
	// moment the Wait was deferred: convoy time was spent queued behind
	// another authorized application (the fcfs start-up convoy, for
	// example); protocol time was deferred
	// with no other holder — pure arbitration/recheck latency (a delay
	// policy holding everyone back, for example). Phases, Grants, IOTimeS
	// and the wait figures come from the session's core.Ledger, which
	// offline replay (internal/replay) keeps as well.
	ConvoyWaitS   float64 `json:"convoy_wait_s,omitempty"`
	ProtocolWaitS float64 `json:"protocol_wait_s,omitempty"`
	// Interference is observed I/O time over model-estimated solo time for
	// the work declared so far — the live analogue of the paper's I factor.
	// Zero when the daemon has no performance model.
	Interference float64 `json:"interference,omitempty"`
}

// TargetStats is one storage target's slice of the machine-wide aggregates:
// the combining layer over the per-target arbiters. Counters follow the
// same cumulative discipline as the top-level Stats fields.
type TargetStats struct {
	Target         string  `json:"target"` // "" = the default target
	Apps           int     `json:"apps"`   // sessions attached to this target
	Arbitrations   uint64  `json:"arbitrations"`
	GrantsServed   uint64  `json:"grants_served"`
	WaitsImmediate uint64  `json:"waits_immediate,omitempty"`
	WaitsDeferred  uint64  `json:"waits_deferred,omitempty"`
	ConvoyWaitS    float64 `json:"convoy_wait_s,omitempty"`
	ProtocolWaitS  float64 `json:"protocol_wait_s,omitempty"`
	LastDecision   string  `json:"last_decision,omitempty"`
	// WaitHist summarizes this target's wait-to-grant latency distribution;
	// nil on daemons not collecting metrics (the field predates nothing — it
	// simply rides along only when an obs registry is configured).
	WaitHist *Hist `json:"wait_hist,omitempty"`
}

// Hist is a fixed-bucket histogram summary riding a stats snapshot: the
// upper bounds (seconds) and one count per bucket, the last being the +Inf
// overflow. It carries the same shape the daemon's /metrics endpoint
// exposes, so offline replay can report percentiles bucket-compatible with
// the live scrape.
type Hist struct {
	BoundsS []float64 `json:"bounds_s"`
	Counts  []uint64  `json:"counts"` // len(BoundsS)+1
	SumS    float64   `json:"sum_s"`
	Count   uint64    `json:"count"`
}

// Add folds another histogram with identical bounds into h (merging shard
// histograms into the machine-wide one).
func (h *Hist) Add(o *Hist) {
	if o == nil {
		return
	}
	for i := range o.Counts {
		if i < len(h.Counts) {
			h.Counts[i] += o.Counts[i]
		}
	}
	h.SumS += o.SumS
	h.Count += o.Count
}

// Quantile returns an upper bound on the q-quantile (0 < q <= 1): the bound
// of the bucket the ceil-rank observation landed in, +Inf for the overflow
// bucket, 0 on an empty histogram. Bucket resolution bounds the error, which
// is the usual histogram-quantile trade.
func (h *Hist) Quantile(q float64) float64 {
	if h == nil || h.Count == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	cum := uint64(0)
	for i, c := range h.Counts {
		cum += c
		if float64(cum) >= rank {
			if i < len(h.BoundsS) {
				return h.BoundsS[i]
			}
			return math.Inf(1)
		}
	}
	return math.Inf(1)
}

// Stats is the daemon's LASSi-style live snapshot: per-application I/O and
// wait accounting plus machine-wide aggregates, computed on demand under
// each shard's lock so it is always consistent. Apps are sorted by
// (name, target); Targets by target name. The top-level counters are the
// sums over all targets, so a single-target daemon reports exactly what it
// did before targets existed.
type Stats struct {
	Policy           string  `json:"policy"`
	NowS             float64 `json:"now_s"`
	Sessions         int     `json:"sessions"`
	Arbitrations     uint64  `json:"arbitrations"`
	GrantsServed     uint64  `json:"grants_served"`
	CPUSecondsWasted float64 `json:"cpu_seconds_wasted"`
	SumInterference  float64 `json:"sum_interference,omitempty"`
	// Machine-wide sums of the per-app wait decomposition (see AppStats),
	// cumulative like GrantsServed: departed sessions' counters remain
	// included, so the aggregates match what a replay of the full trace
	// reports (the Apps list itself covers only live sessions).
	WaitsImmediate uint64  `json:"waits_immediate,omitempty"`
	WaitsDeferred  uint64  `json:"waits_deferred,omitempty"`
	ConvoyWaitS    float64 `json:"convoy_wait_s,omitempty"`
	ProtocolWaitS  float64 `json:"protocol_wait_s,omitempty"`
	LastDecision   string  `json:"last_decision,omitempty"`
	// SelfGrants and DegradedS total the degraded (uncoordinated) windows
	// clients have reported on resume: waits each client granted itself
	// while the daemon was unreachable past its fail-open deadline, and the
	// seconds spent in that mode. Cumulative per app name (not per target —
	// a client cut off from the daemon is cut off from every target), and
	// preserved across resume like the rest of the accounting.
	SelfGrants uint64  `json:"self_grants,omitempty"`
	DegradedS  float64 `json:"degraded_s,omitempty"`
	// WaitHist is the machine-wide wait-to-grant latency histogram (the sum
	// of every target's); nil unless the daemon collects metrics.
	WaitHist *Hist      `json:"wait_hist,omitempty"`
	Apps     []AppStats `json:"apps,omitempty"`
	// Degraded lists per-app-name degraded windows, sorted by name; only
	// apps that reported any appear. Kept separate from Apps because those
	// rows are per (app, target) while fail-open is a per-client condition.
	Degraded []DegradedStats `json:"degraded,omitempty"`
	// Targets is the per-storage-target breakdown, one entry per target
	// that has seen coordination traffic, sorted by target name.
	Targets []TargetStats `json:"targets,omitempty"`
}

// DegradedStats is one application's cumulative fail-open accounting: how
// much coordination it performed for itself while the daemon was
// unreachable. Reported by the client on resume, so the daemon that was down
// learns about the outage from the survivors that come back.
type DegradedStats struct {
	Name       string  `json:"name"`
	SelfGrants uint64  `json:"self_grants"`
	DegradedS  float64 `json:"degraded_s"`
	// Resumes counts successful resume registrations (incarnation > 1 on a
	// name the daemon knew), degraded or not — a measure of connection churn.
	Resumes uint64 `json:"resumes,omitempty"`
}

// Write writes v as one frame: a *Request or *Response through the v1
// encoder (json.go), anything else marshalled by encoding/json.
func Write(w io.Writer, v any) error {
	buf, err := appendFrame(make([]byte, 0, 128), v)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// Reader decodes frames from a stream, reusing one payload buffer across
// reads and interning the names it decodes.
type Reader struct {
	r       io.Reader
	hdr     [4]byte // a field, not a local: a local would escape into r.Read
	buf     []byte
	interns Interner
}

// NewReader wraps a stream. The caller should pass something buffered.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// Read decodes the next frame into v, exactly as json.Unmarshal would: a
// *Request or *Response through the v1 scanner (json.go), anything else and
// every payload outside the scanner's subset by encoding/json. io.EOF is
// returned untouched on a clean end of stream (EOF at a frame boundary); a
// partial frame becomes io.ErrUnexpectedEOF.
func (d *Reader) Read(v any) error {
	if _, err := io.ReadFull(d.r, d.hdr[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(d.hdr[:])
	if n == 0 || n > MaxFrame {
		return fmt.Errorf("wire: bad frame length %d", n)
	}
	if cap(d.buf) < int(n) {
		d.buf = make([]byte, n)
	}
	d.buf = d.buf[:n]
	if _, err := io.ReadFull(d.r, d.buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	switch v := v.(type) {
	case *Request:
		if decodeRequest(d.buf, v, &d.interns) {
			return nil
		}
	case *Response:
		if decodeResponse(d.buf, v, &d.interns) {
			return nil
		}
	}
	if err := json.Unmarshal(d.buf, v); err != nil {
		return fmt.Errorf("wire: unmarshal: %w", err)
	}
	return nil
}

// Read decodes one frame from r into v (a convenience for one-shot use;
// Reader amortizes the buffer).
func Read(r io.Reader, v any) error { return NewReader(r).Read(v) }
