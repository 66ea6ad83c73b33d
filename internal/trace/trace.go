// Package trace defines the calciomd coordination trace: a compact,
// versioned, append-only event log of everything arbitration did, shard by
// shard — requests that mutated coordination state, explicit re-arbitrations,
// and the authorization flips they produced — precise enough that
// internal/replay can re-drive the recorded run through core.Arbiter and
// reproduce the grant sequence event for event, or re-arbitrate the same
// arrival pattern under a different policy.
//
// # File format (version 3)
//
// A trace file is:
//
//	magic   8 bytes  "CALTRACE"
//	version u16      format version (currently 3)
//	header  u16 len + that many bytes of JSON (Header)
//	records ...      until the trailer
//	trailer 0xFF, f64 time, u64 recorded, u64 dropped
//
// Interleaved with the event records, version-3 writers may emit sync
// records (type 0xFE, u64 recorded-so-far, u64 dropped-so-far) followed by
// a buffer flush. They are stream bookkeeping, not events: readers consume
// them transparently and they are not counted in the trailer's record
// count. Their purpose is crash consistency — a recorder killed without
// Close leaves a file whose last sync point bounds what was durably
// written, so a lenient reader (ReadLenient) can recover every complete
// record and report the drop count as of the last sync instead of refusing
// the whole file.
//
// Every record is little-endian and self-delimiting:
//
//	type    u8       one of the Ev* constants
//	time    f64      coordination clock, seconds (monotone per coordination
//	                 domain: per storage target daemon-side, per client for
//	                 client captures)
//	sid     u32      session identity (assigned at register; 0 = none)
//	target  u16 len + bytes   storage target ("" = the default target);
//	                 version-2 records only — a version-1 record has no
//	                 target field and reads back as target ""
//	extras  ...      type-specific, see the table below
//
// Per-type extras:
//
//	EvRegister    u16 name len + name bytes, u32 cores
//	EvPrepare     u16 pair count, then per pair u16 len + key, u16 len + val
//	                (keys sorted, so encoding is deterministic)
//	EvInform      f64 bytes done (0 = none reported)
//	EvProgress    f64 bytes done
//	EvRelease     f64 bytes done
//	EvComplete, EvCheck, EvWait, EvEnd, EvUnregister,
//	EvRecheck, EvGrant, EvRevoke   — no extras
//
// Versioning rules: the magic and version fields never move. A reader
// rejects versions it does not know. Additive changes (new event types, new
// header fields) bump the version; readers for version N+1 accept version N.
// The trailer is mandatory — a file that ends without one was truncated
// (the writer died before Close) and Read reports ErrTruncated.
//
// Version history: version 1 had no per-record target field (every event
// belongs to the single coordination domain); version 2 inserts the target
// between sid and the extras on every record, carrying the storage target
// whose per-target arbiter handled the event; version 3 adds the 0xFE sync
// record. Version-1 files read back with every Target empty, which replays
// as one shard — the single-target behavior they recorded.
//
// # Writer discipline
//
// Writer.Record is called under a daemon shard's lock, so it
// must never block and never allocate: events are passed by value through a
// fixed-capacity channel to a drain goroutine that owns all encoding and
// file I/O. When the channel is full the event is dropped and counted
// instead of stalling arbitration; the drop count is written into the
// trailer and surfaced by the reader, and replay refuses lossy traces (a
// gap would make the reproduction silently diverge).
package trace

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Version is the trace format version this package writes.
const Version = 3

var magic = [8]byte{'C', 'A', 'L', 'T', 'R', 'A', 'C', 'E'}

// Type identifies one kind of trace event.
type Type uint8

// Event types. The request events mirror the wire protocol verbs that
// mutate coordination state (error responses are not recorded — they have
// no state effect); EvUnregister is a session leaving (disconnect or
// eviction); EvRecheck is an arbitration not implied by a request event (a
// delay-policy recheck timer, or the re-arbitration after a mid-phase
// session vanished); EvGrant/EvRevoke are outcome events — the
// authorization flips one arbitration produced, in delivery order.
const (
	EvRegister Type = iota + 1
	EvPrepare
	EvComplete
	EvInform
	EvProgress
	EvCheck
	EvWait
	EvRelease
	EvEnd
	EvUnregister
	EvRecheck
	EvGrant
	EvRevoke

	// evSync is a version-3 stream-bookkeeping record: the writer's
	// recorded/dropped counters at a durability point, followed by a flush.
	// Not an event — readers consume it transparently.
	evSync    Type = 0xFE
	evTrailer Type = 0xFF
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case EvRegister:
		return "register"
	case EvPrepare:
		return "prepare"
	case EvComplete:
		return "complete"
	case EvInform:
		return "inform"
	case EvProgress:
		return "progress"
	case EvCheck:
		return "check"
	case EvWait:
		return "wait"
	case EvRelease:
		return "release"
	case EvEnd:
		return "end"
	case EvUnregister:
		return "unregister"
	case EvRecheck:
		return "recheck"
	case EvGrant:
		return "grant"
	case EvRevoke:
		return "revoke"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Event is one trace record. It is passed by value end to end — Record
// copies it into the writer's channel, Reader.Next fills the caller's —
// so the hot path never allocates for it. Only the fields relevant to the
// Type are meaningful; the rest are zero.
type Event struct {
	Type  Type
	Time  float64 // coordination clock, seconds
	SID   uint32  // session identity; 0 for EvRecheck
	Cores int32   // EvRegister
	Bytes float64 // EvInform, EvProgress, EvRelease: bytes done (0 = none)
	App   string  // EvRegister: application name
	// Target is the storage target whose coordination domain the event
	// belongs to; "" is the default target (and the only value version-1
	// traces can carry).
	Target string
	// Info is the EvPrepare payload. It is recorded by reference: the
	// recorder must not mutate the map after Record (the daemon's request
	// maps are write-once by construction).
	Info map[string]string
}

// Header is the one-time JSON blob after the magic: where the trace came
// from and enough of the recording configuration that replay can rebuild
// the recording policy and its performance model.
type Header struct {
	// Source is "calciomd" for daemon-side traces (authoritative: recorded
	// under the shard's lock, outcome events included) or
	// "client" for client-side captures (observational: per-client send
	// times, grant events are client-observed, exact verification is not
	// available).
	Source string `json:"source"`
	// Policy is the recording policy as configured ("fcfs", "interrupt",
	// "interfere", "delay").
	Policy string `json:"policy"`
	// DelayOverlap, FSMiBps and ProcNICMiBps mirror the daemon
	// configuration so replay can rebuild the delay policy and the
	// performance model.
	DelayOverlap float64 `json:"delay_overlap,omitempty"`
	FSMiBps      float64 `json:"fs_mibps,omitempty"`
	ProcNICMiBps float64 `json:"proc_nic_mibps,omitempty"`
}

// SourceDaemon and SourceClient are the recognized Header.Source values.
const (
	SourceDaemon = "calciomd"
	SourceClient = "client"
)

// DefaultBuffer is the writer's default in-flight event capacity.
const DefaultBuffer = 1 << 16

// Writer records events asynchronously: Record hands the event to a drain
// goroutine through a fixed-capacity channel and returns immediately.
// Record never blocks and never allocates; overflow is counted in Dropped
// instead. One goroutine may call Record at a time per ordering guarantee
// domain (the daemon records a target's events under that target's shard
// lock); concurrent Record from many goroutines is safe but interleaves
// events in channel order.
//
// Close must not race Record: stop recording first (the daemon closes the
// writer only after Server.Close has marked every shard stopped).
type Writer struct {
	ch   chan Event
	quit chan struct{}
	done chan struct{}
	once sync.Once

	recorded atomic.Uint64 // events accepted into the channel
	dropped  atomic.Uint64

	syncEvery    int           // emit a sync record every N encoded events (0 = never)
	syncInterval time.Duration // and at least this often while events flow (0 = never)

	bw  *bufio.Writer
	buf []byte // encoding scratch, owned by the drain goroutine
	err error  // first write error, surfaced by Close
}

// Options configures a Writer beyond the mandatory header.
type Options struct {
	// Buffer is the in-flight event capacity; <= 0 means DefaultBuffer.
	Buffer int
	// SyncEvery emits a sync record and flushes the output buffer every N
	// encoded events, bounding how much a crashed recorder loses. 0 means
	// never; the trailer at Close is then the only durability point.
	SyncEvery int
	// SyncInterval additionally emits a sync point when events have been
	// encoded but none flushed for this long — so a lightly loaded daemon's
	// trace is still near-complete after a kill -9. 0 disables the timer.
	SyncInterval time.Duration
}

// DefaultSyncEvery and DefaultSyncInterval are the sync cadence calciomd
// records with: a kill -9 loses at most 4096 events or one second of tail.
const (
	DefaultSyncEvery    = 4096
	DefaultSyncInterval = time.Second
)

// NewWriter writes the magic, version and header synchronously (so
// configuration errors surface immediately), then starts the drain
// goroutine. buffer <= 0 means DefaultBuffer. No sync records are emitted;
// use NewWriterOptions for crash-consistent recording.
func NewWriter(w io.Writer, hdr Header, buffer int) (*Writer, error) {
	return NewWriterOptions(w, hdr, Options{Buffer: buffer})
}

// NewWriterOptions is NewWriter with an explicit sync cadence.
func NewWriterOptions(w io.Writer, hdr Header, opts Options) (*Writer, error) {
	if hdr.Source == "" {
		hdr.Source = SourceDaemon
	}
	hj, err := json.Marshal(hdr)
	if err != nil {
		return nil, fmt.Errorf("trace: header: %w", err)
	}
	if len(hj) > math.MaxUint16 {
		return nil, fmt.Errorf("trace: header too large (%d bytes)", len(hj))
	}
	buffer := opts.Buffer
	if buffer <= 0 {
		buffer = DefaultBuffer
	}
	tw := &Writer{
		ch:           make(chan Event, buffer),
		quit:         make(chan struct{}),
		done:         make(chan struct{}),
		syncEvery:    opts.SyncEvery,
		syncInterval: opts.SyncInterval,
		bw:           bufio.NewWriter(w),
	}
	tw.bw.Write(magic[:])
	var u16 [2]byte
	binary.LittleEndian.PutUint16(u16[:], Version)
	tw.bw.Write(u16[:])
	binary.LittleEndian.PutUint16(u16[:], uint16(len(hj)))
	tw.bw.Write(u16[:])
	tw.bw.Write(hj)
	if err := tw.bw.Flush(); err != nil {
		return nil, fmt.Errorf("trace: write header: %w", err)
	}
	go tw.drain()
	return tw, nil
}

// Record enqueues one event. It never blocks: when the buffer is full the
// event is dropped and counted. Safe to call on the arbitration hot path —
// the event travels by value, so Record performs no allocation.
func (w *Writer) Record(ev Event) {
	select {
	case w.ch <- ev:
		w.recorded.Add(1)
	default:
		w.dropped.Add(1)
	}
}

// Recorded returns the number of events accepted so far.
func (w *Writer) Recorded() uint64 { return w.recorded.Load() }

// Dropped returns the number of events dropped on overflow so far.
func (w *Writer) Dropped() uint64 { return w.dropped.Load() }

// Close drains the remaining events, writes the trailer and flushes. It
// returns the first write error, if any. Close is idempotent; Record calls
// racing Close may be counted as dropped.
func (w *Writer) Close() error {
	w.once.Do(func() { close(w.quit) })
	<-w.done
	return w.err
}

func (w *Writer) drain() {
	defer close(w.done)
	var encoded uint64 // events actually encoded, the drain goroutine's view
	var sinceSync uint64
	var tick <-chan time.Time
	if w.syncInterval > 0 {
		t := time.NewTicker(w.syncInterval)
		defer t.Stop()
		tick = t.C
	}
	sync := func() {
		if sinceSync == 0 {
			return
		}
		b := w.buf[:0]
		b = append(b, byte(evSync))
		b = binary.LittleEndian.AppendUint64(b, encoded)
		b = binary.LittleEndian.AppendUint64(b, w.dropped.Load())
		w.buf = b
		w.write(b)
		if err := w.bw.Flush(); err != nil && w.err == nil {
			w.err = fmt.Errorf("trace: flush: %w", err)
		}
		sinceSync = 0
	}
	handle := func(ev Event) {
		w.encode(ev)
		encoded++
		sinceSync++
		if w.syncEvery > 0 && sinceSync >= uint64(w.syncEvery) {
			sync()
		}
	}
	for {
		select {
		case ev := <-w.ch:
			handle(ev)
		case <-tick:
			sync()
		case <-w.quit:
			for {
				select {
				case ev := <-w.ch:
					handle(ev)
					continue
				default:
				}
				break
			}
			w.buf = w.buf[:0]
			w.buf = append(w.buf, byte(evTrailer))
			w.buf = le64(w.buf, 0) // trailer time, reserved
			w.buf = binary.LittleEndian.AppendUint64(w.buf, w.recorded.Load())
			w.buf = binary.LittleEndian.AppendUint64(w.buf, w.dropped.Load())
			w.write(w.buf)
			if err := w.bw.Flush(); err != nil && w.err == nil {
				w.err = fmt.Errorf("trace: flush: %w", err)
			}
			return
		}
	}
}

func le64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

func (w *Writer) write(b []byte) {
	if w.err != nil {
		return
	}
	if _, err := w.bw.Write(b); err != nil {
		w.err = fmt.Errorf("trace: write: %w", err)
	}
}

// encode serializes one record into the scratch buffer and writes it. It
// runs on the drain goroutine only. A record the format cannot represent
// (a string beyond 64 KiB) fails the whole recording: w.err is set, no
// trailer is ever written, and the file reads back as truncated — a loud
// failure instead of silently altering data the replay depends on.
func (w *Writer) encode(ev Event) {
	if w.err != nil {
		return
	}
	b := w.buf[:0]
	b = append(b, byte(ev.Type))
	b = le64(b, ev.Time)
	b = binary.LittleEndian.AppendUint32(b, ev.SID)
	if b = w.appendString(b, ev.Target); b == nil {
		return
	}
	switch ev.Type {
	case EvRegister:
		if b = w.appendString(b, ev.App); b == nil {
			return
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(ev.Cores))
	case EvPrepare:
		if len(ev.Info) > math.MaxUint16 {
			w.err = fmt.Errorf("trace: unencodable record: info with %d pairs", len(ev.Info))
			return
		}
		keys := make([]string, 0, len(ev.Info))
		for k := range ev.Info {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b = binary.LittleEndian.AppendUint16(b, uint16(len(keys)))
		for _, k := range keys {
			if b = w.appendString(b, k); b == nil {
				return
			}
			if b = w.appendString(b, ev.Info[k]); b == nil {
				return
			}
		}
	case EvInform, EvProgress, EvRelease:
		b = le64(b, ev.Bytes)
	}
	w.buf = b
	w.write(b)
}

// appendString appends a u16-length-prefixed string, or sets w.err and
// returns nil when the string cannot be represented.
func (w *Writer) appendString(b []byte, s string) []byte {
	if len(s) > math.MaxUint16 {
		w.err = fmt.Errorf("trace: unencodable record: string of %d bytes exceeds the 64 KiB field limit", len(s))
		return nil
	}
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

// ErrTruncated reports a trace that ends without a trailer: the recorder
// died before Close, so the tail of the run is missing.
var ErrTruncated = errors.New("trace: truncated (no trailer)")

// Reader decodes a trace stream: NewReader parses the magic, version and
// header; Next returns records until the trailer, then io.EOF.
type Reader struct {
	r       *bufio.Reader
	hdr     Header
	version uint16

	done     bool
	recorded uint64
	dropped  uint64
	read     uint64

	// lenient tolerates a torn tail: when set, a stream that ends without a
	// trailer (or mid-record) makes Next return io.EOF after the last
	// complete record instead of an error, with Truncated reporting what
	// happened and Dropped falling back to the last sync point's counter.
	lenient    bool
	truncated  bool
	syncRead   uint64 // recorded counter from the last sync record seen
	syncDrop   uint64 // dropped counter from the last sync record seen
	sawSync    bool
	truncAfter uint64 // records successfully read before the tear

	// interned holds the strings a long trace repeats on every record — a
	// handful of target names, the Prepare keys — so Next allocates each once.
	interned map[string]string
	scratch  []byte   // the string being read
	fixed    [24]byte // the fixed-width fields being read: a local would escape through io.ReadFull
}

// NewReader parses the stream preamble.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var m [8]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("trace: not a calciom trace: %w", noEOF(err))
	}
	if m != magic {
		return nil, errors.New("trace: not a calciom trace (bad magic)")
	}
	var u16 [2]byte
	if _, err := io.ReadFull(br, u16[:]); err != nil {
		return nil, fmt.Errorf("trace: version: %w", noEOF(err))
	}
	version := binary.LittleEndian.Uint16(u16[:])
	if version == 0 || version > Version {
		return nil, fmt.Errorf("trace: unsupported format version %d (this build reads <= %d)", version, Version)
	}
	if _, err := io.ReadFull(br, u16[:]); err != nil {
		return nil, fmt.Errorf("trace: header length: %w", noEOF(err))
	}
	hj := make([]byte, binary.LittleEndian.Uint16(u16[:]))
	if _, err := io.ReadFull(br, hj); err != nil {
		return nil, fmt.Errorf("trace: header: %w", noEOF(err))
	}
	var hdr Header
	if err := json.Unmarshal(hj, &hdr); err != nil {
		return nil, fmt.Errorf("trace: header: %w", err)
	}
	return &Reader{r: br, hdr: hdr, version: version}, nil
}

// Header returns the parsed trace header.
func (r *Reader) Header() Header { return r.hdr }

// Version returns the file's format version.
func (r *Reader) Version() int { return int(r.version) }

// Recorded and Dropped return the trailer counters; valid only after Next
// has returned io.EOF. On a truncated stream read leniently, Recorded is
// the number of records actually recovered and Dropped falls back to the
// last sync point's counter (0 when the tear precedes the first sync).
func (r *Reader) Recorded() uint64 { return r.recorded }

// Dropped returns the number of events the recorder dropped on overflow.
func (r *Reader) Dropped() uint64 { return r.dropped }

// SetLenient makes a torn tail non-fatal: when the stream ends without a
// trailer, mid-record, or at garbage (all the shapes a kill -9 leaves),
// Next returns io.EOF after the last complete record instead of an error.
// Truncated then reports that the tail was lost. Must be set before the
// first Next.
func (r *Reader) SetLenient(v bool) { r.lenient = v }

// Truncated reports whether a lenient read hit a torn tail: the recorder
// died before writing the trailer, so events after the truncation point are
// missing. Valid after Next has returned io.EOF.
func (r *Reader) Truncated() bool { return r.truncated }

// TruncatedAfter returns how many records were recovered before the tear
// (equal to Recorded on truncated streams). Valid once Truncated is true.
func (r *Reader) TruncatedAfter() uint64 { return r.truncAfter }

// Next fills ev with the next record. It returns io.EOF after the trailer,
// ErrTruncated when the stream ends without one, and a descriptive error on
// corruption — except under SetLenient, where a torn tail ends the stream
// cleanly. The Info map and App string are freshly allocated per record;
// everything else reuses ev's storage.
func (r *Reader) Next(ev *Event) error {
	if r.done {
		return io.EOF
	}
	err := r.next(ev)
	if err == nil || err == io.EOF || !r.lenient {
		return err
	}
	// Lenient mode: the stream tore here. Everything already returned is
	// complete and usable; surface the tear through Truncated, not an error.
	r.truncated = true
	r.truncAfter = r.read
	r.recorded = r.read
	if r.sawSync {
		r.dropped = r.syncDrop
	}
	r.done = true
	return io.EOF
}

func (r *Reader) next(ev *Event) error {
	var t Type
	for {
		b, err := r.readFixed(1)
		if err != nil {
			if err == io.EOF {
				return ErrTruncated
			}
			return fmt.Errorf("trace: record: %w", err)
		}
		t = Type(b[0])
		if t != evSync {
			break
		}
		// Sync record: stream bookkeeping, consumed transparently.
		sy, err := r.readFixed(16)
		if err != nil {
			return fmt.Errorf("trace: sync: %w", noEOF(err))
		}
		r.syncRead = binary.LittleEndian.Uint64(sy[0:8])
		r.syncDrop = binary.LittleEndian.Uint64(sy[8:16])
		r.sawSync = true
		if r.syncRead != r.read {
			return fmt.Errorf("trace: corrupt: sync point records %d events, stream holds %d", r.syncRead, r.read)
		}
	}
	if t == evTrailer {
		tr, err := r.readFixed(24)
		if err != nil {
			return fmt.Errorf("trace: trailer: %w", noEOF(err))
		}
		r.recorded = binary.LittleEndian.Uint64(tr[8:16])
		r.dropped = binary.LittleEndian.Uint64(tr[16:24])
		if r.recorded != r.read {
			return fmt.Errorf("trace: corrupt: trailer records %d events, stream holds %d", r.recorded, r.read)
		}
		r.done = true
		return io.EOF
	}
	if t < EvRegister || t > EvRevoke {
		return fmt.Errorf("trace: corrupt: unknown record type %d", uint8(t))
	}
	ts, err := r.readFixed(12) // time + sid
	if err != nil {
		return fmt.Errorf("trace: record %s: %w", t, noEOF(err))
	}
	*ev = Event{
		Type: t,
		Time: math.Float64frombits(binary.LittleEndian.Uint64(ts[0:8])),
		SID:  binary.LittleEndian.Uint32(ts[8:12]),
	}
	if r.version >= 2 {
		target, err := r.readInterned()
		if err != nil {
			return fmt.Errorf("trace: %s target: %w", t, err)
		}
		ev.Target = target
	}
	switch t {
	case EvRegister:
		name, err := r.readString()
		if err != nil {
			return fmt.Errorf("trace: register name: %w", err)
		}
		cores, err := r.readFixed(4)
		if err != nil {
			return fmt.Errorf("trace: register cores: %w", noEOF(err))
		}
		ev.App = name
		ev.Cores = int32(binary.LittleEndian.Uint32(cores))
	case EvPrepare:
		cnt, err := r.readFixed(2)
		if err != nil {
			return fmt.Errorf("trace: prepare count: %w", noEOF(err))
		}
		n := int(binary.LittleEndian.Uint16(cnt))
		info := make(map[string]string, n)
		for i := 0; i < n; i++ {
			k, err := r.readInterned()
			if err != nil {
				return fmt.Errorf("trace: prepare key: %w", err)
			}
			v, err := r.readString()
			if err != nil {
				return fmt.Errorf("trace: prepare value: %w", err)
			}
			info[k] = v
		}
		ev.Info = info
	case EvInform, EvProgress, EvRelease:
		by, err := r.readFixed(8)
		if err != nil {
			return fmt.Errorf("trace: %s bytes: %w", t, noEOF(err))
		}
		ev.Bytes = math.Float64frombits(binary.LittleEndian.Uint64(by))
	}
	r.read++
	return nil
}

// readFixed reads the next n <= len(r.fixed) bytes; the result is valid
// until the next read of any kind.
func (r *Reader) readFixed(n int) ([]byte, error) {
	b := r.fixed[:n]
	_, err := io.ReadFull(r.r, b)
	return b, err
}

// readBytes reads a u16-length-prefixed string into r.scratch.
func (r *Reader) readBytes() ([]byte, error) {
	ln, err := r.readFixed(2)
	if err != nil {
		return nil, noEOF(err)
	}
	n := int(binary.LittleEndian.Uint16(ln))
	if cap(r.scratch) < n {
		r.scratch = make([]byte, n)
	}
	r.scratch = r.scratch[:n]
	if _, err := io.ReadFull(r.r, r.scratch); err != nil {
		return nil, noEOF(err)
	}
	return r.scratch, nil
}

func (r *Reader) readString() (string, error) {
	b, err := r.readBytes()
	return string(b), err
}

// readInterned is readString for the strings a trace repeats: each distinct
// one is allocated once.
func (r *Reader) readInterned() (string, error) {
	b, err := r.readBytes()
	if err != nil || len(b) == 0 {
		return "", err
	}
	if s, ok := r.interned[string(b)]; ok {
		return s, nil
	}
	if r.interned == nil {
		r.interned = make(map[string]string)
	}
	s := string(b)
	r.interned[s] = s
	return s, nil
}

// noEOF converts a mid-record io.EOF into io.ErrUnexpectedEOF so callers
// can distinguish clean ends of stream from torn records.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Trace is a fully loaded trace.
type Trace struct {
	Header  Header
	Events  []Event
	Dropped uint64 // events the recorder dropped on overflow
	// Truncated reports a lenient load of a trailer-less (crashed-recorder)
	// file: Events holds every complete record up to the tear; whatever the
	// recorder did afterwards is missing. Dropped is then the last sync
	// point's counter — a lower bound on the true drop count.
	Truncated bool
}

// Read loads a whole trace from a stream.
func Read(r io.Reader) (*Trace, error) { return read(r, false) }

// ReadLenient loads a whole trace, tolerating a torn tail: a stream a
// crashed recorder left behind loads with Truncated set instead of failing.
func ReadLenient(r io.Reader) (*Trace, error) { return read(r, true) }

func read(r io.Reader, lenient bool) (*Trace, error) {
	size := remaining(r) // before the Reader's buffer takes its first bite
	tr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	tr.SetLenient(lenient)
	// A record is at least 13 bytes, so a sixteenth of the bytes on hand is
	// a count the slice outgrows at most once — and never more than the
	// source really holds, whatever its contents claim.
	out := &Trace{Header: tr.Header(), Events: make([]Event, 0, size/16)}
	for {
		var ev Event
		if err := tr.Next(&ev); err != nil {
			if err == io.EOF {
				break
			}
			return nil, err
		}
		out.Events = append(out.Events, ev)
	}
	out.Dropped = tr.Dropped()
	out.Truncated = tr.Truncated()
	return out, nil
}

// remaining returns how many bytes r has yet to deliver when r can say —
// the bytes and strings readers by Len, a regular file by its size — and 0
// otherwise.
func remaining(r io.Reader) int64 {
	switch src := r.(type) {
	case interface{ Len() int }:
		return int64(src.Len())
	case interface{ Stat() (os.FileInfo, error) }:
		if fi, err := src.Stat(); err == nil && fi.Mode().IsRegular() {
			return fi.Size()
		}
	}
	return 0
}

// Load reads a trace file.
func Load(path string) (*Trace, error) {
	return load(path, Read)
}

// LoadLenient reads a trace file, tolerating a torn tail (see ReadLenient).
func LoadLenient(path string) (*Trace, error) {
	return load(path, ReadLenient)
}

func load(path string, read func(io.Reader) (*Trace, error)) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, err := read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

// Span returns the time range covered by the events (0,0 when empty).
func (t *Trace) Span() (first, last float64) {
	if len(t.Events) == 0 {
		return 0, 0
	}
	first = t.Events[0].Time
	last = first
	for _, ev := range t.Events {
		if ev.Time < first {
			first = ev.Time
		}
		if ev.Time > last {
			last = ev.Time
		}
	}
	return first, last
}
