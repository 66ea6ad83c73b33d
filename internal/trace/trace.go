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
//	                 domain: per storage target)
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
//	                (keys sorted, so encoding is deterministic; a reader
//	                decodes the pairs straight into a core.ParsedInfo)
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
// # Reading
//
// A Reader parses a Prepare's pairs as it decodes them, into a
// core.ParsedInfo (Event.Parsed): it builds no map and keeps no value
// strings, and a consumer that wants the info as policies see it asks
// Event.Prepared, which parses Info for events built in memory instead.
//
// # Writer discipline
//
// Writer.Record is called under a daemon shard's lock, so it must never
// block and never allocate: under a leaf mutex it copies the event into a
// fixed-size chunk, taken from a free list, and wakes the drain goroutine
// only when a chunk fills. The drain goroutine owns all encoding and file
// I/O: it takes the filled chunks (and, on its sync tick and at Close, the
// partly filled one), encodes them outside the lock and returns the chunks
// to the free list. When Buffer events already wait for the drain, the
// event is dropped and counted instead of stalling arbitration; the drop
// count is written into the trailer and surfaced by the reader, and replay
// refuses lossy traces (a gap would make the reproduction silently
// diverge).
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
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
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
// copies it into the writer's current chunk, Reader.Next fills the caller's —
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
	// Info is the EvPrepare payload as a writer takes it; a read Prepare
	// carries Parsed instead. It is recorded by reference: the recorder must
	// not mutate the map after Record (the daemon's request maps are
	// write-once by construction).
	Info map[string]string
	// Parsed is a read EvPrepare's payload, decoded straight from the
	// record's pairs: no map is built for it. A Writer given an event with
	// Parsed and no Info encodes Parsed.Info(), so a read trace records back
	// to the same parsed values. Events from one read may share the memory
	// Parsed points into; treat it as read-only.
	Parsed *core.ParsedInfo
}

// Prepared returns an EvPrepare's info as the policies see it: *Parsed when
// the event was read, and core.ParseInfo of Info when it was built in memory.
func (ev *Event) Prepared() core.ParsedInfo {
	if ev.Parsed != nil {
		return *ev.Parsed
	}
	return core.ParseInfo(ev.Info)
}

// Header is the one-time JSON blob after the magic: where the trace came
// from and the recording daemon's -policy, -fs-mibps and -proc-nic-mibps,
// from which BuildPolicy and Model rebuild its policy and performance
// model. calciomd builds its own from the same fields, so a recording
// replays under the very policy that served it.
type Header struct {
	// Source names the recorder: "calciomd" (SourceDaemon), which records
	// every shard's events under the shard's lock, outcome events
	// included. Replay reads no other source.
	Source string `json:"source"`
	// Policy is the recording policy's complete core.ParsePolicy spec,
	// such as "fcfs", "delay(0.25)" or "dynamic(cpu-seconds)". Older
	// recordings may hold one of calciomd's aliases instead (see
	// BuildPolicy).
	Policy string `json:"policy"`
	// FSMiBps and ProcNICMiBps are the file system's and one process's
	// bandwidth in MiB/s, the performance model's two figures.
	FSMiBps      float64 `json:"fs_mibps,omitempty"`
	ProcNICMiBps float64 `json:"proc_nic_mibps,omitempty"`
}

// Model is the performance model the header's bandwidths describe, nil
// without a file-system bandwidth.
func (h Header) Model() *core.PerfModel {
	if h.FSMiBps <= 0 {
		return nil
	}
	const miB = 1 << 20
	return &core.PerfModel{FSBandwidth: h.FSMiBps * miB, ProcNIC: h.ProcNICMiBps * miB}
}

// BuildPolicy builds the header's policy under its Model through
// core.ParsePolicy, calciomd's aliases applied first: "" is fcfs, bare
// "delay" delay(0) and bare "dynamic" dynamic(cpu-seconds). Errors name the
// calciomd flag at fault.
func (h Header) BuildPolicy() (core.Policy, error) {
	if h.FSMiBps < 0 || h.ProcNICMiBps < 0 {
		return nil, errors.New("-fs-mibps and -proc-nic-mibps must be >= 0")
	}
	spec := h.Policy
	switch spec {
	case "":
		spec = "fcfs"
	case "delay":
		spec = "delay(0)"
	case "dynamic":
		spec = "dynamic(cpu-seconds)"
	}
	p, err := core.ParsePolicy(spec, h.Model())
	if errors.Is(err, core.ErrNeedsModel) {
		return nil, fmt.Errorf("-policy %q needs -fs-mibps for its performance model", h.Policy)
	}
	if err != nil {
		return nil, fmt.Errorf("-policy: %w", err)
	}
	return p, nil
}

// SourceDaemon is the Header.Source of a calciomd recording, the only
// coordination trace there is.
const SourceDaemon = "calciomd"

// DefaultBuffer is the writer's default in-flight event capacity.
const DefaultBuffer = 1 << 16

// chunkEvents caps the events one chunk holds (80 bytes each, about 20 KiB):
// a writer's chunks hold min(Buffer, chunkEvents) events.
const chunkEvents = 256

// Writer records events asynchronously: Record copies the event into a
// fixed-size chunk under a leaf mutex and returns immediately; a drain
// goroutine takes the chunks, encodes their events outside the lock and
// hands the emptied chunks back for Record to reuse. Record never waits
// for the drain and never allocates once the chunks it needs exist; more
// than Buffer events accepted and not yet taken by the drain are dropped
// and counted in Dropped instead. One goroutine may call Record at a time
// per ordering guarantee domain (the daemon records a target's events
// under that target's shard lock); concurrent Record from many goroutines
// is safe and interleaves events in the order they take the writer's
// mutex.
//
// A Record racing Close is dropped and counted (the daemon closes the
// writer only after Server.Close has marked every shard stopped, so it
// drops none).
type Writer struct {
	// mu guards the chunks and counters below; it is a leaf lock, held
	// only to copy one event or to move chunks between the lists.
	mu       sync.Mutex
	cur      []Event   // the chunk Record fills; nil until a Record needs one
	full     [][]Event // filled chunks, oldest first, not yet taken by the drain
	free     [][]Event // emptied chunks for Record to reuse
	pending  int       // events in cur and full: accepted, not yet taken
	closed   bool      // set by Close: every later Record is dropped
	recorded uint64    // events accepted
	dropped  uint64

	buffer int // cap on pending (Options.Buffer)
	chunk  int // events per chunk

	wake chan struct{} // one slot: a filled chunk was queued
	quit chan struct{}
	done chan struct{}
	once sync.Once

	syncEvery    int           // emit a sync record every N encoded events (0 = never)
	syncInterval time.Duration // and at least this often while events flow (0 = never)

	bw  *bufio.Writer
	buf []byte // encoding scratch, owned by the drain goroutine
	err error  // first write error, surfaced by Close
}

// Options configures a Writer beyond the mandatory header.
type Options struct {
	// Buffer caps the events accepted and not yet taken by the drain
	// goroutine; <= 0 means DefaultBuffer.
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
		buffer:       buffer,
		chunk:        min(buffer, chunkEvents),
		wake:         make(chan struct{}, 1),
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

// Record accepts one event. It never blocks: when Buffer events are already
// waiting for the drain goroutine, or the writer is closed, the event is
// dropped and counted. Safe to call on the arbitration hot path — the event
// is copied into a reused chunk, so Record allocates only for a chunk when
// none is free, and wakes the drain goroutine only when a chunk fills.
func (w *Writer) Record(ev Event) {
	w.mu.Lock()
	if w.closed || w.pending >= w.buffer {
		w.dropped++
		w.mu.Unlock()
		return
	}
	if w.cur == nil {
		if n := len(w.free); n > 0 {
			w.cur, w.free = w.free[n-1], w.free[:n-1]
		} else {
			w.cur = make([]Event, 0, w.chunk)
		}
	}
	w.cur = append(w.cur, ev)
	w.pending++
	w.recorded++
	filled := len(w.cur) == cap(w.cur)
	if filled {
		w.full = append(w.full, w.cur)
		w.cur = nil
	}
	w.mu.Unlock()
	if filled {
		select {
		case w.wake <- struct{}{}:
		default: // a wake is already pending; the drain takes every queued chunk
		}
	}
}

// Recorded returns the number of events accepted so far.
func (w *Writer) Recorded() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.recorded
}

// Dropped returns the number of events dropped so far: on overflow, or
// handed to a closed writer.
func (w *Writer) Dropped() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.dropped
}

// Close drains the remaining events, writes the trailer and flushes. It
// returns the first write error, if any. Close is idempotent; a Record
// racing Close is either in the file or counted as dropped.
func (w *Writer) Close() error {
	w.once.Do(func() {
		w.mu.Lock()
		w.closed = true
		w.mu.Unlock()
		close(w.quit)
	})
	<-w.done
	return w.err
}

// take appends the queued chunks to batch, oldest first, and with partial
// also the chunk Record is filling, which follows them in record order.
func (w *Writer) take(batch [][]Event, partial bool) [][]Event {
	w.mu.Lock()
	defer w.mu.Unlock()
	batch = append(batch, w.full...)
	w.full = w.full[:0]
	if partial && len(w.cur) > 0 {
		batch = append(batch, w.cur)
		w.cur = nil
	}
	w.pending = len(w.cur)
	return batch
}

// recycle hands an emptied chunk back to Record.
func (w *Writer) recycle(c []Event) {
	w.mu.Lock()
	w.free = append(w.free, c[:0])
	w.mu.Unlock()
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
		b = binary.LittleEndian.AppendUint64(b, w.Dropped())
		w.buf = b
		w.write(b)
		if err := w.bw.Flush(); err != nil && w.err == nil {
			w.err = fmt.Errorf("trace: flush: %w", err)
		}
		sinceSync = 0
	}
	// flush encodes the queued chunks (and the partly filled one with
	// partial), clearing each of the strings and maps its events point to
	// and returning it to the free list as soon as it is encoded.
	var batch [][]Event
	flush := func(partial bool) {
		batch = w.take(batch[:0], partial)
		for _, c := range batch {
			for i := range c {
				w.encode(c[i])
				encoded++
				sinceSync++
				if w.syncEvery > 0 && sinceSync >= uint64(w.syncEvery) {
					sync()
				}
			}
			clear(c)
			w.recycle(c)
		}
	}
	for {
		select {
		case <-w.wake:
			flush(false)
		case <-tick:
			flush(true)
			sync()
		case <-w.quit:
			flush(true)
			w.buf = w.buf[:0]
			w.buf = append(w.buf, byte(evTrailer))
			w.buf = le64(w.buf, 0) // trailer time, reserved
			w.buf = binary.LittleEndian.AppendUint64(w.buf, w.Recorded())
			w.buf = binary.LittleEndian.AppendUint64(w.buf, w.Dropped())
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
		info := ev.Info
		if info == nil && ev.Parsed != nil {
			info = ev.Parsed.Info()
		}
		if len(info) > math.MaxUint16 {
			w.err = fmt.Errorf("trace: unencodable record: info with %d pairs", len(info))
			return
		}
		keys := make([]string, 0, len(info))
		for k := range info {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b = binary.LittleEndian.AppendUint16(b, uint16(len(keys)))
		for _, k := range keys {
			if b = w.appendString(b, k); b == nil {
				return
			}
			if b = w.appendString(b, info[k]); b == nil {
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
// header; Next returns records until the trailer, then io.EOF. Records are
// decoded in place, out of the Reader's buffer: each field is taken from
// buf[pos:end] and nothing is copied out but the strings an Event keeps and
// a Prepare's parsed info.
type Reader struct {
	src      io.Reader
	buf      []byte
	pos, end int   // the buffered, not yet taken bytes
	err      error // what src returned last, once it returned an error

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

	// interned holds the target names a long trace repeats on every record,
	// so Next allocates each once; lastTarget is the most recent, which the
	// next record usually repeats.
	interned   map[string]string
	lastTarget string

	// slab is where Prepares' parsed infos are allocated, one chunk at a
	// time: events keep pointers into it, so a full chunk is left to them
	// and a fresh one started. key holds a Prepare key while its value is
	// taken (the take may move the buffer under it).
	slab []core.ParsedInfo
	key  []byte
}

// readBuffer is the Reader's buffer size; a field longer than it (a string
// near the format's 64 KiB limit) grows the buffer.
const readBuffer = 16 << 10

// NewReader parses the stream preamble.
func NewReader(r io.Reader) (*Reader, error) {
	tr := &Reader{src: r, buf: make([]byte, readBuffer)}
	m, err := tr.take(len(magic))
	if err != nil {
		return nil, fmt.Errorf("trace: not a calciom trace: %w", noEOF(err))
	}
	if [8]byte(m) != magic {
		return nil, errors.New("trace: not a calciom trace (bad magic)")
	}
	v, err := tr.take(2)
	if err != nil {
		return nil, fmt.Errorf("trace: version: %w", noEOF(err))
	}
	tr.version = binary.LittleEndian.Uint16(v)
	if tr.version == 0 || tr.version > Version {
		return nil, fmt.Errorf("trace: unsupported format version %d (this build reads <= %d)", tr.version, Version)
	}
	hj, err := tr.str()
	if err != nil {
		return nil, fmt.Errorf("trace: header: %w", err)
	}
	// Recordings made before the header named complete specs keep bare
	// delay's overlap in a key of its own; it becomes the spec here.
	var legacy struct {
		Header
		DelayOverlap float64 `json:"delay_overlap"`
	}
	if err := json.Unmarshal(hj, &legacy); err != nil {
		return nil, fmt.Errorf("trace: header: %w", err)
	}
	tr.hdr = legacy.Header
	if legacy.DelayOverlap != 0 {
		if tr.hdr.Policy != "delay" {
			return nil, fmt.Errorf("trace: header: delay_overlap with policy %q", tr.hdr.Policy)
		}
		tr.hdr.Policy = "delay(" + strconv.FormatFloat(legacy.DelayOverlap, 'g', -1, 64) + ")"
	}
	return tr, nil
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
// cleanly. A Prepare comes back with Parsed set and Info nil: its pairs are
// parsed as they are decoded, into memory the Reader hands out in chunks
// and never reuses. The App string is freshly allocated per record;
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
		b, err := r.take(1)
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
		sy, err := r.take(16)
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
		tr, err := r.take(24)
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
	ts, err := r.take(12) // time + sid
	if err != nil {
		return fmt.Errorf("trace: record %s: %w", t, noEOF(err))
	}
	*ev = Event{
		Type: t,
		Time: math.Float64frombits(binary.LittleEndian.Uint64(ts[0:8])),
		SID:  binary.LittleEndian.Uint32(ts[8:12]),
	}
	if r.version >= 2 {
		target, err := r.str()
		if err != nil {
			return fmt.Errorf("trace: %s target: %w", t, err)
		}
		ev.Target = r.intern(target)
	}
	switch t {
	case EvRegister:
		name, err := r.str()
		if err != nil {
			return fmt.Errorf("trace: register name: %w", err)
		}
		ev.App = string(name)
		cores, err := r.take(4)
		if err != nil {
			return fmt.Errorf("trace: register cores: %w", noEOF(err))
		}
		ev.Cores = int32(binary.LittleEndian.Uint32(cores))
	case EvPrepare:
		cnt, err := r.take(2)
		if err != nil {
			return fmt.Errorf("trace: prepare count: %w", noEOF(err))
		}
		n := int(binary.LittleEndian.Uint16(cnt))
		info := r.parsed()
		for i := 0; i < n; i++ {
			k, err := r.str()
			if err != nil {
				return fmt.Errorf("trace: prepare key: %w", err)
			}
			r.key = append(r.key[:0], k...)
			v, err := r.str()
			if err != nil {
				return fmt.Errorf("trace: prepare value: %w", err)
			}
			info.Set(string(r.key), string(v))
		}
		ev.Parsed = info
	case EvInform, EvProgress, EvRelease:
		by, err := r.take(8)
		if err != nil {
			return fmt.Errorf("trace: %s bytes: %w", t, noEOF(err))
		}
		ev.Bytes = math.Float64frombits(binary.LittleEndian.Uint64(by))
	}
	r.read++
	return nil
}

// take consumes the next n bytes and returns them, in the Reader's buffer:
// they are valid until the next take. A stream that ends first yields
// io.EOF when nothing was left and io.ErrUnexpectedEOF when some of the n
// bytes were.
func (r *Reader) take(n int) ([]byte, error) {
	if r.end-r.pos < n {
		return r.fill(n)
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b, nil
}

// fill is take's slow path: it moves the unread bytes to the front of the
// buffer (of one large enough for n), reads until n are buffered, and takes
// them.
func (r *Reader) fill(n int) ([]byte, error) {
	buf := r.buf
	if n > len(buf) {
		buf = make([]byte, max(n, 2*len(buf)))
	}
	r.end = copy(buf, r.buf[r.pos:r.end])
	r.buf, r.pos = buf, 0
	for empty := 0; r.end < n && r.err == nil; {
		k, err := r.src.Read(r.buf[r.end:])
		r.end += k
		r.err = err
		if k > 0 {
			empty = 0
		} else if empty++; empty == 100 && err == nil {
			r.err = io.ErrNoProgress
		}
	}
	if r.end < n {
		if r.err == io.EOF && r.end > 0 {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, r.err
	}
	r.pos = n
	return r.buf[:n], nil
}

// str takes a u16-length-prefixed string; the bytes are valid until the
// next take. Every end of stream inside it is unexpected.
func (r *Reader) str() ([]byte, error) {
	ln, err := r.take(2)
	if err != nil {
		return nil, noEOF(err)
	}
	b, err := r.take(int(binary.LittleEndian.Uint16(ln)))
	return b, noEOF(err)
}

// intern returns b as a string allocated once per distinct value: the
// previous target name is checked first, then the table.
func (r *Reader) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if string(b) == r.lastTarget {
		return r.lastTarget
	}
	s, ok := r.interned[string(b)]
	if !ok {
		if r.interned == nil {
			r.interned = make(map[string]string)
		}
		s = string(b)
		r.interned[s] = s
	}
	r.lastTarget = s
	return s
}

// Slab chunk sizes: the first chunk holds minSlab parsed infos and each next
// one twice its predecessor, up to maxSlab, so a short trace allocates
// little and a long one a few chunks.
const minSlab, maxSlab = 64, 4096

// parsed takes the next slot of the slab, every key absent.
func (r *Reader) parsed() *core.ParsedInfo {
	n := len(r.slab)
	if n == cap(r.slab) {
		chunk := make([]core.ParsedInfo, min(max(2*n, minSlab), maxSlab))
		absent := core.ParseInfo(nil)
		for i := range chunk {
			chunk[i] = absent
		}
		r.slab, n = chunk[:0], 0
	}
	r.slab = r.slab[:n+1]
	return &r.slab[n]
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
	reserve := reservation(r) // before the Reader's buffer takes its first bite
	tr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	tr.SetLenient(lenient)
	out := &Trace{Header: tr.Header(), Events: make([]Event, 0, reserve)}
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

// reservation returns how many events to reserve for reading r, when r
// can say how many bytes it has yet to deliver — the bytes and strings
// readers and buffers, a regular file — and 0 otherwise. It is the count in
// the trailer those bytes end with, read from their tail without consuming
// anything where r can; failing that, a sixteenth of the bytes, which as a
// record is at least 13 bytes is a count the slice outgrows at most once.
// Either way it is never more than the bytes on hand could hold, whatever
// their contents claim.
func reservation(r io.Reader) int64 {
	var left, end int64 // bytes to deliver, and the ReadAt offset they end at
	var ra io.ReaderAt
	switch src := r.(type) {
	case interface {
		Len() int
		Size() int64
		io.ReaderAt
	}:
		left, end, ra = int64(src.Len()), src.Size(), src
	case interface {
		Stat() (os.FileInfo, error)
		io.ReaderAt
	}:
		fi, err := src.Stat()
		if err != nil || !fi.Mode().IsRegular() {
			return 0
		}
		left, end, ra = fi.Size(), fi.Size(), src
	case interface{ Len() int }: // a bytes.Buffer: no tail to read
		return int64(src.Len()) / 16
	default:
		return 0
	}
	var tail [25]byte // the trailer: type, time, recorded, dropped
	if left >= int64(len(tail)) {
		if _, err := ra.ReadAt(tail[:], end-int64(len(tail))); err == nil && Type(tail[0]) == evTrailer {
			if n := binary.LittleEndian.Uint64(tail[9:17]); n <= uint64(left/13) {
				return int64(n)
			}
		}
	}
	return left / 16
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

// Sessions returns how many distinct sessions registered. A daemon records
// one register per storage target a session attaches to, and another on
// every resume, so registers outnumber sessions on a sharded recording.
func (t *Trace) Sessions() int {
	sids := make(map[uint32]struct{})
	for i := range t.Events {
		if t.Events[i].Type == EvRegister {
			sids[t.Events[i].SID] = struct{}{}
		}
	}
	return len(sids)
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
