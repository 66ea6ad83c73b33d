package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"maps"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

// sampleEvents is a fixed sequence exercising every record shape.
func sampleEvents() []Event {
	return []Event{
		{Type: EvRegister, Time: 0.25, SID: 1, App: "alpha", Cores: 64, Target: "ssd0"},
		{Type: EvPrepare, Time: 0.5, SID: 1, Info: map[string]string{"bytes_total": "1024", "cores": "64"}, Target: "ssd0"},
		{Type: EvInform, Time: 0.75, SID: 1, Bytes: 0, Target: "ssd0"},
		{Type: EvGrant, Time: 0.75, SID: 1, Target: "ssd0"},
		{Type: EvWait, Time: 1, SID: 1},
		{Type: EvRegister, Time: 1.5, SID: 2, App: "beta", Cores: 8},
		{Type: EvInform, Time: 1.75, SID: 2},
		{Type: EvWait, Time: 1.75, SID: 2},
		{Type: EvCheck, Time: 1.8, SID: 2},
		{Type: EvProgress, Time: 2, SID: 1, Bytes: 512},
		{Type: EvRelease, Time: 2.5, SID: 1, Bytes: 1024},
		{Type: EvComplete, Time: 2.5, SID: 1},
		{Type: EvEnd, Time: 2.5, SID: 1},
		{Type: EvRevoke, Time: 2.5, SID: 1},
		{Type: EvGrant, Time: 2.5, SID: 2},
		{Type: EvRecheck, Time: 3},
		{Type: EvEnd, Time: 3.5, SID: 2},
		{Type: EvUnregister, Time: 4, SID: 2},
	}
}

func writeSample(t *testing.T, hdr Header, evs []Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, hdr, len(evs)+8)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		w.Record(ev)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	hdr := Header{Source: SourceDaemon, Policy: "delay(0.5)", FSMiBps: 1024, ProcNICMiBps: 8}
	evs := sampleEvents()
	data := writeSample(t, hdr, evs)

	tr, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Header != hdr {
		t.Fatalf("header round trip: got %+v want %+v", tr.Header, hdr)
	}
	if tr.Dropped != 0 {
		t.Fatalf("dropped = %d, want 0", tr.Dropped)
	}
	if len(tr.Events) != len(evs) {
		t.Fatalf("got %d events, want %d", len(tr.Events), len(evs))
	}
	for i := range evs {
		if !sameEvents(tr.Events[i:i+1], evs[i:i+1]) {
			t.Fatalf("event %d: got %+v want %+v", i, tr.Events[i], evs[i])
		}
		if ev := &tr.Events[i]; ev.Type == EvPrepare && (ev.Info != nil || ev.Parsed == nil) {
			t.Fatalf("event %d: a read Prepare carries Info %v and Parsed %v, want only Parsed", i, ev.Info, ev.Parsed)
		}
	}
	first, last := tr.Span()
	if first != 0.25 || last != 4 {
		t.Fatalf("span = %g..%g, want 0.25..4", first, last)
	}
}

// TestGoldenBytes pins the version-3 encoding byte for byte: a format
// change that breaks old traces must be deliberate (bump Version and update
// this test), never accidental. The record encoding is identical to
// version 2; version 3 only adds the optional sync record (pinned in
// TestSyncGoldenBytes), so a syncless file differs from version 2 in the
// version field alone.
func TestGoldenBytes(t *testing.T) {
	data := writeSample(t, Header{Source: SourceDaemon, Policy: "fcfs"}, []Event{
		{Type: EvRegister, Time: 1.5, SID: 7, App: "ab", Cores: 3},
		{Type: EvPrepare, Time: 2, SID: 7, Info: map[string]string{"b": "2", "a": "1"}},
		{Type: EvInform, Time: 2.5, SID: 7, Bytes: 8, Target: "bb1"},
		{Type: EvGrant, Time: 2.5, SID: 7, Target: "bb1"},
	})
	want := "" +
		// magic, version, header length, header JSON
		"CALTRACE" + "\x03\x00" + "\x25\x00" +
		`{"source":"calciomd","policy":"fcfs"}` +
		// register: type 1, time 1.5, sid 7, target "", "ab", cores 3
		"\x01\x00\x00\x00\x00\x00\x00\xf8\x3f\x07\x00\x00\x00\x00\x00\x02\x00ab\x03\x00\x00\x00" +
		// prepare: type 2, time 2.0, sid 7, target "", 2 sorted pairs a=1 b=2
		"\x02\x00\x00\x00\x00\x00\x00\x00\x40\x07\x00\x00\x00\x00\x00\x02\x00" +
		"\x01\x00a\x01\x001" + "\x01\x00b\x01\x002" +
		// inform: type 4, time 2.5, sid 7, target "bb1", bytes 8.0
		"\x04\x00\x00\x00\x00\x00\x00\x04\x40\x07\x00\x00\x00\x03\x00bb1\x00\x00\x00\x00\x00\x00\x20\x40" +
		// grant: type 12, time 2.5, sid 7, target "bb1"
		"\x0c\x00\x00\x00\x00\x00\x00\x04\x40\x07\x00\x00\x00\x03\x00bb1" +
		// trailer: 0xFF, time 0, recorded 4, dropped 0
		"\xff\x00\x00\x00\x00\x00\x00\x00\x00\x04\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"
	if string(data) != want {
		t.Fatalf("version-%d encoding changed:\n got %q\nwant %q", Version, data, want)
	}
}

// TestLegacyDelayOverlapHeader: a header written before headers named
// complete specs keeps bare delay's overlap in "delay_overlap"; the reader
// folds it into Policy, so the recording still rebuilds its policy. Any
// other policy next to that key is an error.
func TestLegacyDelayOverlapHeader(t *testing.T) {
	header := func(hj string) string {
		return "CALTRACE" + "\x03\x00" + string([]byte{byte(len(hj)), 0}) + hj +
			"\xff" + strings.Repeat("\x00", 24)
	}
	for hj, want := range map[string]Header{
		`{"source":"calciomd","policy":"delay","delay_overlap":0.25,"fs_mibps":4096,"proc_nic_mibps":3}`: {
			Source: SourceDaemon, Policy: "delay(0.25)", FSMiBps: 4096, ProcNICMiBps: 3},
		`{"source":"calciomd","policy":"delay","fs_mibps":4096}`: {
			Source: SourceDaemon, Policy: "delay", FSMiBps: 4096},
	} {
		tr, err := Read(strings.NewReader(header(hj)))
		if err != nil || tr.Header != want {
			t.Fatalf("%s reads as %+v, %v; want %+v", hj, tr.Header, err, want)
		}
	}
	_, err := Read(strings.NewReader(header(`{"source":"calciomd","policy":"fcfs","delay_overlap":0.5}`)))
	if err == nil || !strings.Contains(err.Error(), "delay_overlap") {
		t.Fatalf("an overlap beside fcfs reads with err %v", err)
	}
}

// TestHeaderBuildsPolicy: a header builds its policy as calciomd builds
// one from its -policy, -fs-mibps and -proc-nic-mibps flags — the aliases
// ("" is fcfs, bare delay delay(0), bare dynamic dynamic(cpu-seconds)), the
// model in bytes per second, and errors naming the flag at fault.
func TestHeaderBuildsPolicy(t *testing.T) {
	const miB = 1 << 20
	for _, tc := range []struct {
		name string
		hdr  Header
		want string // the built policy's name, or a substring of the error
		err  bool
	}{
		{name: "fcfs alias", hdr: Header{}, want: "fcfs"},
		{name: "interrupt policy", hdr: Header{Policy: "interrupt"}, want: "interrupt"},
		{name: "bare delay", hdr: Header{Policy: "delay", FSMiBps: 2048, ProcNICMiBps: 3}, want: "delay(0.00)"},
		{name: "delay spec", hdr: Header{Policy: "delay(0.25)", FSMiBps: 2048, ProcNICMiBps: 3}, want: "delay(0.25)"},
		{name: "bare dynamic", hdr: Header{Policy: "dynamic", FSMiBps: 2048, ProcNICMiBps: 3}, want: "dynamic(cpu-seconds)"},
		{name: "unknown policy", hdr: Header{Policy: "roulette"}, want: `-policy: unknown policy "roulette"`, err: true},
		{name: "delay needs model", hdr: Header{Policy: "delay(1)"}, want: `-policy "delay(1)" needs -fs-mibps`, err: true},
		{name: "dynamic needs model", hdr: Header{Policy: "dynamic", ProcNICMiBps: 3}, want: `-policy "dynamic" needs -fs-mibps`, err: true},
		{name: "negative bandwidth", hdr: Header{FSMiBps: -1}, want: "-fs-mibps", err: true},
		{name: "negative NIC bandwidth", hdr: Header{FSMiBps: 1, ProcNICMiBps: -1}, want: "-proc-nic-mibps", err: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := tc.hdr.BuildPolicy()
			if tc.err {
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("BuildPolicy() = %v, %v; want an error containing %q", p, err, tc.want)
				}
				return
			}
			if err != nil || p.Name() != tc.want {
				t.Fatalf("BuildPolicy() = %v, %v; want %s", p, err, tc.want)
			}
			if dp, ok := p.(core.DelayPolicy); tc.hdr.Policy == "delay" && (!ok || dp.Overlap != 0) {
				t.Fatalf("bare delay builds %#v, want no overlap", p)
			}
		})
	}
	if m := (Header{ProcNICMiBps: 3}).Model(); m != nil {
		t.Fatalf("no file-system bandwidth, model %+v; want none", m)
	}
	if m := (Header{FSMiBps: 4000, ProcNICMiBps: 100}).Model(); m == nil || *m != (core.PerfModel{FSBandwidth: 4000 * miB, ProcNIC: 100 * miB}) {
		t.Fatalf("model = %+v", m)
	}
}

// TestReadVersion2 pins backward compatibility with version-2 files (the
// pre-sync-record encoding, byte for byte the version-2 golden bytes).
func TestReadVersion2(t *testing.T) {
	v2 := "" +
		"CALTRACE" + "\x02\x00" + "\x25\x00" +
		`{"source":"calciomd","policy":"fcfs"}` +
		"\x01\x00\x00\x00\x00\x00\x00\xf8\x3f\x07\x00\x00\x00\x00\x00\x02\x00ab\x03\x00\x00\x00" +
		"\x02\x00\x00\x00\x00\x00\x00\x00\x40\x07\x00\x00\x00\x00\x00\x02\x00" +
		"\x01\x00a\x01\x001" + "\x01\x00b\x01\x002" +
		"\x04\x00\x00\x00\x00\x00\x00\x04\x40\x07\x00\x00\x00\x03\x00bb1\x00\x00\x00\x00\x00\x00\x20\x40" +
		"\x0c\x00\x00\x00\x00\x00\x00\x04\x40\x07\x00\x00\x00\x03\x00bb1" +
		"\xff\x00\x00\x00\x00\x00\x00\x00\x00\x04\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"
	tr, err := Read(strings.NewReader(v2))
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{Type: EvRegister, Time: 1.5, SID: 7, App: "ab", Cores: 3},
		{Type: EvPrepare, Time: 2, SID: 7, Info: map[string]string{"a": "1", "b": "2"}},
		{Type: EvInform, Time: 2.5, SID: 7, Bytes: 8, Target: "bb1"},
		{Type: EvGrant, Time: 2.5, SID: 7, Target: "bb1"},
	}
	if len(tr.Events) != len(want) {
		t.Fatalf("got %d events, want %d", len(tr.Events), len(want))
	}
	for i := range want {
		if !sameEvents(tr.Events[i:i+1], want[i:i+1]) {
			t.Fatalf("event %d: got %+v want %+v", i, tr.Events[i], want[i])
		}
	}
}

// TestReadVersion1 pins backward compatibility: a version-1 file (the
// pre-target encoding, byte for byte the old golden bytes) must still parse,
// with every event's Target empty — the single coordination domain such
// traces recorded.
func TestReadVersion1(t *testing.T) {
	v1 := "" +
		"CALTRACE" + "\x01\x00" + "\x25\x00" +
		`{"source":"calciomd","policy":"fcfs"}` +
		"\x01\x00\x00\x00\x00\x00\x00\xf8\x3f\x07\x00\x00\x00\x02\x00ab\x03\x00\x00\x00" +
		"\x02\x00\x00\x00\x00\x00\x00\x00\x40\x07\x00\x00\x00\x02\x00" +
		"\x01\x00a\x01\x001" + "\x01\x00b\x01\x002" +
		"\x04\x00\x00\x00\x00\x00\x00\x04\x40\x07\x00\x00\x00\x00\x00\x00\x00\x00\x00\x20\x40" +
		"\x0c\x00\x00\x00\x00\x00\x00\x04\x40\x07\x00\x00\x00" +
		"\xff\x00\x00\x00\x00\x00\x00\x00\x00\x04\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"
	tr, err := Read(strings.NewReader(v1))
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{Type: EvRegister, Time: 1.5, SID: 7, App: "ab", Cores: 3},
		{Type: EvPrepare, Time: 2, SID: 7, Info: map[string]string{"a": "1", "b": "2"}},
		{Type: EvInform, Time: 2.5, SID: 7, Bytes: 8},
		{Type: EvGrant, Time: 2.5, SID: 7},
	}
	if len(tr.Events) != len(want) {
		t.Fatalf("got %d events, want %d", len(tr.Events), len(want))
	}
	for i := range want {
		if !sameEvents(tr.Events[i:i+1], want[i:i+1]) {
			t.Fatalf("event %d: got %+v want %+v", i, tr.Events[i], want[i])
		}
		if tr.Events[i].Target != "" {
			t.Fatalf("event %d: version-1 record decoded with target %q", i, tr.Events[i].Target)
		}
	}
}

// v3Prepare is a version-3 file of one Prepare declaring all five keys a
// policy reads, one it does not know and one value that does not parse,
// pinned byte for byte: the pairs the v1 and v2 files above carry are all
// unknown, so this is the record through which reading a Prepare still
// exercises a real parse.
const v3Prepare = "" +
	"CALTRACE" + "\x03\x00" + "\x25\x00" +
	`{"source":"calciomd","policy":"fcfs"}` +
	// prepare: type 2, time 2.0, sid 7, target "", 6 sorted pairs
	"\x02\x00\x00\x00\x00\x00\x00\x00\x40\x07\x00\x00\x00\x00\x00\x06\x00" +
	"\x08\x00alone_bw\x05\x002.5e9" + "\x0b\x00bytes_total\x04\x001024" + "\x06\x00colour\x04\x00blue" +
	"\x05\x00cores\x02\x0064" + "\x05\x00files\x01\x003" + "\x06\x00rounds\x01\x00x" +
	// trailer: 0xFF, time 0, recorded 1, dropped 0
	"\xff\x00\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"

// TestReadVersion3Prepare: a Writer given the Prepare's map encodes
// v3Prepare, and reading it yields the parse of that map — the recognized
// keys with valid values, nothing of the unknown key or the malformed one —
// which records back as its canonical pairs and reads back the same.
func TestReadVersion3Prepare(t *testing.T) {
	info := map[string]string{"alone_bw": "2.5e9", "bytes_total": "1024", "colour": "blue", "cores": "64", "files": "3", "rounds": "x"}
	evs := []Event{{Type: EvPrepare, Time: 2, SID: 7, Info: info}}
	if data := writeSample(t, Header{Source: SourceDaemon, Policy: "fcfs"}, evs); string(data) != v3Prepare {
		t.Fatalf("version-3 prepare encoding changed:\n got %q\nwant %q", data, v3Prepare)
	}
	tr, err := Read(strings.NewReader(v3Prepare))
	if err != nil {
		t.Fatal(err)
	}
	if !sameEvents(tr.Events, evs) {
		t.Fatalf("read %+v, want the parse of %v", tr.Events, info)
	}
	canonical := map[string]string{"alone_bw": "2.5e+09", "bytes_total": "1024", "cores": "64", "files": "3"}
	if got := tr.Events[0].Prepared().Info(); !maps.Equal(got, canonical) {
		t.Fatalf("parsed info %v, want %v", got, canonical)
	}
	back, err := Read(bytes.NewReader(writeSample(t, tr.Header, tr.Events)))
	if err != nil || !sameEvents(back.Events, evs) {
		t.Fatalf("re-recorded prepare reads back as %+v (err %v)", back.Events, err)
	}
}

func TestTruncatedAndCorrupt(t *testing.T) {
	full := writeSample(t, Header{Policy: "fcfs"}, sampleEvents())

	t.Run("no trailer", func(t *testing.T) {
		// Cut exactly the trailer (25 bytes): clean record boundary, no close.
		_, err := Read(bytes.NewReader(full[:len(full)-25]))
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("want ErrTruncated, got %v", err)
		}
	})
	t.Run("torn record", func(t *testing.T) {
		_, err := Read(bytes.NewReader(full[:len(full)-30]))
		if err == nil || !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("want unexpected EOF, got %v", err)
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte("NOTATRCE"), full[8:]...)
		if _, err := Read(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "magic") {
			t.Fatalf("want bad-magic error, got %v", err)
		}
	})
	t.Run("future version", func(t *testing.T) {
		bad := append([]byte(nil), full...)
		binary.LittleEndian.PutUint16(bad[8:10], Version+1)
		if _, err := Read(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("want version error, got %v", err)
		}
	})
	t.Run("unknown record type", func(t *testing.T) {
		bad := append([]byte(nil), full...)
		// First record starts right after magic+version+len+header JSON.
		off := 8 + 2 + 2 + int(binary.LittleEndian.Uint16(full[10:12]))
		bad[off] = 0x7E
		if _, err := Read(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "unknown record type") {
			t.Fatalf("want corrupt-type error, got %v", err)
		}
	})
	t.Run("trailer count mismatch", func(t *testing.T) {
		bad := append([]byte(nil), full...)
		binary.LittleEndian.PutUint64(bad[len(bad)-16:], 999)
		if _, err := Read(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "trailer records") {
			t.Fatalf("want trailer-mismatch error, got %v", err)
		}
	})
	t.Run("empty", func(t *testing.T) {
		if _, err := Read(bytes.NewReader(nil)); err == nil {
			t.Fatal("want error on empty stream")
		}
	})
}

// blockingWriter blocks every Write until released, so the drain goroutine
// stalls and the channel fills up.
type blockingWriter struct {
	release chan struct{}
	buf     bytes.Buffer
	mu      sync.Mutex
}

func (b *blockingWriter) Write(p []byte) (int, error) {
	<-b.release
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// TestOverflowDropAccounting fills a tiny buffer past capacity while the
// drain goroutine is stalled: the surplus must be dropped (never blocking
// the recorder), counted, written into the trailer and surfaced by the
// reader — and replayable consumers can see the trace is lossy.
func TestOverflowDropAccounting(t *testing.T) {
	bw := &blockingWriter{release: make(chan struct{})}
	close(bw.release) // let the header through
	w, err := NewWriter(bw, Header{Policy: "fcfs"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	bw.release = make(chan struct{}) // stall all record writes

	// Each record is bigger than the writer's internal buffer, so the very
	// first one the drain goroutine picks up blocks it inside Write; the
	// channel (capacity 4) then fills and the surplus must be dropped.
	const total = 64
	bigName := strings.Repeat("x", 8<<10)
	for i := 0; i < total; i++ {
		w.Record(Event{Type: EvRegister, Time: float64(i), SID: 1, App: bigName, Cores: 1})
	}
	rec, drop := w.Recorded(), w.Dropped()
	if rec < 4 || drop == 0 || rec+drop != total {
		t.Fatalf("recorded=%d dropped=%d, want >=4 recorded, >0 dropped, summing to %d", rec, drop, total)
	}
	// Channel capacity plus the few records the drain consumed first.
	if rec > 12 {
		t.Fatalf("recorded=%d, want <= 12 with a stalled drain and capacity 4", rec)
	}
	close(bw.release)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	bw.mu.Lock()
	data := append([]byte(nil), bw.buf.Bytes()...)
	bw.mu.Unlock()
	tr, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(tr.Events)) != rec {
		t.Fatalf("reader got %d events, writer recorded %d", len(tr.Events), rec)
	}
	if tr.Dropped != drop {
		t.Fatalf("reader dropped=%d, writer dropped=%d", tr.Dropped, drop)
	}
}

// TestRecordDoesNotAllocate pins the hot-path contract: enqueueing an event
// (including one carrying a string and a map by reference) performs zero
// allocations.
func TestRecordDoesNotAllocate(t *testing.T) {
	w, err := NewWriter(io.Discard, Header{Policy: "fcfs"}, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	info := map[string]string{"bytes_total": "4096"}
	ev := Event{Type: EvPrepare, Time: 1, SID: 3, Info: info, Target: "ssd0"}
	allocs := testing.AllocsPerRun(1000, func() {
		w.Record(ev)
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %.1f times per call, want 0", allocs)
	}
}

// TestUnencodableStringFailsLoudly: a string beyond the format's 64 KiB
// field limit must fail the recording (Close errors, the file reads back
// truncated) instead of being silently truncated into data replay would
// trust.
func TestUnencodableStringFailsLoudly(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{Policy: "fcfs"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	w.Record(Event{Type: EvRegister, Time: 1, SID: 1, App: strings.Repeat("x", 1<<16+1), Cores: 1})
	if err := w.Close(); err == nil || !strings.Contains(err.Error(), "unencodable") {
		t.Fatalf("want unencodable error from Close, got %v", err)
	}
	if _, err := Read(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrTruncated) {
		t.Fatalf("failed recording should read back as truncated, got %v", err)
	}
}

// TestSyncGoldenBytes pins the version-3 sync record encoding: 0xFE, u64
// recorded-so-far, u64 dropped-so-far, emitted after every SyncEvery events.
func TestSyncGoldenBytes(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriterOptions(&buf, Header{Source: SourceDaemon, Policy: "fcfs"}, Options{Buffer: 8, SyncEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		w.Record(Event{Type: EvCheck, Time: 1, SID: 1})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	check := "\x06\x00\x00\x00\x00\x00\x00\xf0\x3f\x01\x00\x00\x00\x00\x00"
	want := "" +
		"CALTRACE" + "\x03\x00" + "\x25\x00" +
		`{"source":"calciomd","policy":"fcfs"}` +
		check + check +
		// sync: 0xFE, recorded 2, dropped 0
		"\xfe\x02\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00" +
		check +
		// trailer: 0xFF, time 0, recorded 3, dropped 0
		"\xff\x00\x00\x00\x00\x00\x00\x00\x00\x03\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"
	if buf.String() != want {
		t.Fatalf("sync encoding changed:\n got %q\nwant %q", buf.Bytes(), want)
	}
	// Sync records are bookkeeping, not events: a normal read consumes them
	// transparently and reports only the 3 real records.
	tr, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 3 || tr.Truncated {
		t.Fatalf("got %d events truncated=%v, want 3 events, complete", len(tr.Events), tr.Truncated)
	}
}

// TestLenientTruncatedRead simulates a kill -9 mid-record: the strict
// reader refuses, the lenient reader recovers every complete record and
// reports the truncation instead.
func TestLenientTruncatedRead(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriterOptions(&buf, Header{Policy: "fcfs"}, Options{Buffer: 16, SyncEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		w.Record(Event{Type: EvCheck, Time: float64(i), SID: 1})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	cuts := []struct {
		name string
		cut  int // bytes removed from the end
		want int // complete records recoverable
	}{
		{"trailer only", 25, 5},
		{"torn record", 25 + 7, 4},
		{"at sync point", 25 + 15, 4}, // 5th record gone, 2nd sync intact
		{"torn sync", 25 + 15 + 5, 4},
		{"deep tear", 25 + 15 + 17 + 15 + 7, 2},
	}
	for _, tc := range cuts {
		t.Run(tc.name, func(t *testing.T) {
			data := full[:len(full)-tc.cut]
			if _, err := Read(bytes.NewReader(data)); err == nil {
				t.Fatal("strict read accepted a truncated stream")
			}
			tr, err := ReadLenient(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("lenient read: %v", err)
			}
			if !tr.Truncated {
				t.Fatal("lenient read of torn stream: Truncated not set")
			}
			if len(tr.Events) != tc.want {
				t.Fatalf("recovered %d events, want %d", len(tr.Events), tc.want)
			}
			if tr.Dropped != 0 {
				t.Fatalf("dropped = %d, want 0", tr.Dropped)
			}
		})
	}

	// A complete stream read leniently is indistinguishable from a strict read.
	tr, err := ReadLenient(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Truncated || len(tr.Events) != 5 {
		t.Fatalf("complete stream: truncated=%v events=%d", tr.Truncated, len(tr.Events))
	}
}

// TestLenientReaderCounters pins the Reader-level lenient API surface used
// by calciom-replay's truncation report.
func TestLenientReaderCounters(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriterOptions(&buf, Header{Policy: "fcfs"}, Options{Buffer: 8, SyncEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		w.Record(Event{Type: EvCheck, Time: float64(i), SID: 1})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data = data[:len(data)-25-17-7] // trailer, final sync, torn 4th record

	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	r.SetLenient(true)
	var n int
	for {
		var ev Event
		if err := r.Next(&ev); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 3 || !r.Truncated() || r.TruncatedAfter() != 3 || r.Recorded() != 3 {
		t.Fatalf("n=%d truncated=%v after=%d recorded=%d, want 3/true/3/3",
			n, r.Truncated(), r.TruncatedAfter(), r.Recorded())
	}
}

func TestWriterCloseIdempotent(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{Policy: "fcfs"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	w.Record(Event{Type: EvCheck, Time: 1, SID: 1})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Record after Close must not panic; the event is simply dropped once
	// the buffer fills (the drain goroutine is gone).
	for i := 0; i < 8; i++ {
		w.Record(Event{Type: EvCheck, Time: 2, SID: 1})
	}
	tr, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 1 {
		t.Fatalf("got %d events, want 1", len(tr.Events))
	}
}
