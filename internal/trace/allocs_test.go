package trace_test

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/replay/replaytest"
	"repro/internal/trace"
)

// encode writes tr the way a recorder would, nothing dropped.
func encode(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, tr.Header, len(tr.Events))
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range tr.Events {
		w.Record(ev)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Dropped() != 0 {
		t.Fatalf("recorder dropped %d events", w.Dropped())
	}
	return buf.Bytes()
}

// TestReadAllocsPerEvent bounds what loading a trace allocates: per Prepare
// its Info map and the value in it — nothing per fixed-width field, per
// target or per Prepare key, any of which would add one, and next to nothing
// for the event slice, which is reserved up front. It read 3.5 while the
// decoder's locals escaped through io.ReadFull.
func TestReadAllocsPerEvent(t *testing.T) {
	tr := replaytest.Trace(64, 4, 20)
	data := encode(t, tr)
	allocs := testing.AllocsPerRun(5, func() {
		got, err := trace.Read(bytes.NewReader(data))
		if err != nil || len(got.Events) != len(tr.Events) {
			t.Fatalf("read %d events, err %v; want %d", len(got.Events), err, len(tr.Events))
		}
	})
	if perEvent := allocs / float64(len(tr.Events)); perEvent > 1 {
		t.Errorf("trace.Read: %.2f allocations per event (%.0f for %d events), want <= 1", perEvent, allocs, len(tr.Events))
	} else {
		t.Logf("trace.Read: %.2f allocations per event", perEvent)
	}
}

// allocated returns the bytes f allocates (the test runs nothing beside it).
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReadReservesEvents: a source that can say how long it is — a
// bytes.Reader, the file Load opens — has its event slice reserved from that
// length, so loading costs one slice and not the doubling series append grows
// through (about 4.4 times the events' own size). The trace here has no
// Prepare, so the slice is all that loading it allocates per event.
func TestReadReservesEvents(t *testing.T) {
	tr := replaytest.Trace(64, 4, 20)
	tr.Events = slices.DeleteFunc(tr.Events, func(ev trace.Event) bool { return ev.Type == trace.EvPrepare })
	data := encode(t, tr)
	path := filepath.Join(t.TempDir(), "run.trace")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	limit := uint64(1.6 * float64(len(tr.Events)) * float64(unsafe.Sizeof(trace.Event{})))
	for name, load := range map[string]func() (*trace.Trace, error){
		"Read(*bytes.Reader)": func() (*trace.Trace, error) { return trace.Read(bytes.NewReader(data)) },
		"Load(file)":          func() (*trace.Trace, error) { return trace.Load(path) },
	} {
		var got *trace.Trace
		var err error
		n := allocated(func() { got, err = load() })
		if err != nil || !reflect.DeepEqual(got.Events, tr.Events) {
			t.Fatalf("%s: err %v, %d events read of %d", name, err, len(got.Events), len(tr.Events))
		}
		if n > limit {
			t.Errorf("%s allocated %d bytes for %d events, want <= %d (1.6 x their size)", name, n, len(tr.Events), limit)
		}
	}

	// A source that cannot say reads the same trace, growing as it goes.
	got, err := trace.Read(io.MultiReader(bytes.NewReader(data)))
	if err != nil || !reflect.DeepEqual(got.Events, tr.Events) {
		t.Fatalf("Read(io.MultiReader): err %v, %d events read of %d", err, len(got.Events), len(tr.Events))
	}
}

// TestReadReservationBoundedBySource: the reservation comes from the bytes
// actually on hand, never from anything the contents claim — a recording torn
// 40 bytes into its records reserves no more than its bytes could hold.
func TestReadReservationBoundedBySource(t *testing.T) {
	data := encode(t, replaytest.Trace(64, 4, 20))
	preamble := 12 + int(binary.LittleEndian.Uint16(data[10:12])) // magic, version, header length, header
	torn := data[:preamble+40]
	path := filepath.Join(t.TempDir(), "torn.trace")
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	for name, load := range map[string]func() (*trace.Trace, error){
		"ReadLenient": func() (*trace.Trace, error) { return trace.ReadLenient(bytes.NewReader(torn)) },
		"LoadLenient": func() (*trace.Trace, error) { return trace.LoadLenient(path) },
	} {
		got, err := load()
		if err != nil || !got.Truncated || len(got.Events) == 0 {
			t.Fatalf("%s: err %v, trace %+v; want a truncated trace with the records before the tear", name, err, got)
		}
		if most := len(torn) / 13; cap(got.Events) > most {
			t.Errorf("%s reserved %d events for a %d-byte source that can hold %d", name, cap(got.Events), len(torn), most)
		}
	}
}
