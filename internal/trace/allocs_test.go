package trace_test

import (
	"bytes"
	"testing"

	"repro/internal/replay/replaytest"
	"repro/internal/trace"
)

// TestReadAllocsPerEvent bounds what loading a trace allocates: per Prepare
// its Info map and the value in it, and the growth of the event slice (0.34
// an event on this trace) — nothing per fixed-width field, per target or per
// Prepare key, any of which would add one. It read 3.5 while the decoder's
// locals escaped through io.ReadFull.
func TestReadAllocsPerEvent(t *testing.T) {
	tr := replaytest.Trace(64, 4, 20)
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
	data := buf.Bytes()
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
