package replay

import (
	"bytes"
	"testing"

	"repro/internal/replay/replaytest"
	"repro/internal/trace"
)

// BenchmarkCompile is the serial front of every replay call after the read:
// splitting the benchmark trace into per-target streams. The trace is
// encoded and read back first, so its Prepares arrive as a reader hands them
// over, already parsed.
func BenchmarkCompile(b *testing.B) {
	mem := replaytest.Trace(64, 4, 20)
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, mem.Header, len(mem.Events))
	if err != nil {
		b.Fatal(err)
	}
	for _, ev := range mem.Events {
		w.Record(ev)
	}
	if err := w.Close(); err != nil || w.Dropped() != 0 {
		b.Fatalf("encode: %v, %d events dropped", err, w.Dropped())
	}
	tr, err := trace.Read(&buf)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if streams := compile(tr); len(streams) != 4 {
			b.Fatalf("compiled %d streams, want 4", len(streams))
		}
	}
}
