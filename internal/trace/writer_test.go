package trace

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"
)

// syncBuffer is a bytes.Buffer the test may read while the drain goroutine
// writes to it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// Bytes returns a copy of what was written so far.
func (b *syncBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return bytes.Clone(b.buf.Bytes())
}

// checkPerSource fails unless every source's events (SID g+1, Time its own
// sequence number) come back in the order that source recorded them.
func checkPerSource(t *testing.T, evs []Event) {
	t.Helper()
	last := map[uint32]float64{}
	for i, ev := range evs {
		if prev, ok := last[ev.SID]; ok && ev.Time <= prev {
			t.Fatalf("event %d: sid %d time %v follows %v: a source's order was lost", i, ev.SID, ev.Time, prev)
		}
		last[ev.SID] = ev.Time
	}
}

// TestWriterConcurrentRecord: eight goroutines record tagged events while
// the drain goroutine runs. Every event is accounted for (in the file or
// dropped), each goroutine's events read back in its own order, and the
// trailer carries the writer's counts.
func TestWriterConcurrentRecord(t *testing.T) {
	var buf syncBuffer
	w, err := NewWriterOptions(&buf, Header{Policy: "fcfs"}, Options{Buffer: 1024, SyncEvery: 1000})
	if err != nil {
		t.Fatal(err)
	}
	const workers, each = 8, 3000
	var wg sync.WaitGroup
	for g := range workers {
		app := fmt.Sprintf("app-%d", g)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range each {
				w.Record(Event{Type: EvRegister, Time: float64(i), SID: uint32(g + 1), App: app, Cores: int32(g), Target: "ssd0"})
			}
		}()
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rec, drop := w.Recorded(), w.Dropped()
	if rec+drop != workers*each {
		t.Fatalf("recorded %d + dropped %d, want %d", rec, drop, workers*each)
	}
	// Read holds the trailer's event count to the records it read.
	tr, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(tr.Events)) != rec || tr.Dropped != drop {
		t.Fatalf("file holds %d events, %d dropped; writer recorded %d, dropped %d", len(tr.Events), tr.Dropped, rec, drop)
	}
	for _, ev := range tr.Events {
		if want := fmt.Sprintf("app-%d", ev.SID-1); ev.App != want || ev.Cores != int32(ev.SID-1) || ev.Target != "ssd0" {
			t.Fatalf("event %+v does not carry its source's tags", ev)
		}
	}
	checkPerSource(t, tr.Events)
}

// TestSyncTickWritesPartialChunk pins the kill -9 contract under batching:
// a few events, fewer than a chunk, reach the file on the sync tick
// without Close, so a lenient read of what a crash would leave finds them.
func TestSyncTickWritesPartialChunk(t *testing.T) {
	var buf syncBuffer
	w, err := NewWriterOptions(&buf, Header{Policy: "fcfs"}, Options{SyncInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := range 3 {
		w.Record(Event{Type: EvCheck, Time: float64(i), SID: 1})
	}
	for deadline := time.Now().Add(2 * time.Second); ; {
		tr, err := ReadLenient(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.Events) == 3 {
			if !tr.Truncated {
				t.Fatal("a writer that is still open left a trailer")
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after 2s without Close the file holds %d of 3 events", len(tr.Events))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRecordRacingClose runs Record on several goroutines across Close:
// nothing panics, every event handed over is either in the file or counted
// as dropped, events handed over after Close are all dropped, and the
// trailer is the last record.
func TestRecordRacingClose(t *testing.T) {
	var buf syncBuffer
	w, err := NewWriterOptions(&buf, Header{Policy: "fcfs"}, Options{Buffer: 64, SyncEvery: 16})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	handed := make([]uint64, workers)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				w.Record(Event{Type: EvCheck, Time: float64(i), SID: uint32(g + 1)})
				handed[g]++
			}
		}()
	}
	for w.Recorded() < 256 {
		runtime.Gosched()
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recorded, handedAtClose := w.Recorded(), w.Recorded()+w.Dropped()
	for w.Recorded()+w.Dropped() < handedAtClose+256 {
		runtime.Gosched() // the recorders keep going after Close
	}
	close(stop)
	wg.Wait()

	var total uint64
	for _, n := range handed {
		total += n
	}
	rec, drop := w.Recorded(), w.Dropped()
	if rec != recorded {
		t.Fatalf("%d events accepted after Close returned", rec-recorded)
	}
	if rec+drop != total {
		t.Fatalf("recorded %d + dropped %d, want the %d handed over", rec, drop, total)
	}
	data := buf.Bytes()
	tr, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(tr.Events)) != rec {
		t.Fatalf("file holds %d events, writer recorded %d", len(tr.Events), rec)
	}
	if tr.Dropped >= drop {
		t.Fatalf("trailer dropped=%d, writer %d: the events handed over after Close were not counted", tr.Dropped, drop)
	}
	if len(data) < 25 || Type(data[len(data)-25]) != evTrailer {
		t.Fatal("the file does not end with the trailer")
	}
	checkPerSource(t, tr.Events)
}

// TestRecordSteadyStateDoesNotAllocate: sixteen chunks and more recorded
// with the drain goroutine running allocate nothing, because the drain hands
// each emptied chunk back through the free list for the next to reuse.
func TestRecordSteadyStateDoesNotAllocate(t *testing.T) {
	w, err := NewWriter(io.Discard, Header{Policy: "fcfs"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ev := Event{Type: EvRegister, Time: 1, SID: 3, App: "app", Cores: 4, Target: "ssd0"}
	// fill records one chunk and waits until the drain goroutine has
	// encoded it and handed it back.
	fill := func() {
		for range w.chunk {
			w.Record(ev)
		}
		for deadline := time.Now().Add(5 * time.Second); ; runtime.Gosched() {
			w.mu.Lock()
			back := len(w.full) == 0 && len(w.free) > 0
			w.mu.Unlock()
			if back {
				return
			}
			if time.Now().After(deadline) {
				t.Fatal("the drain goroutine never handed the chunk back")
			}
		}
	}
	fill() // the first chunk, and the drain's encoding scratch
	if allocs := testing.AllocsPerRun(16, fill); allocs != 0 {
		t.Fatalf("recording a chunk allocates %.1f times once chunks recycle, want 0", allocs)
	}
	if w.Dropped() != 0 {
		t.Fatalf("%d events dropped", w.Dropped())
	}
}
