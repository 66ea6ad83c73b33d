package disk

import (
	"testing"

	"repro/internal/approx"
	"repro/internal/sim"
)

func TestPlainDiskNoCache(t *testing.T) {
	e := sim.NewEngine()
	s := New(e, "d", Params{DiskBW: 100})
	var done float64
	s.Resource().Submit("w", 1000, 1, 0, func() { done = e.Now() })
	e.Run()
	if !approx.Equal(done, 10, 1e-9) {
		t.Fatalf("done = %v, want 10", done)
	}
}

func TestCacheAbsorbsSmallBurst(t *testing.T) {
	e := sim.NewEngine()
	// Cache 10x faster than disk, big enough for the whole burst.
	s := New(e, "d", Params{DiskBW: 100, CacheBW: 1000, CacheBytes: 5000})
	var done float64
	s.Resource().Submit("w", 1000, 1, 0, func() { done = e.Now() })
	e.Run()
	// Fully absorbed at cache speed: 1s. (Dirty grows at 900/s -> 900 < 5000.)
	if !approx.Equal(done, 1, 1e-9) {
		t.Fatalf("done = %v, want 1 (cache speed)", done)
	}
}

func TestCacheOverflowFallsToDiskSpeed(t *testing.T) {
	e := sim.NewEngine()
	s := New(e, "d", Params{DiskBW: 100, CacheBW: 1000, CacheBytes: 900})
	var done float64
	s.Resource().Submit("w", 10000, 1, 0, func() { done = e.Now() })
	e.Run()
	// Cache fills at net 900/s -> full at t=1 (1000 ingested). Remaining
	// 9000 at disk speed 100 -> 90s more: t=91.
	if !approx.Equal(done, 91, 1e-6) {
		t.Fatalf("done = %v, want 91", done)
	}
}

func TestCacheDrainsBetweenBursts(t *testing.T) {
	e := sim.NewEngine()
	s := New(e, "d", Params{DiskBW: 100, CacheBW: 1000, CacheBytes: 1000})
	var t1, t2 float64
	s.Resource().Submit("w1", 900, 1, 0, func() { t1 = e.Now() })
	// Second burst 20s later: cache has fully drained (dirty 810 at t=0.9,
	// drains in 8.1s), so it is absorbed at cache speed again.
	e.At(20, func() {
		s.Resource().Submit("w2", 900, 1, 0, func() { t2 = e.Now() })
	})
	e.Run()
	if !approx.Equal(t1, 0.9, 1e-9) {
		t.Fatalf("t1 = %v, want 0.9", t1)
	}
	if !approx.Equal(t2, 20.9, 1e-9) {
		t.Fatalf("t2 = %v, want 20.9 (cache drained)", t2)
	}
}

func TestOverlappingBurstsOverflow(t *testing.T) {
	e := sim.NewEngine()
	s := New(e, "d", Params{DiskBW: 100, CacheBW: 1000, CacheBytes: 1000})
	var t1, t2 float64
	// Two writers at once: combined burst 1800 > cache 1000 + drained bytes.
	s.Resource().Submit("w1", 900, 1, 0, func() { t1 = e.Now() })
	s.Resource().Submit("w2", 900, 1, 0, func() { t2 = e.Now() })
	e.Run()
	// Ingest 1000/s, net fill 900/s -> full at t=1000/900=1.111s with
	// 1111 ingested. Remaining 689 at 100/s -> t = 1.111 + 6.89 = 8.0s.
	if !approx.Equal(t2, 8.0, 1e-3) {
		t.Fatalf("t2 = %v, want ~8.0 (overflow to disk speed)", t2)
	}
	if t1 > t2 {
		t.Fatalf("t1 %v should be <= t2 %v", t1, t2)
	}
	// Both finish far later than a lone 900-byte burst (0.9s): this is the
	// Fig. 3 throughput collapse.
	if t1 < 2 {
		t.Fatalf("t1 = %v; expected cache collapse > 2s", t1)
	}
}

func TestDirtyQuery(t *testing.T) {
	e := sim.NewEngine()
	s := New(e, "d", Params{DiskBW: 100, CacheBW: 1000, CacheBytes: 5000})
	s.Resource().Submit("w", 1000, 1, 0, nil)
	e.At(0.5, func() {
		// Ingested 500, drained 50 -> dirty 450.
		if got := s.Dirty(); !approx.Equal(got, 450, 1e-6) {
			t.Errorf("dirty = %v, want 450", got)
		}
	})
	e.Run()
	// After long idle the cache is clean.
	if got := s.Dirty(); got != 0 {
		// Drain continues after ingest ends; run the clock forward.
		e.RunUntil(e.Now() + 100)
		if got = s.Dirty(); got != 0 {
			t.Fatalf("dirty after drain = %v, want 0", got)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	e := sim.NewEngine()
	cases := []Params{
		{DiskBW: 0},
		{DiskBW: 100, CacheBW: 1000},               // cache bw without size
		{DiskBW: 100, CacheBytes: 10},              // size without bw
		{DiskBW: 100, CacheBW: 50, CacheBytes: 10}, // cache slower than disk
	}
	for i, p := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			New(e, "d", p)
		}()
	}
}
