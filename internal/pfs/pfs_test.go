package pfs

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/approx"
	"repro/internal/fabric"
	"repro/internal/sim"
)

// naivePerServer is the obvious O(length/stripe) reference implementation.
func naivePerServer(offset, length, stripe int64, nservers, first int) []int64 {
	out := make([]int64, nservers)
	for b := offset; b < offset+length; {
		unit := b / stripe
		srv := int((unit + int64(first)) % int64(nservers))
		end := (unit + 1) * stripe
		if end > offset+length {
			end = offset + length
		}
		out[srv] += end - b
		b = end
	}
	return out
}

func TestPerServerBytesSimple(t *testing.T) {
	// 4 full stripes of 10 over 2 servers.
	got := PerServerBytes(0, 40, 10, 2, 0)
	if got[0] != 20 || got[1] != 20 {
		t.Fatalf("got %v, want [20 20]", got)
	}
}

func TestPerServerBytesPartial(t *testing.T) {
	// Offset mid-stripe.
	got := PerServerBytes(5, 10, 10, 2, 0)
	// [5,10) on srv0 = 5 bytes; [10,15) on srv1 = 5 bytes.
	if got[0] != 5 || got[1] != 5 {
		t.Fatalf("got %v, want [5 5]", got)
	}
}

func TestPerServerBytesSingleUnit(t *testing.T) {
	got := PerServerBytes(3, 4, 10, 3, 1)
	// Unit 0 -> server (0+1)%3 = 1.
	if got[0] != 0 || got[1] != 4 || got[2] != 0 {
		t.Fatalf("got %v, want [0 4 0]", got)
	}
}

func TestPerServerBytesZeroLength(t *testing.T) {
	got := PerServerBytes(100, 0, 10, 4, 0)
	for _, b := range got {
		if b != 0 {
			t.Fatalf("got %v, want zeros", got)
		}
	}
}

// Property: the fast decomposition matches the naive one and conserves
// bytes.
func TestPropertyStripingMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		stripe := int64(1 + rng.Intn(1<<16))
		nservers := 1 + rng.Intn(40)
		first := rng.Intn(nservers)
		offset := int64(rng.Intn(1 << 20))
		length := int64(rng.Intn(1 << 22))
		got := PerServerBytes(offset, length, stripe, nservers, first)
		want := naivePerServer(offset, length, stripe, nservers, first)
		var sum int64
		for i := range got {
			if got[i] != want[i] {
				t.Logf("seed %d: server %d got %d want %d", seed, i, got[i], want[i])
				return false
			}
			sum += got[i]
		}
		return sum == length
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: striping balance — any extent spanning many stripes is spread
// within one stripe unit of even across servers.
func TestPropertyStripingBalance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		stripe := int64(1 + rng.Intn(1<<12))
		nservers := 1 + rng.Intn(16)
		length := stripe * int64(nservers) * int64(2+rng.Intn(10))
		got := PerServerBytes(int64(rng.Intn(1<<16)), length, stripe, nservers, rng.Intn(nservers))
		min, max := got[0], got[0]
		for _, b := range got {
			if b < min {
				min = b
			}
			if b > max {
				max = b
			}
		}
		return max-min <= 2*stripe
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func defaultCfg() Config {
	return Config{Servers: 4, StripeBytes: 64 << 10, ServerBW: 100 << 20}
}

func TestWriteAlone(t *testing.T) {
	eng := sim.NewEngine()
	fs := New(eng, defaultCfg())
	f := fs.Create("a")
	var elapsed float64
	eng.Go("w", func(p *sim.Proc) {
		elapsed = f.Write(p, Request{App: "a", Length: 400 << 20, Weight: 4})
	})
	eng.Run()
	// 400 MiB over 4 servers at 100 MiB/s each -> 1 second.
	if !approx.Equal(elapsed, 1.0, 1e-6) {
		t.Fatalf("elapsed = %v, want 1.0", elapsed)
	}
}

func TestWriteInjectionCap(t *testing.T) {
	eng := sim.NewEngine()
	fs := New(eng, defaultCfg())
	f := fs.Create("a")
	var elapsed float64
	eng.Go("w", func(p *sim.Proc) {
		// Injection-limited to 100 MiB/s total: 4x slower than the FS.
		elapsed = f.Write(p, Request{App: "a", Length: 400 << 20, Weight: 4, RateCap: 100 << 20})
	})
	eng.Run()
	if !approx.Equal(elapsed, 4.0, 1e-6) {
		t.Fatalf("elapsed = %v, want 4.0 (injection limited)", elapsed)
	}
}

func TestTwoWritersShare(t *testing.T) {
	eng := sim.NewEngine()
	fs := New(eng, defaultCfg())
	fa, fb := fs.Create("a"), fs.Create("b")
	var ta, tb float64
	eng.Go("a", func(p *sim.Proc) {
		ta = fa.Write(p, Request{App: "a", Length: 400 << 20, Weight: 4})
	})
	eng.Go("b", func(p *sim.Proc) {
		tb = fb.Write(p, Request{App: "b", Length: 400 << 20, Weight: 4})
	})
	eng.Run()
	// Equal weights: both take 2x the alone time.
	if !approx.Equal(ta, 2.0, 1e-6) || !approx.Equal(tb, 2.0, 1e-6) {
		t.Fatalf("ta=%v tb=%v, want 2.0 both", ta, tb)
	}
}

func TestWeightProportionalCrush(t *testing.T) {
	// A big app (weight 42) against a small one (weight 1): the small app
	// suffers a large interference factor — the Fig. 4/6 mechanism.
	eng := sim.NewEngine()
	fs := New(eng, defaultCfg())
	fa, fb := fs.Create("a"), fs.Create("b")
	var ta, tb float64
	eng.Go("a", func(p *sim.Proc) {
		ta = fa.Write(p, Request{App: "a", Length: 420 << 20, Weight: 42})
	})
	eng.Go("b", func(p *sim.Proc) {
		tb = fb.Write(p, Request{App: "b", Length: 10 << 20, Weight: 1})
	})
	eng.Run()
	if tb < ta/3 {
		t.Fatalf("small app finished too fast: ta=%v tb=%v", ta, tb)
	}
	// Small app alone would need 10/400 s = 0.025s; in contention its share
	// is 400*(1/43) MiB/s -> ~1.07s.
	if !approx.Equal(tb, 10.0/(400.0/43.0), 1e-3) {
		t.Fatalf("tb = %v, want ~1.075", tb)
	}
}

func TestFIFOServersServeOneAtATime(t *testing.T) {
	cfg := defaultCfg()
	cfg.Policy = FIFO
	eng := sim.NewEngine()
	fs := New(eng, cfg)
	fa, fb := fs.Create("a"), fs.Create("b")
	var ta, tb float64
	eng.Go("a", func(p *sim.Proc) {
		ta = fa.Write(p, Request{App: "a", Length: 400 << 20, Weight: 4})
	})
	eng.Go("b", func(p *sim.Proc) {
		p.Sleep(1e-6) // arrive strictly second
		tb = fb.Write(p, Request{App: "b", Length: 400 << 20, Weight: 4})
	})
	eng.Run()
	// A runs alone (~1s), B queues behind it on every server (~2s total).
	if !approx.Equal(ta, 1.0, 1e-3) {
		t.Fatalf("ta = %v, want ~1.0 under FIFO", ta)
	}
	if !approx.Equal(tb, 2.0, 1e-3) {
		t.Fatalf("tb = %v, want ~2.0 under FIFO", tb)
	}
}

func TestExclusiveServesAppAtATime(t *testing.T) {
	cfg := defaultCfg()
	cfg.Policy = Exclusive
	eng := sim.NewEngine()
	fs := New(eng, cfg)
	fa, fb := fs.Create("a"), fs.Create("b")
	done := make(map[string]float64)
	eng.Go("a", func(p *sim.Proc) {
		fa.Write(p, Request{App: "a", Length: 200 << 20, Weight: 2})
		done["a"] = p.Now()
	})
	eng.Go("b", func(p *sim.Proc) {
		p.Sleep(1e-6)
		fb.Write(p, Request{App: "b", Length: 200 << 20, Weight: 2})
		done["b"] = p.Now()
	})
	eng.Run()
	if done["a"] >= done["b"] {
		t.Fatalf("app a should finish first: %v", done)
	}
	if !approx.Equal(done["a"], 0.5, 1e-3) || !approx.Equal(done["b"], 1.0, 1e-3) {
		t.Fatalf("done = %v, want a~0.5 b~1.0", done)
	}
}

func TestCreateRotatesFirstServer(t *testing.T) {
	eng := sim.NewEngine()
	fs := New(eng, defaultCfg())
	seen := map[int]bool{}
	for i := 0; i < 4; i++ {
		f := fs.Create("f")
		seen[f.first] = true
	}
	if len(seen) != 4 {
		t.Fatalf("first servers not rotated: %v", seen)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Servers: 0, StripeBytes: 1, ServerBW: 1},
		{Servers: 1, StripeBytes: 0, ServerBW: 1},
		{Servers: 1, StripeBytes: 1, ServerBW: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	if err := defaultCfg().Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestAggregateBW(t *testing.T) {
	eng := sim.NewEngine()
	fs := New(eng, defaultCfg())
	if got := fs.AggregateBW(); !approx.Equal(got, 4*100<<20, 1e-12) {
		t.Fatalf("aggregate = %v", got)
	}
}

func TestSchedPolicyString(t *testing.T) {
	if Share.String() != "share" || FIFO.String() != "fifo" || Exclusive.String() != "exclusive" {
		t.Fatal("unexpected policy names")
	}
}

func TestFabricModeWrite(t *testing.T) {
	eng := sim.NewEngine()
	fb := fabric.New(eng)
	cfg := defaultCfg()
	cfg.Fabric = fb
	fs := New(eng, cfg)
	nicA := fb.NewLink("nicA", 100<<20) // A is NIC-bound: 100 MiB/s
	f := fs.Create("a")
	var elapsed float64
	eng.Go("w", func(p *sim.Proc) {
		elapsed = f.Write(p, Request{App: "a", Length: 400 << 20, Weight: 4, ClientLink: nicA})
	})
	eng.Run()
	if !approx.Equal(elapsed, 4.0, 1e-6) {
		t.Fatalf("elapsed = %v, want 4.0 (NIC bound)", elapsed)
	}
}

func TestFabricModeGlobalMaxMin(t *testing.T) {
	// Big app (fast NIC) and small app (slow NIC) share the servers: the
	// small app is bounded by its NIC, the big one takes the rest.
	eng := sim.NewEngine()
	fb := fabric.New(eng)
	cfg := defaultCfg() // 4 servers x 100 MiB/s
	cfg.Fabric = fb
	fs := New(eng, cfg)
	nicBig := fb.NewLink("nicBig", 1<<40)
	nicSmall := fb.NewLink("nicSmall", 40<<20)
	fbig, fsmall := fs.Create("big"), fs.Create("small")
	var tBig, tSmall float64
	eng.Go("big", func(p *sim.Proc) {
		tBig = fbig.Write(p, Request{App: "big", Length: 720 << 20, Weight: 42, ClientLink: nicBig})
	})
	eng.Go("small", func(p *sim.Proc) {
		tSmall = fsmall.Write(p, Request{App: "small", Length: 40 << 20, Weight: 1, ClientLink: nicSmall})
	})
	eng.Run()
	// Small app alone is NIC-bound: 40 MiB at 40 MiB/s = 1 s. Under
	// contention its per-server share is 100*(1/43) ≈ 2.3 MiB/s until the
	// big app finishes (~1.84 s), then it speeds back up: ~2.4 s total.
	if tSmall < 2 {
		t.Fatalf("small app finished too fast under contention: %v (want > 2x alone)", tSmall)
	}
	if !approx.Equal(tBig, 720.0/(400.0*42.0/43.0), 1e-3) {
		t.Fatalf("big app time %v, want ~1.84", tBig)
	}
	if tBig > tSmall {
		t.Fatalf("big app %v should finish before small %v", tBig, tSmall)
	}
}

func TestFabricWithCacheRejected(t *testing.T) {
	eng := sim.NewEngine()
	cfg := defaultCfg()
	cfg.Fabric = fabric.New(eng)
	cfg.CacheBW = 2 * cfg.ServerBW
	cfg.CacheBytes = 1 << 20
	if err := cfg.Validate(); err == nil {
		t.Fatal("fabric+cache should be rejected")
	}
}

func TestReadAlone(t *testing.T) {
	eng := sim.NewEngine()
	fs := New(eng, defaultCfg())
	f := fs.Create("a")
	var elapsed float64
	eng.Go("r", func(p *sim.Proc) {
		elapsed = f.Read(p, Request{App: "a", Length: 400 << 20, Weight: 4})
	})
	eng.Run()
	if !approx.Equal(elapsed, 1.0, 1e-6) {
		t.Fatalf("read elapsed = %v, want 1.0", elapsed)
	}
}

func TestReaderInterferesWithWriter(t *testing.T) {
	eng := sim.NewEngine()
	fs := New(eng, defaultCfg())
	fa, fb := fs.Create("a"), fs.Create("b")
	var tw, tr float64
	eng.Go("w", func(p *sim.Proc) {
		tw = fa.Write(p, Request{App: "w", Length: 400 << 20, Weight: 4})
	})
	eng.Go("r", func(p *sim.Proc) {
		tr = fb.Read(p, Request{App: "r", Length: 400 << 20, Weight: 4})
	})
	eng.Run()
	// Disk heads and NICs are shared across directions: both take 2x.
	if !approx.Equal(tw, 2.0, 1e-6) || !approx.Equal(tr, 2.0, 1e-6) {
		t.Fatalf("tw=%v tr=%v, want 2.0 both", tw, tr)
	}
}
