package pfs

import (
	"math"
	"slices"
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// fabricPair runs two applications' striped writes against a 4-server file
// system in fabric mode — A's nine back to back, B's two from t=0.1, NICs
// and weights chosen so no rate is a round number — and returns the virtual
// time at which each Write returned, A's then B's.
func fabricPair(policy SchedPolicy) []float64 {
	eng := sim.NewEngine()
	fb := fabric.New(eng)
	cfg := defaultCfg()
	cfg.Policy = policy
	cfg.Fabric = fb
	fs := New(eng, cfg)
	nicA := fb.NewLink("nicA", 333<<20)
	nicB := fb.NewLink("nicB", 97<<20)
	fa, fbFile := fs.Create("a"), fs.Create("b")
	var a, b []float64
	eng.Go("A", func(p *sim.Proc) {
		for i := int64(0); i < 9; i++ {
			fa.Write(p, Request{App: "A", Offset: i * 37 << 20, Length: 37 << 20, Weight: 7, ClientLink: nicA})
			a = append(a, p.Now())
		}
	})
	eng.GoAt(0.1, "B", func(p *sim.Proc) {
		for i := int64(0); i < 2; i++ {
			fbFile.Write(p, Request{App: "B", Offset: i * 53 << 20, Length: 53 << 20, Weight: 3, ClientLink: nicB})
			b = append(b, p.Now())
		}
	})
	eng.Run()
	return append(a, b...)
}

// TestFabricModeFinishTimesUnchanged pins every finish time of fabricPair to
// the bits the code printed before transfer bracketed its submit loop with
// fabric.Hold/Release: one fill per request must not move a single float.
func TestFabricModeFinishTimesUnchanged(t *testing.T) {
	// FIFO and Exclusive agree: each application has one request per server
	// at a time, so admitting an application's queue is admitting its head.
	serial := []uint64{
		0x3fbc71c71c71c71c, 0x3fe8987c55a06738, 0x3ff6d15fe3d94ac6, 0x3ff8987c55a06738,
		0x3ffa5f98c76783aa, 0x3ffc26b5392ea01c, 0x3ffdedd1aaf5bc8e, 0x3fffb4ee1cbcd900,
		0x4000be054741fab9, 0x3fe50a4372122e54, 0x3ff50a4372122e54,
	}
	want := map[SchedPolicy][]uint64{
		Share: {
			0x3fbcb9dfe4f6b4ce, 0x3fcdfe4f6b4ce26e, 0x3fd6cfd7720f353a, 0x3fdea0872e77f93e,
			0x3fe3389b75705ea1, 0x3fe720f353a4c0a3, 0x3feb094b31d922a5, 0x3feef1a3100d84a7,
			0x3ff16cfd7720f354, 0x3fe4af3dc1b728a5, 0x3ff315a4281d8f0b,
		},
		FIFO:      serial,
		Exclusive: serial,
	}
	for policy, bits := range want {
		got := fabricPair(policy)
		gotBits := make([]uint64, len(got))
		for i, v := range got {
			gotBits[i] = math.Float64bits(v)
		}
		if !slices.Equal(gotBits, bits) {
			t.Errorf("%v: finish times %#x (%v), want %#x", policy, gotBits, got, bits)
		}
	}
}

// TestStripedWriteFillsOnce counts the fabric's fills around one striped
// write that touches all four servers: one when it is submitted, however
// many flows that starts.
func TestStripedWriteFillsOnce(t *testing.T) {
	for _, policy := range []SchedPolicy{Share, FIFO, Exclusive} {
		eng := sim.NewEngine()
		fills := 0
		eng.SetTracer(sim.TracerFunc(func(_ float64, format string, _ ...any) {
			if format == "fabric: fill flows=%d" {
				fills++
			}
		}))
		fb := fabric.New(eng)
		cfg := defaultCfg()
		cfg.Policy = policy
		cfg.Fabric = fb
		fs := New(eng, cfg)
		nic := fb.NewLink("nic", 100<<20)
		f := fs.Create("a")
		submitted := -1
		eng.Go("w", func(p *sim.Proc) {
			// Every flow completes at once (equal shares of one NIC), so
			// the write parks exactly once, after its submit loop.
			eng.Post(func() { submitted = fills })
			f.Write(p, Request{App: "a", Length: 400 << 20, Weight: 4, ClientLink: nic})
		})
		eng.Run()
		if submitted != 1 {
			t.Errorf("%v: %d fills at submit of a 4-server write, want 1", policy, submitted)
		}
	}
}
