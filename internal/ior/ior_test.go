package ior

import (
	"testing"

	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/sim"
)

const miB = int64(1) << 20

func newPlatform() *mpi.Platform {
	eng := sim.NewEngine()
	fs := pfs.New(eng, pfs.Config{Servers: 4, StripeBytes: miB, ServerBW: 256 * float64(miB)})
	return &mpi.Platform{
		Eng: eng, FS: fs,
		ProcNIC:       4 * float64(miB),
		CommBWPerProc: 2 * float64(miB),
		CommAlpha:     1e-6,
	}
}

func TestWorkloadDerivedQuantities(t *testing.T) {
	w := Workload{Pattern: Contiguous, BlockSize: 4 * miB, BlocksPerProc: 2}
	if w.BytesPerProc() != 8*miB {
		t.Fatalf("bytes/proc = %d", w.BytesPerProc())
	}
	if w.FileBytes(10) != 80*miB {
		t.Fatalf("file bytes = %d", w.FileBytes(10))
	}
	w.Files = 3
	if w.PhaseBytes(10) != 240*miB {
		t.Fatalf("phase bytes = %d", w.PhaseBytes(10))
	}
}

func TestContiguousRounds(t *testing.T) {
	pl := newPlatform()
	app := pl.NewApp("a", 16, 4)
	w := Workload{Pattern: Contiguous, BlockSize: 16 * miB, BlocksPerProc: 1, ReqBytes: 4 * miB}
	if got := w.Rounds(app); got != 4 {
		t.Fatalf("rounds = %d, want 4", got)
	}
	// Default request size: whole block run in one round.
	w2 := Workload{Pattern: Contiguous, BlockSize: 16 * miB, BlocksPerProc: 1}
	if got := w2.Rounds(app); got != 1 {
		t.Fatalf("default rounds = %d, want 1", got)
	}
}

func TestStridedRoundsUseAggregators(t *testing.T) {
	pl := newPlatform()
	app := pl.NewApp("a", 16, 4)
	w := Workload{
		Pattern: Strided, BlockSize: 2 * miB, BlocksPerProc: 8,
		CB: CollectiveBuffering{BufBytes: 16 * miB},
	}
	// File bytes = 16 procs * 16 MiB = 256 MiB; round = 4 aggs * 16 MiB.
	if got := w.Rounds(app); got != 4 {
		t.Fatalf("rounds = %d, want 4", got)
	}
	// Aggregator count never exceeds procs.
	app2 := pl.NewApp("b", 2, 4)
	if got := w.Rounds(app2); got <= 0 {
		t.Fatalf("rounds = %d", got)
	}
}

func TestRunContiguousAloneTiming(t *testing.T) {
	pl := newPlatform()
	app := pl.NewApp("a", 16, 4)
	// 16 procs x 16 MiB = 256 MiB; injection 64 MiB/s binds vs FS 1 GiB/s.
	w := Workload{Pattern: Contiguous, BlockSize: 16 * miB, BlocksPerProc: 1, ReqBytes: 4 * miB}
	r := NewRunner(app, w, nil, PerRound)
	r.Start(0)
	pl.Eng.Run()
	if len(r.Stats.Phases) != 1 {
		t.Fatalf("phases = %d", len(r.Stats.Phases))
	}
	want := 256.0 / 64.0
	if got := r.Stats.TotalIOTime(); !approx.Equal(got, want, 1e-6) {
		t.Fatalf("io time = %v, want %v", got, want)
	}
	if got := r.Stats.TotalBytes(); got != 256*miB {
		t.Fatalf("bytes = %d", got)
	}
	ph := r.Stats.Phases[0]
	if ph.CommTime != 0 {
		t.Fatalf("contiguous should have no comm time, got %v", ph.CommTime)
	}
	if !approx.Equal(ph.WriteTime, want, 1e-6) {
		t.Fatalf("write time = %v", ph.WriteTime)
	}
	if !approx.Equal(ph.Throughput(), 64*float64(miB), 1e-6) {
		t.Fatalf("throughput = %v", ph.Throughput())
	}
}

func TestRunStridedHasCommPhases(t *testing.T) {
	pl := newPlatform()
	app := pl.NewApp("a", 16, 4)
	w := Workload{
		Pattern: Strided, BlockSize: 2 * miB, BlocksPerProc: 8,
		CB: CollectiveBuffering{BufBytes: 16 * miB},
	}
	r := NewRunner(app, w, nil, PerRound)
	r.Start(0)
	pl.Eng.Run()
	ph := r.Stats.Phases[0]
	if ph.CommTime <= 0 {
		t.Fatal("strided pattern should include comm time")
	}
	if ph.WriteTime <= 0 {
		t.Fatal("no write time recorded")
	}
	if !approx.Equal(ph.IOTime(), ph.CommTime+ph.WriteTime, 1e-6) {
		t.Fatalf("phase %v != comm %v + write %v", ph.IOTime(), ph.CommTime, ph.WriteTime)
	}
}

func TestMultiplePhasesWithComputeTime(t *testing.T) {
	pl := newPlatform()
	app := pl.NewApp("a", 4, 4)
	w := Workload{
		Pattern: Contiguous, BlockSize: 4 * miB, BlocksPerProc: 1,
		Phases: 3, ComputeTime: 5,
	}
	r := NewRunner(app, w, nil, PerPhase)
	r.Start(0)
	pl.Eng.Run()
	if len(r.Stats.Phases) != 3 {
		t.Fatalf("phases = %d", len(r.Stats.Phases))
	}
	// Phase k starts >= 5s after phase k-1 ended.
	for i := 1; i < 3; i++ {
		gap := r.Stats.Phases[i].Start - r.Stats.Phases[i-1].End
		if !approx.Equal(gap, 5, 1e-9) {
			t.Fatalf("gap %d = %v, want 5", i, gap)
		}
	}
}

func TestMultipleFiles(t *testing.T) {
	pl := newPlatform()
	app := pl.NewApp("a", 4, 4)
	w := Workload{Pattern: Contiguous, BlockSize: 4 * miB, BlocksPerProc: 1, Files: 4}
	r := NewRunner(app, w, nil, PerFile)
	r.Start(0)
	pl.Eng.Run()
	if got := r.Stats.TotalBytes(); got != 4*4*4*miB {
		t.Fatalf("bytes = %d", got)
	}
}

func TestTwoRunnersInterfere(t *testing.T) {
	pl := newPlatform()
	// Two equal apps big enough to saturate the FS aggregate (1 GiB/s).
	a := pl.NewApp("a", 512, 128)
	b := pl.NewApp("b", 512, 128)
	w := Workload{Pattern: Contiguous, BlockSize: 4 * miB, BlocksPerProc: 1, ReqBytes: miB}
	ra := NewRunner(a, w, nil, PerRound)
	rb := NewRunner(b, w, nil, PerRound)
	ra.Start(0)
	rb.Start(0)
	pl.Eng.Run()
	ta, tb := ra.Stats.TotalIOTime(), rb.Stats.TotalIOTime()
	solo := 512.0 * 4.0 / 1024.0 // 2 GiB at 1 GiB/s
	if ta < 1.8*solo || tb < 1.8*solo {
		t.Fatalf("interference too weak: ta=%v tb=%v solo=%v", ta, tb, solo)
	}
}

func TestCoordinatedRunReportsProgress(t *testing.T) {
	pl := newPlatform()
	app := pl.NewApp("a", 16, 4)
	layer := core.NewLayer(pl.Eng, core.FCFSPolicy{}, 1e-4)
	sess := core.NewSession(layer.Register("a", 16))
	w := Workload{Pattern: Contiguous, BlockSize: 16 * miB, BlocksPerProc: 1, ReqBytes: 4 * miB}
	r := NewRunner(app, w, sess, PerRound)
	r.Start(0)
	pl.Eng.Run()
	if sess.C.State() != core.Idle {
		t.Fatalf("coordinator state %v after run", sess.C.State())
	}
	if len(layer.Log()) == 0 {
		t.Fatal("no arbitration happened")
	}
}

func TestInfoContents(t *testing.T) {
	pl := newPlatform()
	app := pl.NewApp("a", 16, 4)
	w := Workload{
		Pattern: Strided, BlockSize: 2 * miB, BlocksPerProc: 8, Files: 2,
		CB: CollectiveBuffering{BufBytes: 16 * miB},
	}
	info := Info(app, w)
	if got := info.Float(core.KeyBytesTotal, 0); got != float64(2*16*16*miB) {
		t.Fatalf("bytes_total = %v", got)
	}
	if got := info.Int(core.KeyFiles, 0); got != 2 {
		t.Fatalf("files = %d", got)
	}
	if got := info.Int(core.KeyCores, 0); got != 16 {
		t.Fatalf("cores = %d", got)
	}
	if got := info.Int(core.KeyRounds, 0); got != 8 {
		t.Fatalf("rounds = %d (4 per file x 2 files)", got)
	}
	if info.Float(core.KeyAloneBW, 0) <= 0 {
		t.Fatal("alone_bw missing")
	}
}

func TestGranularityStrings(t *testing.T) {
	if PerPhase.String() != "phase" || PerFile.String() != "file" || PerRound.String() != "round" {
		t.Fatal("granularity names")
	}
	if Contiguous.String() != "contiguous" || Strided.String() != "strided" {
		t.Fatal("pattern names")
	}
}

func TestLastRoundPartial(t *testing.T) {
	pl := newPlatform()
	app := pl.NewApp("a", 4, 4)
	// 4 procs x 10 MiB = 40 MiB; rounds of 4x3=12 MiB -> 3 full + 4 MiB.
	w := Workload{Pattern: Contiguous, BlockSize: 10 * miB, BlocksPerProc: 1, ReqBytes: 3 * miB}
	r := NewRunner(app, w, nil, PerRound)
	r.Start(0)
	pl.Eng.Run()
	if got := r.Stats.TotalBytes(); got != 40*miB {
		t.Fatalf("bytes = %d, want all written", got)
	}
	// Injection 16 MiB/s: exactly 2.5s.
	if got := r.Stats.TotalIOTime(); !approx.Equal(got, 2.5, 1e-6) {
		t.Fatalf("time = %v, want 2.5", got)
	}
}

func TestReadWorkload(t *testing.T) {
	pl := newPlatform()
	app := pl.NewApp("a", 16, 4)
	w := Workload{
		Pattern: Contiguous, BlockSize: 16 * miB, BlocksPerProc: 1,
		ReqBytes: 4 * miB, Access: ReadAccess,
	}
	r := NewRunner(app, w, nil, PerRound)
	r.Start(0)
	pl.Eng.Run()
	// Same contention model as writes: injection-bound at 64 MiB/s.
	if got := r.Stats.TotalIOTime(); !approx.Equal(got, 4.0, 1e-6) {
		t.Fatalf("read io time = %v, want 4.0", got)
	}
	if WriteAccess.String() != "write" || ReadAccess.String() != "read" {
		t.Fatal("access kind names")
	}
}

func TestAdaptiveWorkloadReducesInterference(t *testing.T) {
	// Two identical periodic apps that would collide on every phase; run
	// once with B blind, once with B polling SystemBusy and computing
	// first when the file system is busy.
	run := func(adaptive bool) float64 {
		pl := newPlatform()
		layer := core.NewLayer(pl.Eng, core.InterferePolicy{}, 1e-4)
		mk := func(name string, adapt bool) *Runner {
			app := pl.NewApp(name, 512, 128)
			w := Workload{
				Pattern: Contiguous, BlockSize: 4 * miB, BlocksPerProc: 1,
				Phases: 4, ComputeTime: 6, Adaptive: adapt,
			}
			return NewRunner(app, w, core.NewSession(layer.Register(name, 512)), PerPhase)
		}
		ra := mk("a", false)
		rb := mk("b", adaptive)
		ra.Start(0)
		rb.Start(0.25)
		pl.Eng.Run()
		return rb.Stats.TotalIOTime()
	}
	blind := run(false)
	adaptive := run(true)
	// Solo would be 8s (4 phases x 2 GiB at 1 GiB/s). Adaptation must
	// recover a substantial part of the interference penalty.
	if adaptive >= blind {
		t.Fatalf("adaptive io %v should beat blind %v", adaptive, blind)
	}
	if (blind-adaptive)/(blind-8) < 0.5 {
		t.Fatalf("adaptation recovered too little: blind %v adaptive %v solo 8", blind, adaptive)
	}
}
