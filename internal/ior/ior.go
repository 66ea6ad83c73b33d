// Package ior is the reproduction of the paper's IOR-derived benchmark: a
// configurable synthetic workload with precise control over access pattern
// (contiguous or strided), block counts and sizes, number of files, rounds
// of collective buffering, and the placement of CALCioM coordination calls.
package ior

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/timeline"
)

// PatternKind is the spatial access pattern of each process.
type PatternKind int

const (
	// Contiguous: each process writes one contiguous region; ROMIO skips
	// the shuffle and processes write directly (paper Figs. 2, 7, 10).
	Contiguous PatternKind = iota
	// Strided: processes write interleaved blocks, triggering two-phase
	// collective buffering with communication rounds (paper Figs. 6, 8, 9).
	Strided
)

// String implements fmt.Stringer.
func (k PatternKind) String() string {
	if k == Contiguous {
		return "contiguous"
	}
	return "strided"
}

// Granularity says where the driver places its CALCioM coordination points
// (Inform/Release pairs). Finer granularity lets an application be
// interrupted sooner (paper Fig. 10 contrasts file-level and round-level).
type Granularity int

const (
	// PerPhase: coordinate only at I/O-phase boundaries; once started, a
	// phase cannot be interrupted.
	PerPhase Granularity = iota
	// PerFile: coordination points between files.
	PerFile
	// PerRound: coordination points between every collective-buffering
	// round (or contiguous request) — the custom ADIO-layer integration
	// from the paper.
	PerRound
)

// String implements fmt.Stringer.
func (g Granularity) String() string {
	switch g {
	case PerPhase:
		return "phase"
	case PerFile:
		return "file"
	case PerRound:
		return "round"
	}
	return fmt.Sprintf("Granularity(%d)", int(g))
}

// AccessKind is the direction of the workload's file accesses.
type AccessKind int

const (
	// WriteAccess: the workload writes (the paper's entire evaluation).
	WriteAccess AccessKind = iota
	// ReadAccess: the workload reads back files of the same shape —
	// an extension beyond the paper's write/write study.
	ReadAccess
)

// String implements fmt.Stringer.
func (a AccessKind) String() string {
	if a == ReadAccess {
		return "read"
	}
	return "write"
}

// CollectiveBuffering configures two-phase I/O.
type CollectiveBuffering struct {
	Aggregators int   // 0 = one per node
	BufBytes    int64 // per-aggregator buffer per round (default 16 MiB)
}

// Workload is one application's I/O behaviour.
type Workload struct {
	Pattern       PatternKind
	BlockSize     int64 // bytes per block, per process
	BlocksPerProc int   // blocks per process per file
	Files         int   // files per phase (default 1)
	ReqBytes      int64 // contiguous request granularity per process (default: whole block run)
	CB            CollectiveBuffering
	Phases        int     // I/O phases (default 1)
	ComputeTime   float64 // seconds of computation between phases

	// Adaptive applications poll the coordinator before each I/O phase
	// and, when another application is using the file system, run their
	// next computation block first and come back to the I/O afterwards —
	// the reorganization the paper's §III-C sketches. Requires a Session.
	Adaptive bool

	// Access is the direction of the file accesses (default WriteAccess).
	Access AccessKind
}

func (w Workload) withDefaults() Workload {
	if w.Files <= 0 {
		w.Files = 1
	}
	if w.Phases <= 0 {
		w.Phases = 1
	}
	if w.CB.BufBytes <= 0 {
		w.CB.BufBytes = 16 << 20
	}
	if w.ReqBytes <= 0 {
		w.ReqBytes = w.BytesPerProc()
	}
	return w
}

// BytesPerProc returns bytes written per process per file.
func (w Workload) BytesPerProc() int64 {
	return w.BlockSize * int64(w.BlocksPerProc)
}

// FileBytes returns bytes per file across all processes of the app.
func (w Workload) FileBytes(procs int) int64 {
	return w.BytesPerProc() * int64(procs)
}

// PhaseBytes returns bytes per phase across all files.
func (w Workload) PhaseBytes(procs int) int64 {
	ww := w.withDefaults()
	return ww.FileBytes(procs) * int64(ww.Files)
}

// plan describes the per-file round structure for an app.
type plan struct {
	rounds     int
	roundBytes int64 // bytes per full round (whole app)
	writers    int   // concurrent client streams
	twoPhase   bool  // comm round before each write round
}

func (w Workload) planFor(app *mpi.App) plan {
	ww := w.withDefaults()
	fileBytes := ww.FileBytes(app.Procs)
	if ww.Pattern == Strided {
		aggs := ww.CB.Aggregators
		if aggs <= 0 {
			aggs = app.Nodes
		}
		if aggs > app.Procs {
			aggs = app.Procs
		}
		rb := int64(aggs) * ww.CB.BufBytes
		r := int(ceilDiv(fileBytes, rb))
		return plan{rounds: r, roundBytes: rb, writers: aggs, twoPhase: true}
	}
	rb := int64(app.Procs) * ww.ReqBytes
	r := int(ceilDiv(fileBytes, rb))
	return plan{rounds: r, roundBytes: rb, writers: app.Procs, twoPhase: false}
}

// Rounds returns the number of write rounds per file for the app.
func (w Workload) Rounds(app *mpi.App) int { return w.planFor(app).rounds }

func ceilDiv(a, b int64) int64 {
	if b <= 0 {
		panic("ior: division by non-positive")
	}
	return (a + b - 1) / b
}

// PhaseStat records one I/O phase of a run.
type PhaseStat struct {
	Start     float64
	End       float64
	CommTime  float64 // time in collective-buffering communication
	WriteTime float64 // time in file-system writes
	Bytes     int64
}

// IOTime is the observed I/O phase duration (waits included), the paper's
// "write time".
func (s PhaseStat) IOTime() float64 { return s.End - s.Start }

// Throughput is bytes per second over the observed phase duration.
func (s PhaseStat) Throughput() float64 {
	t := s.IOTime()
	if t <= 0 {
		return 0
	}
	return float64(s.Bytes) / t
}

// Stats aggregates a run.
type Stats struct {
	Phases []PhaseStat
}

// TotalIOTime sums observed phase durations.
func (s *Stats) TotalIOTime() float64 {
	var t float64
	for _, ph := range s.Phases {
		t += ph.IOTime()
	}
	return t
}

// TotalBytes sums bytes written.
func (s *Stats) TotalBytes() int64 {
	var b int64
	for _, ph := range s.Phases {
		b += ph.Bytes
	}
	return b
}

// Runner executes a workload for one application. A Runner is reusable: the
// workload is armed (defaults folded in, round plan and byte counts derived)
// once at construction, and Reset clears only the per-run statistics, keeping
// the armed workload, the cached file names, the parsed Prepare info and the
// stats backing array, so re-running a scenario on a reused platform
// allocates nothing in steady state. W must not be changed after NewRunner.
type Runner struct {
	App     *mpi.App
	W       Workload
	Session *core.Session // nil runs uncoordinated
	Gran    Granularity
	Stats   Stats

	// Timeline, when non-nil, records compute/wait/comm/write intervals
	// for Gantt rendering (see internal/timeline).
	Timeline *timeline.Recorder

	// fileNames caches the formatted file name per (phase, file) index so
	// repeated runs of a reused runner format no strings.
	fileNames []string

	// info is the parsed Prepare info of every phase, built and parsed on
	// first use (hasInfo): it depends only on the armed workload and the
	// application.
	info    core.ParsedInfo
	hasInfo bool

	// What every phase of the armed workload shares, derived once.
	plan       plan
	fileBytes  int64
	phaseBytes int64

	// runFn is r.Run bound once, so starting the runner does not allocate
	// a method-value closure per run.
	runFn func(p *sim.Proc)
}

// NewRunner builds a runner; session may be nil for uncoordinated runs.
func NewRunner(app *mpi.App, w Workload, session *core.Session, gran Granularity) *Runner {
	w = w.withDefaults()
	return &Runner{
		App: app, W: w, Session: session, Gran: gran,
		plan:       w.planFor(app),
		fileBytes:  w.FileBytes(app.Procs),
		phaseBytes: w.PhaseBytes(app.Procs),
	}
}

// Reset clears the per-run statistics (retaining their backing) and drops
// the timeline recorder, preparing the runner for another run on a reset
// platform. The armed workload and session binding are retained — the
// reuse contract: Reset re-arms, it never re-derives.
func (r *Runner) Reset() {
	r.Stats.Phases = r.Stats.Phases[:0]
	r.Timeline = nil
}

// fileName returns the cached name for file f of the given phase.
func (r *Runner) fileName(phase, f int) string {
	if r.fileNames == nil {
		r.fileNames = make([]string, r.W.Phases*r.W.Files)
	}
	idx := phase*r.W.Files + f
	if r.fileNames[idx] == "" {
		r.fileNames[idx] = fmt.Sprintf("%s.p%d.f%d", r.App.Name, phase, f)
	}
	return r.fileNames[idx]
}

// Start launches the workload as a process at absolute time t and returns
// the process.
func (r *Runner) Start(t float64) *sim.Proc {
	if r.runFn == nil {
		r.runFn = r.Run
	}
	return r.App.Plat.Eng.GoAt(t, r.App.Name, r.runFn)
}

// Run executes all phases from process p. The schedule is
// IO(0) C(0) IO(1) C(1) ... IO(n-1); an Adaptive workload may swap an
// IO(k)/C(k) pair when the file system is busy at IO(k)'s start.
func (r *Runner) Run(p *sim.Proc) {
	w := &r.W
	for phase := 0; phase < w.Phases; phase++ {
		computeAfter := phase < w.Phases-1 && w.ComputeTime > 0
		if w.Adaptive && r.Session != nil && computeAfter && r.Session.C.SystemBusy() {
			// Another app is doing I/O: reorganize — compute now, write
			// into the (hopefully) quieter window afterwards.
			r.compute(p, w.ComputeTime)
			computeAfter = false
		}
		r.runPhase(p, phase)
		if computeAfter {
			r.compute(p, w.ComputeTime)
		}
	}
}

func (r *Runner) compute(p *sim.Proc, d float64) {
	t0 := p.Now()
	p.Sleep(d)
	r.record(timeline.Compute, t0, p.Now())
}

// record adds an interval to the optional timeline.
func (r *Runner) record(kind timeline.Kind, start, end float64) {
	if r.Timeline != nil && end > start {
		r.Timeline.Add(r.App.Name, kind, start, end)
	}
}

func (r *Runner) runPhase(p *sim.Proc, phase int) {
	app := r.App
	w := &r.W
	pl := &r.plan

	// The observed I/O time starts when the application *wants* to write:
	// time spent waiting for authorization is part of the phase, exactly as
	// the paper measures the serialized application's write time.
	ps := PhaseStat{Start: p.Now()}
	if r.Session != nil {
		if !r.hasInfo {
			r.info, r.hasInfo = core.ParseInfo(Info(app, *w)), true
		}
		t0 := p.Now()
		r.Session.Begin(p, r.info)
		r.record(timeline.Wait, t0, p.Now())
	}
	var bytesDone int64

	for f := 0; f < w.Files; f++ {
		file := app.Plat.FS.Create(r.fileName(phase, f))
		fileBytes := w.FileBytes(app.Procs)
		var off int64
		for round := 0; round < pl.rounds; round++ {
			rb := pl.roundBytes
			if rem := fileBytes - off; rb > rem {
				rb = rem
			}
			if pl.twoPhase {
				ct := app.AlltoallTime(float64(rb))
				if ct > 0 {
					t0 := p.Now()
					p.Sleep(ct)
					ps.CommTime += ct
					r.record(timeline.Comm, t0, p.Now())
				}
			}
			wStart := p.Now()
			// The app's injection limit caps the write: aggregators relay
			// data gathered from all processes, so the aggregate flow into
			// the file system is bounded by the whole app's NICs, not by
			// the aggregator count. In explicit-fabric mode the NIC link
			// enforces that limit by construction.
			req := pfs.Request{
				App:    app.Name,
				Offset: off,
				Length: rb,
				Weight: float64(pl.writers),
			}
			if nic := app.NIC(); nic != nil {
				req.ClientLink = nic
			} else {
				req.RateCap = app.InjectionBW()
			}
			if w.Access == ReadAccess {
				file.Read(p, req)
				r.record(timeline.Read, wStart, p.Now())
			} else {
				file.Write(p, req)
				r.record(timeline.Write, wStart, p.Now())
			}
			ps.WriteTime += p.Now() - wStart
			off += rb
			bytesDone += rb
			if r.Session != nil {
				r.Session.C.Progress(float64(bytesDone))
				last := f == w.Files-1 && round == pl.rounds-1
				if !last && r.yieldAfterRound(round, pl.rounds) {
					t0 := p.Now()
					r.Session.Yield(p)
					r.record(timeline.Wait, t0, p.Now())
				}
			}
		}
	}

	ps.End = p.Now()
	ps.Bytes = r.phaseBytes
	r.Stats.Phases = append(r.Stats.Phases, ps)
	if r.Session != nil {
		r.Session.End(p)
	}
}

// yieldAfterRound decides whether a coordination point follows this round.
func (r *Runner) yieldAfterRound(round, rounds int) bool {
	switch r.Gran {
	case PerRound:
		return true
	case PerFile:
		return round == rounds-1 // file boundary
	default:
		return false
	}
}

// Info builds the CALCioM Prepare info for a phase of this workload, the
// knowledge the paper says applications should share: bytes, files, rounds,
// cores, and the app's expected solo bandwidth.
func Info(app *mpi.App, w Workload) core.Info {
	w = w.withDefaults()
	pl := w.planFor(app)
	info := core.Info{}
	info.SetFloat(core.KeyBytesTotal, float64(w.PhaseBytes(app.Procs)))
	info.SetInt(core.KeyFiles, int64(w.Files))
	info.SetInt(core.KeyRounds, int64(pl.rounds*w.Files))
	info.SetFloat(core.KeyBytesPerRound, float64(pl.roundBytes))
	info.SetInt(core.KeyCores, int64(app.Procs))
	info.SetFloat(core.KeyAloneBW, app.AloneBW())
	return info
}
