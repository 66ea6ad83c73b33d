package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// The tests in this file assert the paper's qualitative claims — the
// "shape" of every figure — on reduced point counts for speed. EXPERIMENTS.md
// records the full-resolution numbers.

var testTrace = TraceConfig{Seed: 20090101, Days: 40}

func colMax(t *Table, col string) float64 {
	m := math.Inf(-1)
	for _, v := range t.Column(col) {
		if v > m {
			m = v
		}
	}
	return m
}

func colMin(t *Table, col string) float64 {
	m := math.Inf(1)
	for _, v := range t.Column(col) {
		if v < m {
			m = v
		}
	}
	return m
}

func TestFig1aHalfJobsSmall(t *testing.T) {
	tbl := Fig1a(testTrace)
	// Paper: ~50% of jobs at <= 2048 cores, in both counts and time.
	var cdf2048, tcdf2048 float64
	cores := tbl.Column("cores")
	cdf := tbl.Column("cdf_pct")
	tcdf := tbl.Column("time_cdf_pct")
	for i, c := range cores {
		if c == 2048 {
			cdf2048, tcdf2048 = cdf[i], tcdf[i]
		}
	}
	if cdf2048 < 40 || cdf2048 > 65 {
		t.Fatalf("CDF at 2048 cores = %.1f%%, want ~50%%", cdf2048)
	}
	if tcdf2048 < 30 || tcdf2048 > 70 {
		t.Fatalf("time-weighted CDF at 2048 = %.1f%%, want ~50%%", tcdf2048)
	}
	// CDF must be monotone and end at 100.
	for i := 1; i < len(cdf); i++ {
		if cdf[i] < cdf[i-1]-1e-9 {
			t.Fatal("CDF not monotone")
		}
	}
	if math.Abs(cdf[len(cdf)-1]-100) > 1e-6 {
		t.Fatalf("CDF endpoint = %v", cdf[len(cdf)-1])
	}
}

func TestFig1bConcurrencyMass(t *testing.T) {
	tbl := Fig1b(testTrace)
	ks := tbl.Column("concurrent_jobs")
	ps := tbl.Column("proportion_of_time")
	var total, mass4to60 float64
	for i := range ks {
		total += ps[i]
		if ks[i] >= 4 && ks[i] <= 60 {
			mass4to60 += ps[i]
		}
	}
	if math.Abs(total-1) > 1e-6 {
		t.Fatalf("proportions sum to %v", total)
	}
	// Paper's Fig 1b: virtually all the mass between 4 and 60.
	if mass4to60 < 0.85 {
		t.Fatalf("mass in [4,60] = %v, want >= 0.85", mass4to60)
	}
}

func TestProbIOMatchesPaperRegime(t *testing.T) {
	tbl := ProbIO(testTrace)
	mus := tbl.Column("mu_pct")
	ps := tbl.Column("prob_pct")
	for i, mu := range mus {
		if mu == 5 {
			// Paper: 64% on the Intrepid trace. Accept the regime.
			if ps[i] < 25 || ps[i] > 90 {
				t.Fatalf("P at mu=5%% is %.1f%%, out of regime", ps[i])
			}
		}
	}
	// Monotone in mu.
	for i := 1; i < len(ps); i++ {
		if ps[i] < ps[i-1] {
			t.Fatal("P should grow with mu")
		}
	}
}

func TestFig2DeltaShape(t *testing.T) {
	tbl := Fig2(13)
	dt := tbl.Column("dt_s")
	ta := tbl.Column("timeA_s")
	tb := tbl.Column("timeB_s")
	ea := tbl.Column("expectedA_s")
	// Peak at dt=0, decaying to solo on both sides.
	var peakA, soloA float64
	for i := range dt {
		if dt[i] == 0 {
			peakA = ta[i]
		}
	}
	soloA = ta[0] // dt = -12: no overlap
	if peakA < 1.8*soloA || peakA > 2.2*soloA {
		t.Fatalf("peak/solo = %v, want ~2 (paper: 8.5s -> 17s)", peakA/soloA)
	}
	// Measured within 10% of the expected model (equal apps saturate).
	for i := range dt {
		if math.Abs(ta[i]-ea[i]) > 0.1*ea[i] {
			t.Fatalf("dt=%v: measured %v vs expected %v", dt[i], ta[i], ea[i])
		}
	}
	// Symmetry of the two instances.
	for i := range dt {
		if math.Abs(ta[i]-tb[i]) > 0.05*ta[i] {
			t.Fatalf("dt=%v: A %v and B %v should be symmetric", dt[i], ta[i], tb[i])
		}
	}
}

func TestFig3CacheCollapse(t *testing.T) {
	tbl := Fig3(10)
	alone := tbl.Column("alone_MiBps")
	shared := tbl.Column("interfered_MiBps")
	// Solo iterations all enjoy the cache.
	aloneMin := math.Inf(1)
	for _, v := range alone {
		if v < aloneMin {
			aloneMin = v
		}
	}
	if aloneMin < 1500 {
		t.Fatalf("solo throughput dipped to %v MiB/s; cache should absorb", aloneMin)
	}
	// At least one interfered iteration collapses below half the cache speed.
	sharedMin := math.Inf(1)
	for _, v := range shared {
		if v < sharedMin {
			sharedMin = v
		}
	}
	if sharedMin > aloneMin/2 {
		t.Fatalf("no cache collapse: min interfered %v vs alone %v", sharedMin, aloneMin)
	}
}

func TestFig4SmallAppCrushed(t *testing.T) {
	tbl := Fig4()
	cores := tbl.Column("coresB")
	slow := tbl.Column("slowdownB")
	for i := range cores {
		if cores[i] == 8 {
			// Paper: ~6x decrease for the 8-core app.
			if slow[i] < 4 || slow[i] > 10 {
				t.Fatalf("slowdown at 8 cores = %v, want ~6", slow[i])
			}
		}
		if cores[i] == 336 {
			// Equal apps: factor ~2.
			if slow[i] < 1.8 || slow[i] > 2.2 {
				t.Fatalf("slowdown at 336 cores = %v, want ~2", slow[i])
			}
		}
	}
}

func TestFig6SmallAppWorstCase(t *testing.T) {
	tbl := Fig6(11)
	cores := tbl.Column("coresB")
	fb := tbl.Column("factorB")
	fa := tbl.Column("factorA")
	maxB24, maxB384 := 0.0, 0.0
	maxA := 0.0
	for i := range cores {
		if cores[i] == 24 && fb[i] > maxB24 {
			maxB24 = fb[i]
		}
		if cores[i] == 384 && fb[i] > maxB384 {
			maxB384 = fb[i]
		}
		if fa[i] > maxA {
			maxA = fa[i]
		}
	}
	// Paper: factor up to ~14 for the 24-core app; we accept the same order
	// of magnitude (>6), and ~2 for the even split.
	if maxB24 < 6 {
		t.Fatalf("24-core worst factor %v, want > 6 (paper ~14)", maxB24)
	}
	if maxB384 < 1.7 || maxB384 > 2.3 {
		t.Fatalf("384-core worst factor %v, want ~2", maxB384)
	}
	// The big app is barely touched.
	if maxA > 2.1 {
		t.Fatalf("big-app factor %v, too high", maxA)
	}
	// Monotonicity: smaller B suffers more.
	if maxB24 <= maxB384 {
		t.Fatal("smaller app should suffer more")
	}
}

func TestFig7aFCFSProtectsFirst(t *testing.T) {
	tbl := Fig7a(13)
	dt := tbl.Column("dt_s")
	taInt := tbl.Column("tA_interfere")
	taF := tbl.Column("tA_fcfs")
	tbF := tbl.Column("tB_fcfs")
	for i := range dt {
		if dt[i] >= 0 && dt[i] <= 10 {
			// A arrived first: FCFS leaves it at solo speed while
			// interference slows it down.
			if taF[i] > taInt[i]-1 {
				t.Fatalf("dt=%v: FCFS A %v should beat interference %v", dt[i], taF[i], taInt[i])
			}
			// And B pays: roughly solo + A's remaining time.
			if tbF[i] < taF[i] {
				t.Fatalf("dt=%v: FCFS B %v should exceed A %v", dt[i], tbF[i], taF[i])
			}
		}
	}
}

func TestFig7bInterferenceBelowExpected(t *testing.T) {
	tbl := Fig7b(13)
	dt := tbl.Column("dt_s")
	ta := tbl.Column("tA_interfere")
	ea := tbl.Column("tA_expected")
	solo := ta[0]
	for i := range dt {
		if dt[i] == 0 {
			// Measured peak well below the expected 2x solo.
			if ta[i] > 0.85*ea[i] {
				t.Fatalf("peak %v not clearly below expected %v", ta[i], ea[i])
			}
			if ta[i]/solo > 1.7 {
				t.Fatalf("interference factor %v, want < 1.7 (injection-limited)", ta[i]/solo)
			}
		}
	}
}

func TestFig8aSerializationWorseThanInterference(t *testing.T) {
	tbl := Fig8a(17)
	dt := tbl.Column("dt_s")
	tbInt := tbl.Column("tB_interfere")
	tbF := tbl.Column("tB_fcfs")
	found := false
	for i := range dt {
		if dt[i] >= 0 && dt[i] <= 10 {
			found = true
			// The second app under FCFS pays more than under interference.
			if tbF[i] < tbInt[i] {
				t.Fatalf("dt=%v: FCFS B %v should exceed interfering B %v", dt[i], tbF[i], tbInt[i])
			}
		}
	}
	if !found {
		t.Fatal("no dt in window")
	}
}

func TestFig8bCommPhaseImmune(t *testing.T) {
	tbl := Fig8b()
	comm := tbl.Column("commA_s")
	write := tbl.Column("writeA_s")
	// Row 0: alone; row 1: dt=0. Comm unchanged, write roughly doubled.
	if math.Abs(comm[1]-comm[0]) > 0.05*comm[0] {
		t.Fatalf("comm changed under interference: %v -> %v", comm[0], comm[1])
	}
	if write[1] < 1.7*write[0] {
		t.Fatalf("write should roughly double: %v -> %v", write[0], write[1])
	}
}

func TestFig9PolicyDuality(t *testing.T) {
	tbl := Fig9(21)
	rows := tbl.Rows
	idx := map[string]int{}
	for i, c := range tbl.Columns {
		idx[c] = i
	}
	var worstBfcfs, worstBirq, worstAirqEq float64
	for _, r := range rows {
		if r[idx["coresB"]] == 24 && r[idx["dt_s"]] >= 0 {
			if v := r[idx["fB_fcfs"]]; v > worstBfcfs {
				worstBfcfs = v
			}
			if v := r[idx["fB_interrupt"]]; v > worstBirq {
				worstBirq = v
			}
		}
		if r[idx["coresB"]] == 384 {
			if v := r[idx["fA_interrupt"]]; v > worstAirqEq {
				worstAirqEq = v
			}
		}
	}
	// FCFS is terrible for the small app; interruption protects it.
	if worstBfcfs < 5 {
		t.Fatalf("FCFS worst B factor %v, want large", worstBfcfs)
	}
	if worstBirq > worstBfcfs/2 {
		t.Fatalf("interrupt worst B %v should be far below FCFS %v", worstBirq, worstBfcfs)
	}
	// Interruption hurts an equal-size first app (factor ~2).
	if worstAirqEq < 1.7 {
		t.Fatalf("equal-size interrupted A factor %v, want ~2", worstAirqEq)
	}
}

func TestFig9InterruptNegligibleCostForBig(t *testing.T) {
	// The paper's headline: preventing the 14x slowdown costs the big app
	// almost nothing.
	tbl := Fig9(21)
	idx := map[string]int{}
	for i, c := range tbl.Columns {
		idx[c] = i
	}
	for _, r := range tbl.Rows {
		if r[idx["coresB"]] == 24 {
			if f := r[idx["fA_interrupt"]]; f > 1.3 {
				t.Fatalf("big app interrupted by tiny app pays %v, want < 1.3", f)
			}
		}
	}
}

func TestFig10SawPattern(t *testing.T) {
	tbl := Fig10(41)
	dt := tbl.Column("dt_s")
	tbFile := tbl.Column("tB_fileIRQ")
	tbRound := tbl.Column("tB_roundIRQ")
	soloB := colMin(tbl, "tB_interfere")

	// Round-level interruption keeps B at essentially solo time for dt >= 0.
	// (The paper's interruption curves start at dt = 0: with dt < 0 there is
	// nobody to interrupt — and a newest-arrival policy would let the big
	// app preempt the small one.)
	for i := range dt {
		if dt[i] >= 0 && tbRound[i] > 1.25*soloB {
			t.Fatalf("dt=%v: round-level B %v, want ~solo %v", dt[i], tbRound[i], soloB)
		}
	}
	// File-level shows a saw: B sometimes waits up to a whole file.
	maxFile := 0.0
	for i := range dt {
		if dt[i] > 0 && dt[i] < 8 && tbFile[i] > maxFile {
			maxFile = tbFile[i]
		}
	}
	if maxFile < 1.3*soloB {
		t.Fatalf("file-level max B %v shows no saw (solo %v)", maxFile, soloB)
	}
	// And the saw tops below FCFS's worst case.
	maxFCFS := colMax(tbl, "tB_fcfs")
	if maxFile > maxFCFS+1e-9 {
		t.Fatalf("file-level %v exceeds FCFS %v", maxFile, maxFCFS)
	}
}

func TestFig11DynamicImprovesMetric(t *testing.T) {
	tbl := Fig11(21)
	dt := tbl.Column("dt_s")
	base := tbl.Column("percore_interfere_s")
	dyn := tbl.Column("percore_calciom_s")
	improvedSomewhere := false
	for i := range dt {
		// CALCioM never degrades the metric beyond coordination noise.
		if dyn[i] > base[i]+0.1 {
			t.Fatalf("dt=%v: CALCioM %v worse than interference %v", dt[i], dyn[i], base[i])
		}
		if dyn[i] < base[i]-0.5 {
			improvedSomewhere = true
		}
	}
	if !improvedSomewhere {
		t.Fatal("dynamic choice never improved the metric")
	}
}

func TestFig12DelayTradeoff(t *testing.T) {
	tbl := Fig12(15)
	dt := tbl.Column("dt_s")
	tbF := tbl.Column("tB_fcfs")
	tbD := tbl.Column("tB_delay")
	taI := tbl.Column("tA_interfere")
	taD := tbl.Column("tA_delay")
	for i := range dt {
		if dt[i] == 0 {
			// Delay beats FCFS for the delayed app...
			if tbD[i] >= tbF[i] {
				t.Fatalf("delay B %v should beat FCFS B %v", tbD[i], tbF[i])
			}
			// ...and beats pure interference for the first app.
			if taD[i] >= taI[i] {
				t.Fatalf("delay A %v should beat interference A %v", taD[i], taI[i])
			}
		}
	}
}

func TestAblationGranularityMonotone(t *testing.T) {
	tbl := AblationGranularity()
	tb := tbl.Column("timeB_s")
	// Finer granularity: B's time should not increase.
	if !(tb[2] <= tb[1]+1e-6 && tb[1] <= tb[0]+1e-6) {
		t.Fatalf("B times %v not monotone with granularity", tb)
	}
}

func TestAblationLatency(t *testing.T) {
	tbl := AblationMessageLatency()
	dynCosts := tbl.Column("percore_calciom_s")
	base := tbl.Column("percore_interfere_s")[0]
	// At microsecond latency coordination clearly wins.
	if dynCosts[0] >= base {
		t.Fatalf("low-latency coordination %v should beat interference %v", dynCosts[0], base)
	}
}

func TestAblationServerScheduler(t *testing.T) {
	tbl := AblationServerScheduler()
	ta := tbl.Column("timeA_s")
	// CALCioM FCFS (mode 3) protects A at least as well as any server-side
	// policy (modes 0-2).
	for i := 0; i < 3; i++ {
		if ta[3] > ta[i]+0.2 {
			t.Fatalf("CALCioM A %v worse than server mode %d A %v", ta[3], i, ta[i])
		}
	}
}

func TestAblationCollectiveBuffer(t *testing.T) {
	tbl := AblationCollectiveBuffer()
	rounds := tbl.Column("rounds")
	tb := tbl.Column("timeB_s")
	// More rounds (smaller buffers) must not worsen the interrupted app B.
	for i := 1; i < len(rounds); i++ {
		if rounds[i] >= rounds[i-1] {
			t.Fatal("rounds should decrease with buffer size")
		}
	}
	if tb[0] > tb[len(tb)-1]+1e-6 {
		t.Fatalf("finest-grained B %v should beat coarsest %v", tb[0], tb[len(tb)-1])
	}
}

func TestRegistryRunsEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("registry run is slow")
	}
	seen := map[string]bool{}
	for _, e := range All() {
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
		if ByID(e.ID) == nil {
			t.Fatalf("ByID(%s) returned nil", e.ID)
		}
	}
	if ByID("nope") != nil {
		t.Fatal("ByID should return nil for unknown")
	}
}

func TestTableRenderAndCSV(t *testing.T) {
	tbl := &Table{ID: "x", Title: "T", Columns: []string{"a", "b"}, Notes: "note"}
	tbl.AddRow(1, 2.5)
	tbl.AddRow(1000000, math.NaN())
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== x — T ==", "# note", "a", "b", "2.5", "nan"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "a,b\n") {
		t.Fatalf("csv header missing: %s", buf.String())
	}
	if tbl.String() == "" {
		t.Fatal("String empty")
	}
}

func TestTableColumnPanics(t *testing.T) {
	tbl := &Table{ID: "x", Columns: []string{"a"}}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown column")
		}
	}()
	tbl.Column("zzz")
}

func TestTableAddRowValidates(t *testing.T) {
	tbl := &Table{ID: "x", Columns: []string{"a", "b"}}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong row width")
		}
	}()
	tbl.AddRow(1)
}

func TestMachineStudyPolicies(t *testing.T) {
	tbl := MachineStudy(60)
	over := tbl.Column("overhead_pct")
	mean := tbl.Column("mean_factor")
	// Row order: uncoordinated, fcfs, interrupt, dynamic(cpu), dynamic(sumI).
	if over[0] < 20 {
		t.Fatalf("uncoordinated overhead %v%%, want heavy regime", over[0])
	}
	if over[1] >= over[0] {
		t.Fatalf("FCFS overhead %v should beat uncoordinated %v", over[1], over[0])
	}
	if over[3] >= over[0] {
		t.Fatalf("dynamic overhead %v should beat uncoordinated %v", over[3], over[0])
	}
	// The sum-interference dynamic should deliver the best mean factor.
	best := mean[0]
	for _, m := range mean {
		if m < best {
			best = m
		}
	}
	if mean[4] > best*1.2 {
		t.Fatalf("dynamic(sumI) mean factor %v far from best %v", mean[4], best)
	}
	dec := tbl.Column("decisions")
	if dec[0] != 0 || dec[1] == 0 {
		t.Fatalf("decision counts wrong: %v", dec)
	}
}

func TestExtensionAdaptiveHelps(t *testing.T) {
	tbl := ExtensionAdaptive()
	sums := tbl.Column("sum_factors")
	if sums[1] >= sums[0] {
		t.Fatalf("adaptation should reduce interference: %v -> %v", sums[0], sums[1])
	}
	mk := tbl.Column("makespan_s")
	if mk[1] >= mk[0] {
		t.Fatalf("adaptation should shorten the makespan: %v -> %v", mk[0], mk[1])
	}
}

func TestAblationNetworkModelsAgree(t *testing.T) {
	tbl := AblationNetworkModel()
	idx := map[string]int{}
	for i, c := range tbl.Columns {
		idx[c] = i
	}
	// For each dt, the two models' factorB must agree within 10%.
	byDT := map[float64][2]float64{}
	for _, r := range tbl.Rows {
		e := byDT[r[idx["dt_s"]]]
		if r[idx["true_network"]] == 0 {
			e[0] = r[idx["factorB"]]
		} else {
			e[1] = r[idx["factorB"]]
		}
		byDT[r[idx["dt_s"]]] = e
	}
	for dt, pair := range byDT {
		if pair[0] == 0 || pair[1] == 0 {
			t.Fatalf("dt=%v missing a model", dt)
		}
		if math.Abs(pair[0]-pair[1]) > 0.1*pair[0] {
			t.Fatalf("dt=%v: models disagree: %v vs %v", dt, pair[0], pair[1])
		}
	}
}

func TestExtensionReadWrite(t *testing.T) {
	tbl := ExtensionReadWrite(7)
	dt := tbl.Column("dt_s")
	tw := tbl.Column("tWriter_interfere")
	trd := tbl.Column("tReader_interfere")
	twF := tbl.Column("tWriter_fcfs")
	trF := tbl.Column("tReader_fcfs")
	for i := range dt {
		if dt[i] == 0 {
			// Full overlap: both roughly double.
			if tw[i] < 1.8*tw[0] || trd[i] < 1.8*trd[0] {
				t.Fatalf("read/write interference too weak: %v %v (solo %v)", tw[i], trd[i], tw[0])
			}
			// FCFS serializes: whoever wins the arrival tie stays at solo
			// speed, the other pays roughly double.
			first, second := twF[i], trF[i]
			if first > second {
				first, second = second, first
			}
			if first > 1.1*tw[0] {
				t.Fatalf("FCFS first app %v should stay near solo %v", first, tw[0])
			}
			if second < 1.8*tw[0] {
				t.Fatalf("FCFS second app %v should pay ~2x solo %v", second, tw[0])
			}
		}
	}
}

func TestExtensionDiversity(t *testing.T) {
	tbl := ExtensionDiversity()
	fNAMD := tbl.Column("factorNAMD")
	fCM1 := tbl.Column("factorCM1")
	// Row order: uncoordinated, fcfs, dynamic(sumI).
	// FCFS is disastrous for the trickle writer...
	if fNAMD[1] < 10 {
		t.Fatalf("FCFS should crush the trickler: factor %v", fNAMD[1])
	}
	// ...dynamic keeps it an order of magnitude safer...
	if fNAMD[2] > fNAMD[1]/5 {
		t.Fatalf("dynamic %v should be far below FCFS %v", fNAMD[2], fNAMD[1])
	}
	// ...and the burst writer is never really hurt.
	for i, f := range fCM1 {
		if f > 1.2 {
			t.Fatalf("row %d: CM1 factor %v, want ~1", i, f)
		}
	}
}

func TestExtensionFairShare(t *testing.T) {
	tbl := ExtensionFairShare()
	percore := tbl.Column("percore_s")
	// Row order: uncoordinated, fairshare, fcfs, dynamic.
	// The paper's argument: fair sharing slows everyone down — worse than
	// plain interference on the machine-wide metric.
	if percore[1] <= percore[0] {
		t.Fatalf("fairshare %v should be worse than interference %v", percore[1], percore[0])
	}
	// The dynamic policy beats all of them.
	for i := 0; i < 3; i++ {
		if percore[3] >= percore[i] {
			t.Fatalf("dynamic %v should beat row %d (%v)", percore[3], i, percore[i])
		}
	}
}

// TestPlatformByName pins the ∆ command lines' platform names: each resolves
// to its scenario and that platform's node width, at least one node a job.
func TestPlatformByName(t *testing.T) {
	for _, tc := range []struct {
		name, scenario string
		perNode        int
	}{
		{"rennes", RennesPlatform().Name, RennesCoresPerNode},
		{"nancy", NancyPlatform(false).Name, NancyCoresPerNode},
		{"surveyor", SurveyorPlatform().Name, SurveyorCoresPerNode},
	} {
		sc, nodes, ok := PlatformByName(tc.name)
		if !ok {
			t.Fatalf("%q rejected", tc.name)
		}
		if sc.Name != tc.scenario {
			t.Errorf("%q resolves to scenario %q, want %q", tc.name, sc.Name, tc.scenario)
		}
		for _, procs := range []int{1, tc.perNode, 10 * tc.perNode, 10*tc.perNode + 1} {
			if got, want := nodes(procs), max(1, procs/tc.perNode); got != want {
				t.Errorf("%q: %d procs on %d nodes, want %d", tc.name, procs, got, want)
			}
		}
	}
	if sc, _, _ := PlatformByName("nancy"); sc.FS.CacheBW != 0 {
		t.Error("nancy resolves with the page cache on")
	}
	for _, name := range []string{"", "Rennes", "intrepid"} {
		if _, _, ok := PlatformByName(name); ok {
			t.Errorf("%q accepted", name)
		}
	}
}
