package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"unsafe"

	"repro/internal/approx"
)

// sharedFinishTimes against the general water-fill it replaced
// (oracleSharedFinishTimes: fluid.FinishTimes on the flows the policy used to
// build), and against what max-min sharing means whatever the bits.

// randomSharedCase draws a model and a set of queued applications: cores from
// none to thousands, phases of megabytes to hundreds of gigabytes somewhere
// between untouched and done, now and then an exact twin of the application
// before, a phase of unknown (infinite) size, a model without injection limit
// or without bandwidth.
func randomSharedCase(rng *rand.Rand) (*PerfModel, []AppView) {
	m := &PerfModel{FSBandwidth: math.Pow(10, 8+3*rng.Float64()), ProcNIC: math.Pow(10, 5+3*rng.Float64())}
	switch rng.Intn(12) {
	case 0:
		m.ProcNIC = 0
	case 1:
		m.FSBandwidth = 0
	}
	apps := make([]AppView, 1+rng.Intn(40))
	for i := range apps {
		if i > 0 && rng.Intn(10) == 0 {
			apps[i] = apps[i-1]
			continue
		}
		a := AppView{Cores: 1 + rng.Intn(4096), BytesTotal: math.Round(math.Pow(10, 6+5*rng.Float64()))}
		switch rng.Intn(16) {
		case 0:
			a.Cores = 0
		case 1:
			a.BytesTotal = math.Inf(1)
		case 2:
			a.BytesDone = a.BytesTotal
		case 3, 4, 5, 6:
			a.BytesDone = math.Round(a.BytesTotal * rng.Float64())
		}
		apps[i] = a
	}
	return m, apps
}

func TestSharedFinishTimesMatchesWaterFill(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var s Scratch
	for trial := 0; trial < 5000; trial++ {
		m, apps := randomSharedCase(rng)
		if err := againstWaterFill(m, apps, &s, 1e-12); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// againstWaterFill compares the closed form with the water-fill application
// by application, to the relative tolerance rel, infinities exactly.
func againstWaterFill(m *PerfModel, apps []AppView, s *Scratch, rel float64) error {
	got, want := m.sharedFinishTimes(s, apps), oracleSharedFinishTimes(m, apps)
	for i := range want {
		if !approx.Equal(got[i], want[i], rel) {
			return fmt.Errorf("app %d of %d (%d cores, %g bytes left; fs %g, nic %g): closed form %v, water-fill %v",
				i, len(apps), apps[i].Cores, apps[i].Remaining(), m.FSBandwidth, m.ProcNIC, got[i], want[i])
		}
	}
	return nil
}

// TestSharedFinishTimesLoneWriterIsSoloTime: with one application left
// writing, letting everybody interfere and serializing are the same schedule,
// and the two estimates have to be the same float or the tie — which
// serialize, costed first, wins — goes to whichever rounds lower. The named
// case is step 223 of TestArbiterMatchesReference's seeded schedule: c done,
// k with 33 cores and 7e7 bytes, both candidates at 33·7e7/3.3e8 — where
// (7e7/33)/1e7, the same time per unit weight, is one ulp less.
func TestSharedFinishTimesLoneWriterIsSoloTime(t *testing.T) {
	var s Scratch
	apps := []AppView{
		{Name: "c", Cores: 4, State: Active, BytesTotal: 3e7, BytesDone: 3e7},
		{Name: "k", Cores: 33, State: Waiting, Arrival: 1, BytesTotal: 7e7},
	}
	solo := diffModel.SoloTime(apps[1], apps[1].Remaining())
	if got := diffModel.sharedFinishTimes(&s, apps); got[0] != 0 || got[1] != solo {
		t.Fatalf("step 223: shared finish times %v, want [0 %v] exactly", got, solo)
	}
	if perWeight := apps[1].Remaining() / float64(apps[1].Cores) / diffModel.ProcNIC; perWeight == solo {
		t.Fatalf("the per-weight form no longer rounds differently (%v): this case pins nothing", perWeight)
	}
	pol := DynamicPolicy{Metric: CPUSecondsWasted{}, Model: diffModel, AllowInterfere: true}
	allowed := make([]bool, len(apps))
	reason, _ := pol.ArbitrateIndexed(2, apps, allowed, &s)
	if want := "dynamic: serialize after c (cost 7 by cpu-seconds)"; !allowed[0] || allowed[1] || reason.String() != want {
		t.Fatalf("step 223: allowed %v, %q; want [true false], %q", allowed, reason, want)
	}

	rng := rand.New(rand.NewSource(223))
	for trial := 0; trial < 2000; trial++ {
		m, apps := randomSharedCase(rng)
		writer := rng.Intn(len(apps))
		for i := range apps {
			if i != writer {
				apps[i].BytesDone = apps[i].BytesTotal
			}
		}
		w := apps[writer]
		if inj := float64(w.Cores) * m.ProcNIC; inj <= 0 || inj >= m.FSBandwidth || math.IsInf(w.BytesTotal, 1) {
			continue // not injection-limited: the lone writer's rate is FSBandwidth/cores × cores, an ulp from SoloTime's either way
		}
		if got, want := m.sharedFinishTimes(&s, apps)[writer], m.SoloTime(w, w.Remaining()); got != want {
			t.Fatalf("trial %d: lone writer (%d cores, %g bytes; nic %g) finishes at %v, SoloTime %v", trial, w.Cores, w.Remaining(), m.ProcNIC, got, want)
		}
	}
}

// TestSharedFinishTimesProperties: what has to hold of max-min sharing under
// proportional caps to the last bit or not at all — applications finish in
// the order of their bytes per core, the bytes served by the time everybody
// is done are the bytes there were, and more file-system bandwidth delays
// nobody.
func TestSharedFinishTimesProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	var s Scratch
	for trial := 0; trial < 3000; trial++ {
		m, apps := randomSharedCase(rng)
		fin := append([]float64(nil), m.sharedFinishTimes(&s, apps)...)

		perCore := func(a AppView) float64 { return a.Remaining() / float64(a.Cores) }
		for i, a := range apps {
			for j, b := range apps {
				if a.Remaining() > 0 && b.Remaining() > 0 && perCore(a) < perCore(b) && fin[i] > fin[j] {
					t.Fatalf("trial %d: app %d (%g bytes per core) finishes at %v, after app %d (%g) at %v", trial, i, perCore(a), fin[i], j, perCore(b), fin[j])
				}
			}
		}

		more := *m
		more.FSBandwidth *= 1 + rng.Float64()
		for i, after := range more.sharedFinishTimes(&s, apps) {
			if after > fin[i] && !approx.Equal(after, fin[i], 1e-12) {
				t.Fatalf("trial %d app %d: finishes at %v on %g B/s, at %v on %g B/s", trial, i, fin[i], m.FSBandwidth, after, more.FSBandwidth)
			}
		}

		// Between two completions the file system serves min(FSBandwidth,
		// ProcNIC × the cores still writing).
		byFinish := make([]int, len(apps))
		total, writing, finite := 0.0, 0.0, true
		for i, a := range apps {
			byFinish[i] = i
			total += a.Remaining()
			if a.Remaining() > 0 {
				writing += float64(a.Cores)
			}
			finite = finite && !math.IsInf(fin[i], 1)
		}
		if !finite {
			continue
		}
		sort.Slice(byFinish, func(a, b int) bool { return fin[byFinish[a]] < fin[byFinish[b]] })
		served, at := 0.0, 0.0
		for _, i := range byFinish {
			if apps[i].Remaining() <= 0 {
				continue
			}
			rate := m.FSBandwidth
			if inj := m.ProcNIC * writing; inj > 0 && inj < rate {
				rate = inj
			}
			served += (fin[i] - at) * rate
			at = fin[i]
			writing -= float64(apps[i].Cores)
		}
		if !approx.Equal(served, total, 1e-9) {
			t.Fatalf("trial %d: %g bytes served by the last completion, %g to write", trial, served, total)
		}
	}
}

// sharedCaseFromBytes decodes a fuzz input: two bytes pick the model, then
// four bytes an application — cores 0..4095, a phase of (1..256) × 10^(6..11)
// bytes or of unknown size, done in 254ths.
func sharedCaseFromBytes(data []byte) (*PerfModel, []AppView) {
	if len(data) < 2 {
		return nil, nil
	}
	fs := [...]float64{0, 1e6, 1e9, 4096 << 20, 1e12}
	nic := [...]float64{0, 1, 1e5, 1e7, 3 << 20, 1e10}
	m := &PerfModel{FSBandwidth: fs[int(data[0])%len(fs)], ProcNIC: nic[int(data[1])%len(nic)]}
	var apps []AppView
	for b := data[2:]; len(b) >= 4 && len(apps) < 64; b = b[4:] {
		a := AppView{
			Cores:      int(b[0]) | int(b[1]&0x0f)<<8,
			BytesTotal: float64(int(b[2])+1) * math.Pow(10, float64(6+int(b[1]>>4)%6)),
		}
		if b[3] == 255 {
			a.BytesTotal = math.Inf(1)
		} else {
			a.BytesDone = a.BytesTotal * float64(b[3]) / 254
		}
		apps = append(apps, a)
	}
	return m, apps
}

// FuzzSharedFinishTimes holds the closed form to the water-fill on whatever
// the fuzzer builds. The tolerance is the water-fill's own: it calls a flow
// done with a billionth of its work left, so applications the fuzzer brings
// within that of a tie finish together there and a hair apart here. Infinite
// times have to be infinite in both.
func FuzzSharedFinishTimes(f *testing.F) {
	f.Add([]byte{2, 3, 4, 0, 2, 254, 33, 0, 6, 0})                    // step 223: one done, one writing alone
	f.Add([]byte{2, 3, 0, 0, 9, 0, 64, 0, 9, 0})                      // no cores
	f.Add([]byte{2, 3, 64, 0, 9, 255, 64, 0, 9, 0, 16, 1, 9, 255})    // phases of unknown size
	f.Add([]byte{0, 3, 64, 0, 9, 0, 8, 0, 1, 100})                    // no file-system bandwidth
	f.Add([]byte{3, 0, 64, 0, 9, 0, 0, 1, 200, 17, 255, 15, 0, 0})    // ProcNIC = 0: no caps
	f.Add([]byte{3, 4, 64, 0, 9, 0, 64, 0, 9, 0, 128, 0, 19, 0})      // exact ties
	f.Add([]byte{4, 1, 255, 15, 255, 1, 1, 0, 0, 253, 7, 80, 99, 12}) // injection-limited throughout
	f.Fuzz(func(t *testing.T, data []byte) {
		m, apps := sharedCaseFromBytes(data)
		if len(apps) == 0 {
			return
		}
		if err := againstWaterFill(m, apps, new(Scratch), 1e-6); err != nil {
			t.Fatal(err)
		}
	})
}

// elsewhereMetric is a Metric the package's name table does not know.
type elsewhereMetric struct{ Makespan }

func (elsewhereMetric) Name() string { return "makespan-from-elsewhere" }

// TestDynamicReason: a Reason is four words, the dynamic policy's says which
// metric by index, and under every metric — the package's four, and one from
// elsewhere, whose sentence is rendered at the decision — it reads what the
// eagerly formatted one read.
func TestDynamicReason(t *testing.T) {
	if got, want := unsafe.Sizeof(Reason{}), 4*unsafe.Sizeof(uintptr(0)); got != want {
		t.Errorf("Reason is %d bytes, want %d: every decision copies one", got, want)
	}
	metrics := []Metric{CPUSecondsWasted{}, SumIOTime{}, SumInterferenceFactors{Model: diffModel}, Makespan{}, elsewhereMetric{}}
	for i, name := range metricNames {
		if metrics[i].Name() != name {
			t.Errorf("metricNames[%d] = %q, want %q", i, name, metrics[i].Name())
		}
	}
	rng := rand.New(rand.NewSource(4))
	var kinds [4]int
	for trial := 0; trial < 400; trial++ {
		apps := make([]AppView, 2+rng.Intn(3))
		for i := range apps {
			apps[i] = AppView{Name: slotNames[i], Cores: 1 + rng.Intn(64), Arrival: float64(i), State: Waiting,
				BytesTotal: 1e7 * float64(1+rng.Intn(13))}
			if i == 0 && rng.Intn(3) > 0 {
				apps[i].State = Active
			}
		}
		for _, metric := range metrics {
			pol := DynamicPolicy{Metric: metric, Model: diffModel, AllowInterfere: trial%2 == 0}
			got, want := decide(pol, 5, apps).Reason, oracleDynamic(pol, 5, apps).Reason
			if got.String() != want.String() {
				t.Fatalf("trial %d under %s: reason reads %q, was %q", trial, metric.Name(), got, want)
			}
			if _, foreign := metric.(elsewhereMetric); foreign != (got.kind == reasonText) {
				t.Fatalf("trial %d under %s: reason of kind %d", trial, metric.Name(), got.kind)
			} else if !foreign {
				kinds[got.kind-reasonDynSerialize]++
			}
		}
	}
	for k, n := range kinds {
		if n == 0 {
			t.Errorf("no decision of dynamic kind %d in 400 trials", k)
		}
	}
}

// benchSharedApps is n applications a factor of four apart in cores with
// phases of distinct sizes, FS-bound while most of them write and
// injection-bound at the end, as on the replay benchmark's trace.
func benchSharedApps(n int) (*PerfModel, []AppView) {
	m := &PerfModel{FSBandwidth: 4096 << 20, ProcNIC: 3 << 20}
	apps := make([]AppView, n)
	for i := range apps {
		apps[i] = AppView{Cores: 64 << (2 * (i % 4)), BytesTotal: float64(128+(i*37)%251) * (1 << 20)}
	}
	return m, apps
}

var benchSink []float64

// BenchmarkSharedFinishTimes is the interference estimate of one dynamic
// decision at three queue depths, in the Arbiter's scratch: 0 allocs/op, held
// in CI. BenchmarkSharedFinishTimesWaterFill beside it is the same estimate
// through fluid.FinishTimes as the policy computed it before (flows built and
// result allocated per call, as then) — O(n²) against O(n log n).
func BenchmarkSharedFinishTimes(b *testing.B) {
	for _, n := range []int{8, 64, 256} {
		b.Run(fmt.Sprintf("apps=%d", n), func(b *testing.B) {
			m, apps := benchSharedApps(n)
			var s Scratch
			m.sharedFinishTimes(&s, apps)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = m.sharedFinishTimes(&s, apps)
			}
		})
	}
}

func BenchmarkSharedFinishTimesWaterFill(b *testing.B) {
	for _, n := range []int{8, 64, 256} {
		b.Run(fmt.Sprintf("apps=%d", n), func(b *testing.B) {
			m, apps := benchSharedApps(n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = oracleSharedFinishTimes(m, apps)
			}
		})
	}
}
