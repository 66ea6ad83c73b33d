package obs

import (
	"bytes"
	"io"
	"log/slog"
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]float64{0.001, 0.01, 0.1})
	h.Observe(0)      // below first bound -> bucket 0
	h.Observe(-1)     // negative clamps into bucket 0
	h.Observe(0.001)  // exact edge -> le semantics, bucket 0
	h.Observe(0.0011) // just past the edge -> bucket 1
	h.Observe(0.1)    // exact last bound -> bucket 2
	h.Observe(99)     // above every bound -> +Inf overflow
	h.Observe(math.Inf(1))
	s := h.Snapshot()
	want := []uint64{3, 1, 1, 2}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d: got %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 7 {
		t.Errorf("total count: got %d, want 7", s.Count)
	}
}

func TestHistogramSum(t *testing.T) {
	h := NewHistogram(DefaultLatencyBuckets)
	h.Observe(0.5)
	h.Observe(1.25)
	h.Observe(0) // zero contributes count but no sum
	s := h.Snapshot()
	if got, want := s.Sum, 1.75; math.Abs(got-want) > 1e-6 {
		t.Errorf("sum: got %v, want %v", got, want)
	}
	if s.Count != 3 {
		t.Errorf("count: got %d, want 3", s.Count)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram(DefaultLatencyBuckets)
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(seed*i%100) * 1e-4)
			}
		}(w + 1)
	}
	wg.Wait()
	if got := h.Snapshot().Count; got != workers*per {
		t.Errorf("count after concurrent observes: got %d, want %d", got, workers*per)
	}
}

func TestHistogramPanicsOnBadBounds(t *testing.T) {
	for _, bounds := range [][]float64{nil, {}, {1, 1}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v) did not panic", bounds)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

func TestObserveAllocFree(t *testing.T) {
	h := NewHistogram(DefaultLatencyBuckets)
	c := &Counter{}
	g := &Gauge{}
	f := &FloatCounter{}
	if n := testing.AllocsPerRun(1000, func() {
		h.Observe(0.0042)
		c.Inc()
		c.Add(3)
		g.Add(1)
		g.Add(-1)
		f.Add(0.25)
	}); n != 0 {
		t.Errorf("hot-path metric ops allocated %v allocs/op, want 0", n)
	}
}

func TestEmitAllocFree(t *testing.T) {
	logger := slog.New(slog.NewTextHandler(&bytes.Buffer{}, nil))
	l := NewEventLog(logger, 1024, 0) // heavy sampling: almost every grant skipped
	defer l.Close()
	ev := Event{Kind: EvGrant, App: "app0", Target: "t0", WaitS: 0.001}
	if n := testing.AllocsPerRun(1000, func() { l.Emit(ev) }); n != 0 {
		t.Errorf("EventLog.Emit allocated %v allocs/op, want 0", n)
	}
	var nilLog *EventLog
	if n := testing.AllocsPerRun(100, func() { nilLog.Emit(ev) }); n != 0 {
		t.Errorf("nil EventLog.Emit allocated %v allocs/op, want 0", n)
	}
}

func TestRegistryRenderDeterministic(t *testing.T) {
	build := func() string {
		r := NewRegistry()
		r.Counter("z_total", "z help", Label{"target", "t1"}).Add(7)
		r.Counter("z_total", "z help", Label{"target", "t0"}).Add(5)
		r.Gauge("a_depth", "a help").Set(-3)
		r.FloatCounter("m_seconds_total", "m help").Add(1.5)
		h := r.Histogram("w_seconds", "w help", []float64{0.01, 0.1}, Label{"target", "t0"})
		h.Observe(0.005)
		h.Observe(0.05)
		h.Observe(5)
		var b strings.Builder
		r.WriteTo(&b)
		return b.String()
	}
	first := build()
	for i := 0; i < 5; i++ {
		if got := build(); got != first {
			t.Fatalf("render not deterministic:\n--- first\n%s\n--- run %d\n%s", first, i, got)
		}
	}
	for _, want := range []string{
		"# TYPE a_depth gauge\na_depth -3\n",
		`z_total{target="t0"} 5`,
		`z_total{target="t1"} 7`,
		"m_seconds_total 1.5",
		`w_seconds_bucket{target="t0",le="0.01"} 1`,
		`w_seconds_bucket{target="t0",le="0.1"} 2`,
		`w_seconds_bucket{target="t0",le="+Inf"} 3`,
		`w_seconds_count{target="t0"} 3`,
	} {
		if !strings.Contains(first, want) {
			t.Errorf("render missing %q:\n%s", want, first)
		}
	}
	// a_depth < m_seconds_total < w_seconds < z_total: families sorted.
	order := []string{"a_depth", "m_seconds_total", "w_seconds", "z_total"}
	last := -1
	for _, name := range order {
		idx := strings.Index(first, "# HELP "+name)
		if idx <= last {
			t.Errorf("family %s out of order (index %d after %d)", name, idx, last)
		}
		last = idx
	}
}

func TestRegistryIdempotentAndKindConflict(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("x_total", "x", Label{"target", "t0"})
	c2 := r.Counter("x_total", "x", Label{"target", "t0"})
	if c1 != c2 {
		t.Error("same (name, labels) returned distinct counters")
	}
	defer func() {
		if recover() == nil {
			t.Error("kind conflict did not panic")
		}
	}()
	r.Gauge("x_total", "x")
}

// TestRegistryScrapeRacesRegistration: a /metrics scrape runs while a
// shard's first touch registers its series. Under -race this fails if
// WriteTo iterates a family's series map, or reads a series' metric, that a
// registration writes at the same time; without -race it checks that every
// series registered before the last scrape is rendered by it.
func TestRegistryScrapeRacesRegistration(t *testing.T) {
	r := NewRegistry()
	const n = 2000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			r.Counter("x_total", "x", Label{"target", strconv.Itoa(i)}).Inc()
		}
	}()
	for scraping := true; scraping; {
		select {
		case <-done:
			scraping = false
		default:
		}
		if _, err := r.WriteTo(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(b.String(), "\nx_total{"); got != n {
		t.Fatalf("rendered %d x_total series, want %d", got, n)
	}
}

// TestLabelEscaping: a label value is escaped the same way in a stored
// series and in a collected one.
func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("e_total", "e", Label{"app", "a\"b\\c\nd"}).Inc()
	r.Collect(func(c *Registry) { c.Counter("f_total", "f", Label{"app", "a\"b\\c\nd"}).Add(2) })
	var b strings.Builder
	r.WriteTo(&b)
	for _, want := range []string{`e_total{app="a\"b\\c\nd"} 1`, `f_total{app="a\"b\\c\nd"} 2`} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("escaped render missing %q:\n%s", want, b.String())
		}
	}
}

// TestCollectRendersWithStored: collected families render in the stored
// families' sorted order and format, counts as integers however large, and
// each scrape calls the collector once, outside the registry's lock (this
// one registers a stored series, which would deadlock under it).
func TestCollectRendersWithStored(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "b help").Add(3)
	r.Gauge("d_depth", "d help").Set(2)
	calls := 0
	r.Collect(func(c *Registry) {
		calls++
		r.Counter("b_total", "b help")
		c.Counter("a_total", "a help", Label{"target", "t1"}).Add(1_000_000)
		c.Counter("a_total", "a help", Label{"target", "t0"}).Add(7)
		c.FloatGauge("c_seconds", "c help").Add(0.25)
		c.FloatCounter("e_seconds_total", "e help").Add(1e6)
	})
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP a_total a help
# TYPE a_total counter
a_total{target="t0"} 7
a_total{target="t1"} 1000000
# HELP b_total b help
# TYPE b_total counter
b_total 3
# HELP c_seconds c help
# TYPE c_seconds gauge
c_seconds 0.25
# HELP d_depth d help
# TYPE d_depth gauge
d_depth 2
# HELP e_seconds_total e help
# TYPE e_seconds_total counter
e_seconds_total 1e+06
`
	if b.String() != want {
		t.Errorf("render:\n%s\nwant:\n%s", b.String(), want)
	}
	if calls != 1 {
		t.Errorf("one scrape called the collector %d times, want 1", calls)
	}
}

func TestEventLogEmitsAndSamples(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	logger := slog.New(slog.NewTextHandler(lockedWriter{&mu, &buf}, &slog.HandlerOptions{Level: slog.LevelDebug}))
	l := NewEventLog(logger, 4, 0)
	for i := 0; i < 16; i++ {
		l.Emit(Event{Kind: EvGrant, Time: float64(i), App: "app0", Target: "t0", WaitS: 0.001, Deferred: true, Convoy: true})
	}
	l.Emit(Event{Kind: EvRevoke, Time: 20, App: "app1", Target: "t0"})
	l.Emit(Event{Kind: EvGraceExpire, Time: 21, App: "app1"})
	l.Close()
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if got := strings.Count(out, "msg=grant"); got != 4 {
		t.Errorf("sampled grants: got %d logged, want 4 of 16 at sample=4\n%s", got, out)
	}
	for _, want := range []string{"msg=revoke", "msg=grace-expired", "cause=convoy", "app=app1"} {
		if !strings.Contains(out, want) {
			t.Errorf("event log missing %q:\n%s", want, out)
		}
	}
	if l.Dropped() != 0 {
		t.Errorf("unexpected drops: %d", l.Dropped())
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (lw lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}

func TestAdminHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("calciomd_grants_total", "grants", Label{"target", "t0"}).Add(42)
	health := "serving"
	r.Collect(func(c *Registry) { c.Gauge("collected_metric", "collected").Set(1) })
	a := &Admin{
		Registry: r,
		Health:   func() string { return health },
		Status:   func() any { return map[string]int{"sessions": 3} },
	}
	srv := httptest.NewServer(a.Handler())
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var b bytes.Buffer
		b.ReadFrom(resp.Body)
		return resp.StatusCode, b.String()
	}

	code, body := get("/metrics")
	if code != 200 || !strings.Contains(body, `calciomd_grants_total{target="t0"} 42`) {
		t.Errorf("/metrics: code=%d body=%q", code, body)
	}
	if !strings.Contains(body, "collected_metric 1") {
		t.Errorf("/metrics missing the collector's family: %q", body)
	}

	code, body = get("/healthz")
	if code != 200 || body != "serving\n" {
		t.Errorf("/healthz serving: code=%d body=%q", code, body)
	}
	health = "draining"
	code, body = get("/healthz")
	if code != 503 || body != "draining\n" {
		t.Errorf("/healthz draining: code=%d body=%q", code, body)
	}

	code, body = get("/statusz")
	if code != 200 || !strings.Contains(body, `"sessions": 3`) {
		t.Errorf("/statusz: code=%d body=%q", code, body)
	}

	code, _ = get("/debug/pprof/cmdline")
	if code != 200 {
		t.Errorf("/debug/pprof/cmdline: code=%d", code)
	}
}
