package server

import (
	"fmt"
	"io"
	"log/slog"
	"net/http/httptest"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/wire"
)

// metricsServer is the BenchmarkServerArbitrate fixture with metrics and
// event collection enabled, arbitrating under pol with the model m (nil:
// none). Events are emitted as the daemon emits them, and the log drops
// them: a handler that formats would allocate on the drain goroutine, which
// an allocation count over the whole process would charge to arbitration.
func metricsServer(tb testing.TB, pol core.Policy, m *core.PerfModel, k int) (*Server, []*session, *obs.Registry, *obs.EventLog) {
	reg := obs.NewRegistry()
	ev := obs.NewEventLog(slog.New(slog.DiscardHandler), 64, 0)
	srv, err := New(Config{Policy: pol, Model: m, Clock: logicalClock(), Metrics: reg, Events: ev})
	if err != nil {
		tb.Fatal(err)
	}
	ss := make([]*session, k)
	for i := range ss {
		ss[i] = &session{}
		srv.handle(ss[i], wire.Request{Seq: 1, Type: wire.TypeRegister, App: fmt.Sprintf("app-%02d", i), Cores: 64})
		srv.handle(ss[i], wire.Request{Seq: 2, Type: wire.TypePrepare, Info: map[string]string{core.KeyBytesTotal: "1000000"}})
		srv.handle(ss[i], wire.Request{Seq: 3, Type: wire.TypeInform})
		srv.handle(ss[i], wire.Request{Seq: 4, Type: wire.TypeWait})
	}
	return srv, ss, reg, ev
}

// TestMetricsStayAllocFree pins the instrumented arbitration cycle at zero
// allocations, metrics and sampled event emission both enabled — the same
// guard recording has — under every policy the registry builds by name.
// fairshare's least-served pick does not follow this cycle's rotation, so
// some of its cycled Releases are protocol violations, answered with
// errors built once. delay(0.50) arms its shard's recheck timer on
// arbitrations that defer a newcomer; the timer is re-armed in place, so
// that costs nothing either.
func TestMetricsStayAllocFree(t *testing.T) {
	m := &core.PerfModel{FSBandwidth: 1 << 30, ProcNIC: 1 << 20}
	for _, tc := range []struct {
		spec   string
		allocs float64
	}{{"fcfs", 0}, {"interrupt", 0}, {"interfere", 0}, {"delay(0.50)", 0}, {"dynamic(cpu-seconds)", 0}, {"fairshare(3600)", 0}} {
		t.Run(tc.spec, func(t *testing.T) {
			pol, err := core.ParsePolicy(tc.spec, m)
			if err != nil {
				t.Fatal(err)
			}
			srv, ss, _, ev := metricsServer(t, pol, m, 8)
			defer ev.Close()
			n := 0
			cycle := func() {
				s := ss[n%len(ss)]
				n++
				srv.handle(s, wire.Request{Seq: 5, Type: wire.TypeRelease})
				srv.handle(s, wire.Request{Seq: 6, Type: wire.TypeEnd})
				srv.handle(s, wire.Request{Seq: 7, Type: wire.TypeInform})
				srv.handle(s, wire.Request{Seq: 8, Type: wire.TypeWait})
			}
			for i := 0; i < 256; i++ {
				cycle() // warm the latest decision's names and the event sampler
			}
			if allocs := testing.AllocsPerRun(512, cycle); allocs > tc.allocs {
				t.Fatalf("metrics add %.2f allocs per arbitration cycle, want at most %v", allocs, tc.allocs)
			}
		})
	}
	// A refused verb is answered too, and a client repeating one costs
	// nothing: each session's error text is built once per kind. app-01
	// waits behind app-00; app-02 ended its phase and is idle.
	t.Run("refused", func(t *testing.T) {
		srv, ss, _, ev := metricsServer(t, core.FCFSPolicy{}, nil, 3)
		defer ev.Close()
		srv.handle(ss[2], wire.Request{Seq: 5, Type: wire.TypeEnd})
		srv.handle(ss[2], wire.Request{Seq: 6, Type: wire.TypeComplete})
		refused := func() {
			srv.handle(ss[1], wire.Request{Seq: 7, Type: wire.TypeWait})    // wait already pending
			srv.handle(ss[1], wire.Request{Seq: 8, Type: wire.TypeRelease}) // Release while waiting
			srv.handle(ss[2], wire.Request{Seq: 9, Type: wire.TypeRelease}) // Release while idle
			srv.handle(ss[2], wire.Request{Seq: 10, Type: wire.TypeWait})   // Wait before Inform
			srv.handle(ss[2], wire.Request{Seq: 11, Type: wire.TypeComplete})
		}
		// The first round's replies, word for word.
		ss[1].c, ss[2].c = testSession(8).c, testSession(8).c
		refused()
		var got []string
		for _, s := range ss[1:] {
			for _, r := range queued(s) {
				got = append(got, r.Code+": "+r.Err)
			}
			s.c = nil
		}
		want := []string{"protocol: wait already pending", "protocol: core: app-01: Release while waiting",
			"protocol: core: app-02: Release while idle", "protocol: core: app-02: Wait before Inform",
			"protocol: core: app-02: Complete without Prepare"}
		if !slices.Equal(got, want) {
			t.Fatalf("refusals %q, want %q", got, want)
		}
		if allocs := testing.AllocsPerRun(512, refused); allocs > 0 {
			t.Fatalf("five refused verbs cost %.2f allocs, want 0", allocs)
		}
	})
}

// BenchmarkServerArbitrateMetrics is BenchmarkServerArbitrate with the obs
// registry and sampled event log enabled: the acceptance criterion is
// identical allocs/op (0).
func BenchmarkServerArbitrateMetrics(b *testing.B) {
	srv, ss, _, ev := metricsServer(b, core.FCFSPolicy{}, nil, 16)
	defer ev.Close()
	cycle := func(holder int) {
		s := ss[holder]
		srv.handle(s, wire.Request{Seq: 5, Type: wire.TypeRelease})
		srv.handle(s, wire.Request{Seq: 6, Type: wire.TypeEnd})
		srv.handle(s, wire.Request{Seq: 7, Type: wire.TypeInform})
		srv.handle(s, wire.Request{Seq: 8, Type: wire.TypeWait})
	}
	for n := 0; n < 128; n++ {
		cycle(n % len(ss))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		cycle(n % len(ss))
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "grants/s")
}

// scrapeValue renders reg and returns the value of one series, named with
// its labels as the exposition prints it; it fails the test if the scrape
// has no such series.
func scrapeValue(t *testing.T, reg *obs.Registry, series string) uint64 {
	t.Helper()
	var b strings.Builder
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return n
		}
	}
	t.Fatalf("scrape has no %s series:\n%s", series, b.String())
	return 0
}

// TestMetricsMatchStats cross-checks the rendered scrape against the stats
// merge: both read the same arbitration stream and must agree exactly.
func TestMetricsMatchStats(t *testing.T) {
	srv, ss, reg, ev := metricsServer(t, core.FCFSPolicy{}, nil, 4)
	defer ev.Close()
	for n := 0; n < 40; n++ {
		s := ss[n%len(ss)]
		srv.handle(s, wire.Request{Seq: 5, Type: wire.TypeRelease})
		srv.handle(s, wire.Request{Seq: 6, Type: wire.TypeEnd})
		srv.handle(s, wire.Request{Seq: 7, Type: wire.TypeInform})
		srv.handle(s, wire.Request{Seq: 8, Type: wire.TypeWait})
	}
	st := srv.Stats()
	if got := scrapeValue(t, reg, `calciomd_grants_total{target=""}`); got != st.GrantsServed {
		t.Errorf("grants counter %d != stats GrantsServed %d", got, st.GrantsServed)
	}
	if got := scrapeValue(t, reg, `calciomd_arbitrations_total{target=""}`); got != st.Arbitrations {
		t.Errorf("arbitrations counter %d != stats Arbitrations %d", got, st.Arbitrations)
	}
	imm := scrapeValue(t, reg, `calciomd_waits_immediate_total{target=""}`)
	def := scrapeValue(t, reg, `calciomd_waits_deferred_total{target=""}`)
	if imm != st.WaitsImmediate || def != st.WaitsDeferred {
		t.Errorf("wait counters (%d, %d) != stats (%d, %d)", imm, def, st.WaitsImmediate, st.WaitsDeferred)
	}
	if st.WaitHist == nil {
		t.Fatal("stats carry no WaitHist with metrics enabled")
	}
	if st.WaitHist.Count != st.GrantsServed {
		t.Errorf("WaitHist.Count %d != GrantsServed %d (every wait observes)", st.WaitHist.Count, st.GrantsServed)
	}
	if q := st.WaitHist.Quantile(0.5); q < 0 {
		t.Errorf("median quantile %v", q)
	}
}

// TestAdminEndToEnd serves a traffic-bearing server's registry, health and
// status through obs.Admin and checks the scrape is consistent with stats.
func TestAdminEndToEnd(t *testing.T) {
	srv, ss, reg, ev := metricsServer(t, core.FCFSPolicy{}, nil, 4)
	defer ev.Close()
	for n := 0; n < 20; n++ {
		s := ss[n%len(ss)]
		srv.handle(s, wire.Request{Seq: 5, Type: wire.TypeRelease})
		srv.handle(s, wire.Request{Seq: 6, Type: wire.TypeEnd})
		srv.handle(s, wire.Request{Seq: 7, Type: wire.TypeInform})
		srv.handle(s, wire.Request{Seq: 8, Type: wire.TypeWait})
	}
	admin := &obs.Admin{
		Registry: reg,
		Health:   srv.Health,
		Status:   func() any { return srv.Stats() },
	}
	ts := httptest.NewServer(admin.Handler())
	defer ts.Close()

	get := func(path string) string {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return string(body)
	}

	st := srv.Stats()
	body := get("/metrics")
	if want := fmt.Sprintf("calciomd_grants_total{target=\"\"} %d", st.GrantsServed); !strings.Contains(body, want) {
		t.Errorf("/metrics missing %q", want)
	}
	if !strings.Contains(body, "calciomd_wait_seconds_bucket{target=\"\",le=\"+Inf\"}") {
		t.Error("/metrics missing wait histogram")
	}
	if want := `calciomd_app_grants_total{app="app-00",target=""}`; !strings.Contains(body, want) {
		t.Errorf("/metrics missing per-app row %q", want)
	}
	if !strings.Contains(body, fmt.Sprintf("calciomd_sessions %d", st.Sessions)) {
		t.Error("/metrics missing sessions gauge")
	}
	if got := get("/healthz"); got != "serving\n" {
		t.Errorf("/healthz: %q", got)
	}
	if got := get("/statusz"); !strings.Contains(got, `"policy": "fcfs"`) {
		t.Errorf("/statusz missing policy: %q", got)
	}
}

// TestScrapeRacesShardCreation is the -race stress test for the scrape's
// lock order: the registry renders in a loop while clients create shards on
// new targets and arbitrate on them. A shard's creation registers its
// series under the shard table's lock, and the collector takes that lock
// (through Stats) outside the registry's, so neither waits on the other.
// The last scrape counts every target's one grant.
func TestScrapeRacesShardCreation(t *testing.T) {
	const clients, targets = 8, 16
	reg := obs.NewRegistry()
	_, addr := startTestServer(t, Config{Metrics: reg})
	done, scraped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := reg.WriteTo(io.Discard); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		c, err := client.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		if err := c.Register(fmt.Sprintf("app-%02d", i), 4); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < targets; j++ {
				tg := c.Target(fmt.Sprintf("c%d-t%02d", i, j))
				for _, step := range []func() error{
					func() error { return tg.Prepare(info(1 << 20)) }, tg.Inform, tg.Wait,
					func() error { return tg.Release(0) }, tg.End, tg.Complete,
				} {
					if err := step(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	<-scraped
	var b strings.Builder
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	one := regexp.MustCompile(`(?m)^calciomd_grants_total\{target="c\d+-t\d+"\} 1$`)
	if got := len(one.FindAllString(b.String(), -1)); got != clients*targets {
		t.Fatalf("%d targets scraped with one grant, want %d:\n%s", got, clients*targets, b.String())
	}
}
