package main

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/server"
	"repro/internal/trace"
)

// daemon is calciomd in one process: a server on a loopback port recording
// to a trace file, with the admin endpoints behind an httptest server.
type daemon struct {
	srv     *server.Server
	addr    string
	metrics string // the admin /metrics URL
	path    string // the trace
	tw      *trace.Writer
	tf      *os.File
	served  chan error // Serve's return
}

// startDaemon boots a daemon under cfg, fcfs when it names no policy,
// recording as calciomd does: the header names the policy and the model's
// bandwidths in MiB/s. The test's cleanup stops it.
func startDaemon(t *testing.T, cfg server.Config) *daemon {
	t.Helper()
	d := &daemon{path: filepath.Join(t.TempDir(), "run.trace")}
	if cfg.Policy == nil {
		cfg.Policy = core.FCFSPolicy{}
	}
	hdr := trace.Header{Source: trace.SourceDaemon, Policy: cfg.Policy.Name()}
	if m := cfg.Model; m != nil {
		hdr.FSMiBps, hdr.ProcNICMiBps = m.FSBandwidth/(1<<20), m.ProcNIC/(1<<20)
	}
	var err error
	if d.tf, err = os.Create(d.path); err != nil {
		t.Fatal(err)
	}
	opts := trace.Options{SyncEvery: trace.DefaultSyncEvery, SyncInterval: trace.DefaultSyncInterval}
	if d.tw, err = trace.NewWriterOptions(d.tf, hdr, opts); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cfg.Trace, cfg.Metrics = d.tw, reg
	if d.srv, err = server.New(cfg); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d.served = make(chan error, 1)
	go func() { d.served <- d.srv.Serve(ln) }()
	d.addr = ln.Addr().String()
	admin := httptest.NewServer((&obs.Admin{
		Registry: reg,
		Health:   d.srv.Health,
		Status:   func() any { return d.srv.Stats() },
	}).Handler())
	d.metrics = admin.URL + "/metrics"
	t.Cleanup(func() {
		admin.Close()
		d.srv.Close()
		d.tw.Close()
		d.tf.Close()
	})
	return d
}

// stop shuts the daemon down as calciomd does on SIGTERM — drain, close,
// flush the trace — and requires the shutdown clean (Serve returning nil,
// calciomd's "clean shutdown") and the trace lossless ("dropped=0"). It
// returns the final grant count and the trace.
func (d *daemon) stop(t *testing.T) (uint64, *trace.Trace) {
	t.Helper()
	d.srv.Drain()
	if err := <-d.served; err != nil {
		t.Fatalf("serve: %v", err)
	}
	d.srv.Close()
	grants := d.srv.Stats().GrantsServed
	if err := d.tw.Close(); err != nil {
		t.Fatal(err)
	}
	if n := d.tw.Dropped(); n != 0 {
		t.Fatalf("trace: dropped=%d, want 0", n)
	}
	tr, err := trace.Load(d.path)
	if err != nil {
		t.Fatal(err)
	}
	return grants, tr
}

// scrape fetches the daemon's /metrics page.
func (d *daemon) scrape(t *testing.T) string {
	t.Helper()
	resp, err := http.Get(d.metrics)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// load runs calciom-load's command line and returns what it printed; any
// exit status but 0 fails the test.
func load(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("calciom-load %s: exit %d\n%s%s", strings.Join(args, " "), code, stdout.String(), stderr.String())
	}
	return stdout.String()
}

// matches reports whether a line of out matches the regular expression re.
func matches(out, re string) bool { return regexp.MustCompile("(?m)" + re).MatchString(out) }

// grep requires a line of out to match re, as `grep -q` does.
func grep(t *testing.T, out, re string) {
	t.Helper()
	if !matches(out, re) {
		t.Fatalf("no line matches %q in:\n%s", re, out)
	}
}

// block returns out's lines that begin with prefix, as `grep '^prefix'`.
func block(out, prefix string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(out, "\n") {
		if strings.HasPrefix(line, prefix) {
			b.WriteString(line)
		}
	}
	return b.String()
}

// sample returns the value of the unlabelled series name on a /metrics page.
func sample(t *testing.T, page, name string) float64 {
	t.Helper()
	m := regexp.MustCompile(`(?m)^` + name + ` (\S+)$`).FindStringSubmatch(page)
	if m == nil {
		t.Fatalf("no %s sample in:\n%s", name, page)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// burst is the single-target workload: 64 clients x 2 phases x 3 steps is
// 384 grants a run, 64 MiB declared per phase.
var burst = []string{"-clients", "64", "-phases", "2", "-steps", "3"}

// aggBurst is burst's agg: block, the same in every codec and framing.
const aggBurst = "agg: clients=64 connected=64 tasks=128 phases=128 grants=384 mib=8192 errors=0\n"

func burstArgs(d *daemon, extra ...string) []string {
	return append(append([]string{"-addr", d.addr}, burst...), extra...)
}

// TestSmoke: the burst twice over JSON against one recording daemon gives
// byte-equal agg: blocks, /metrics answers mid-burst and then equals the
// client totals (768 grants, 768 waits observed, 130 connections: 128 load
// clients and two stats probes), the daemon serves exactly 768 grants, and
// its lossless trace replays under fcfs to the recorded grant sequence,
// the same way twice.
func TestSmoke(t *testing.T) {
	d := startDaemon(t, server.Config{})
	// Distinct -prefix per run: run 1's sessions may still be
	// unregistering when run 2 starts registering.
	var out1, errs1 bytes.Buffer
	done := make(chan int, 1)
	go func() { done <- run(burstArgs(d, "-prefix", "run1"), &out1, &errs1) }()
	// The admin listener answers under load. The first shard, and with it
	// the series, exists only once a client has coordinated: poll for it,
	// boundedly.
	mid := d.scrape(t)
	for i := 0; i < 500 && !matches(mid, `^calciomd_arbitrations_total`); i++ {
		time.Sleep(10 * time.Millisecond)
		mid = d.scrape(t)
	}
	if code := <-done; code != 0 {
		t.Fatalf("run1: exit %d\n%s%s", code, out1.String(), errs1.String())
	}
	grep(t, mid, `^calciomd_arbitrations_total`)
	out2 := load(t, burstArgs(d, "-prefix", "run2", "-scrape", d.metrics)...)
	for _, out := range []string{out1.String(), out2} {
		if got := block(out, "agg:"); got != aggBurst {
			t.Fatalf("agg block %q, want %q", got, aggBurst)
		}
	}
	grep(t, out2, `^scrape: grants=768 `)
	grep(t, out2, `wait-count=768 connections=130 mux-connections=0$`)
	page := d.scrape(t)
	grep(t, page, `^calciomd_grants_total\{target=""\} 768$`)
	grep(t, page, `^calciomd_wait_seconds_count\{target=""\} 768$`)

	grants, tr := d.stop(t)
	if grants != 768 {
		t.Fatalf("daemon served %d grants, want 768", grants)
	}
	t.Run("replay", func(t *testing.T) {
		if v := verify(t, tr); v.GrantsServed != 768 {
			t.Fatalf("replay: grants=%d, want 768", v.GrantsServed)
		}
	})
}

// verify replays a daemon trace under its recording policy twice and
// requires the recorded grant sequence reproduced, and the two replays and
// two what-if comparisons of every policy equal.
func verify(t *testing.T, tr *trace.Trace) replay.VerifyResult {
	t.Helper()
	var vs []replay.VerifyResult
	var cs []replay.Comparison
	for range 2 {
		v, err := replay.Verify(tr)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Header.Policy != "fcfs" || !v.Match {
			t.Fatalf("verify: policy=%s match=%v %s", tr.Header.Policy, v.Match, v.Mismatch)
		}
		c, err := replay.Compare(tr, replay.StandardPolicies(tr.Header, -1))
		if err != nil {
			t.Fatal(err)
		}
		vs, cs = append(vs, v), append(cs, c)
	}
	if !reflect.DeepEqual(vs[0], vs[1]) || !reflect.DeepEqual(cs[0], cs[1]) {
		t.Fatal("two replays of one trace differ")
	}
	return vs[0]
}

// TestSmokeBinaryCodec: the burst twice over the v2 binary codec and once
// multiplexed over 8 connections prints the JSON runs' agg: block, and the
// daemon counts every connection by codec and framing (128 binary, 8 mux,
// 3 JSON stats probes), saw group commit batch frames, and counted the raw
// bytes under the codecs.
func TestSmokeBinaryCodec(t *testing.T) {
	d := startDaemon(t, server.Config{})
	out1 := load(t, burstArgs(d, "-prefix", "run1", "-codec", "binary")...)
	out2 := load(t, burstArgs(d, "-prefix", "run2", "-codec", "binary", "-scrape", d.metrics)...)
	// The same workload a third time, its 64 sessions riding 8 shared
	// connections (protocol v3).
	mux := load(t, burstArgs(d, "-prefix", "run3", "-mux-conns", "8", "-scrape", d.metrics)...)
	for _, out := range []string{out1, out2, mux} {
		if got := block(out, "agg:"); got != aggBurst {
			t.Fatalf("agg block %q, want %q", got, aggBurst)
		}
	}
	grep(t, out2, `^scrape: grants=768 `)
	grep(t, out2, `connections=130 mux-connections=0$`)
	grep(t, mux, `^scrape: grants=1152 `)
	grep(t, mux, `connections=139 mux-connections=8$`)
	page := d.scrape(t)
	grep(t, page, `^calciomd_connections_total\{codec="binary",mux="false"\} 128$`)
	grep(t, page, `^calciomd_connections_total\{codec="binary",mux="true"\} 8$`)
	grep(t, page, `^calciomd_connections_total\{codec="json",mux="false"\} 3$`)
	// Group commit batched: the histogram saw flushes, and at least one
	// carried more than one frame.
	count, sum := sample(t, page, "calciomd_mux_batch_frames_count"), sample(t, page, "calciomd_mux_batch_frames_sum")
	if count <= 0 || sum <= count {
		t.Fatalf("mux batches: count=%v frames=%v, want count > 0 and frames > count", count, sum)
	}
	for _, name := range []string{"calciomd_bytes_in_total", "calciomd_bytes_out_total"} {
		if v := sample(t, page, name); v <= 0 {
			t.Fatalf("%s = %v, want > 0", name, v)
		}
	}
	if grants, _ := d.stop(t); grants != 1152 {
		t.Fatalf("daemon served %d grants, want 1152", grants)
	}
}

// TestSmokeChurn: 32 clients connecting, registering, taking one grant and
// disconnecting 8 times each, in each codec, is 256 connects and 256
// grants with no error, and the daemon serves exactly 512.
func TestSmokeChurn(t *testing.T) {
	d := startDaemon(t, server.Config{})
	const churn = "churn: clients=32 loops=8 connects=256 grants=256 errors=0"
	churnArgs := []string{"-addr", d.addr, "-clients", "32", "-churn", "-churn-loops", "8"}
	grep(t, load(t, append(churnArgs, "-prefix", "ch")...), "^"+churn+"$")
	out := load(t, append(churnArgs, "-prefix", "chb", "-codec", "binary")...)
	grep(t, out, "^"+churn+"$")
	grep(t, out, `grants-served=512$`)
	if grants, _ := d.stop(t); grants != 512 {
		t.Fatalf("daemon served %d grants, want 512", grants)
	}
}

// TestSmokeMultiTarget: the daemon sharded over 4 storage targets. Two
// bursts of 32 clients x 4 phases x 2 steps print byte-equal agg blocks,
// 64 grants per target each; /metrics splits the 512 grants exactly 128
// per target label and nothing else grants; the daemon serves exactly
// 512 with a lossless trace, which replays per shard.
func TestSmokeMultiTarget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	d := startDaemon(t, server.Config{})
	multiTargetBursts(t, d)
	page := d.scrape(t)
	for _, target := range []string{"t0", "t1", "t2", "t3"} {
		grep(t, page, `^calciomd_grants_total\{target="`+target+`"\} 128$`)
	}
	if n := len(regexp.MustCompile(`(?m)^calciomd_grants_total`).FindAllString(page, -1)); n != 4 {
		t.Fatalf("%d calciomd_grants_total series, want 4", n)
	}

	grants, tr := d.stop(t)
	if grants != 512 {
		t.Fatalf("daemon served %d grants, want 512", grants)
	}
	t.Run("replay", func(t *testing.T) { verifyShards(t, tr) })
}

// multiTargetBursts runs two bursts of 32 clients x 4 phases x 2 steps over
// 4 targets, and requires each to print the same agg block: 64 grants per
// target.
func multiTargetBursts(t *testing.T, d *daemon) {
	t.Helper()
	args := []string{"-addr", d.addr, "-clients", "32", "-phases", "4", "-steps", "2", "-targets", "4"}
	const agg = "agg: clients=32 connected=32 tasks=128 phases=128 grants=256 mib=8192 errors=0\n" +
		"agg-target: target=t0 phases=32 grants=64 mib=2048\n" +
		"agg-target: target=t1 phases=32 grants=64 mib=2048\n" +
		"agg-target: target=t2 phases=32 grants=64 mib=2048\n" +
		"agg-target: target=t3 phases=32 grants=64 mib=2048\n"
	for _, prefix := range []string{"mt1", "mt2"} {
		if got := block(load(t, append(args, "-prefix", prefix)...), "agg"); got != agg {
			t.Fatalf("agg block %q, want %q", got, agg)
		}
	}
}

// TestSmokeDynamic closes the paper's loop: a daemon configured with bare
// dynamic and a model serves TestSmokeMultiTarget's bursts, its recording
// verifies on every shard, and the policy the what-if study recommends,
// named as calciom-replay prints it, is one a trace header — calciomd's
// -policy and model flags — builds back equal to the policy compared.
func TestSmokeDynamic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	hdr := trace.Header{Policy: "dynamic", FSMiBps: 4096, ProcNICMiBps: 3}
	pol, err := hdr.BuildPolicy()
	if err != nil {
		t.Fatal(err)
	}
	d := startDaemon(t, server.Config{Policy: pol, Model: hdr.Model()})
	multiTargetBursts(t, d)
	grants, tr := d.stop(t)
	if grants != 512 {
		t.Fatalf("daemon served %d grants, want 512", grants)
	}
	v, err := replay.Verify(tr)
	if err != nil {
		t.Fatal(err)
	}
	if v.Policy != "dynamic(cpu-seconds)" || !v.Match || v.GrantsServed != 512 || len(v.Shards) != 4 {
		t.Fatalf("verify: policy=%s match=%v grants=%d shards=%d %s", v.Policy, v.Match, v.GrantsServed, len(v.Shards), v.Mismatch)
	}
	for _, sh := range v.Shards {
		if !sh.Match || sh.GrantsServed != 128 {
			t.Fatalf("verify-target %+v, want a match at 128 grants", sh)
		}
	}
	cands := replay.StandardPolicies(tr.Header, -1)
	c, err := replay.Compare(tr, cands)
	if err != nil {
		t.Fatal(err)
	}
	best := c.Outcomes[c.Best].Policy
	hdr.Policy = best
	if pol, err = hdr.BuildPolicy(); err != nil || !reflect.DeepEqual(pol, cands[c.Best]) {
		t.Fatalf("the recommended %s builds %#v, %v; compared %#v", best, pol, err, cands[c.Best])
	}
}

// verifyShards replays the sharded trace as verify does, and requires
// every shard's recorded sequence reproduced with 128 grants and 64 flips,
// and the what-if study the same on one P as on four.
func verifyShards(t *testing.T, tr *trace.Trace) {
	t.Helper()
	v := verify(t, tr)
	if v.GrantsServed != 512 || len(v.Shards) != 4 {
		t.Fatalf("replay: grants=%d shards=%d, want 512 and 4", v.GrantsServed, len(v.Shards))
	}
	for i, sh := range v.Shards {
		want := replay.ShardVerify{Target: "t" + strconv.Itoa(i), GrantsServed: 128, Flips: 64, Recorded: 64, Match: true}
		if sh != want {
			t.Fatalf("verify-target %+v, want %+v", sh, want)
		}
	}
	// The replays run on as many workers as there are Ps; the study,
	// per-application rows included, must not show how many.
	var cs []replay.Comparison
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		c, err := replay.Compare(tr, replay.StandardPolicies(tr.Header, -1))
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, c)
	}
	if !reflect.DeepEqual(cs[0], cs[1]) {
		t.Fatal("the what-if study differs between GOMAXPROCS 1 and 4")
	}
}

// TestSmokeFlood: twice as many clients as the daemon admits, registering
// at once under a rate limit, split exactly: 32 admitted and answered one
// grant each, 32 refused busy, none shed and no error on either side.
func TestSmokeFlood(t *testing.T) {
	d := startDaemon(t, server.Config{MaxSessions: 32, RateLimit: 200})
	out := load(t, "-addr", d.addr, "-prefix", "fl", "-clients", "64", "-flood")
	grep(t, out, `^shed: clients=64 admitted=32 busy=32 overloaded=0 grants=32 errors=0$`)
	grep(t, out, `grants-served=32$`)
	if grants, _ := d.stop(t); grants != 32 {
		t.Fatalf("daemon served %d grants, want 32", grants)
	}
}

// TestSWFSkipsUnknownSize: SWF marks a processor count it does not know
// with -1; such a job is not replayed, so it neither registers nor lowers
// the declared MiB.
func TestSWFSkipsUnknownSize(t *testing.T) {
	d := startDaemon(t, server.Config{})
	path := filepath.Join(t.TempDir(), "jobs.swf")
	swf := "1 0 0 60 64 -1 -1 -1 -1 -1 1 1 1 -1 1 -1 -1 -1\n" +
		"2 10 0 60 -1 -1 -1 -1 -1 -1 1 1 1 -1 1 -1 -1 -1\n" +
		"3 20 0 60 128 -1 -1 -1 -1 -1 1 1 1 -1 1 -1 -1 -1\n"
	if err := os.WriteFile(path, []byte(swf), 0o644); err != nil {
		t.Fatal(err)
	}
	out := load(t, "-addr", d.addr, "-swf", path, "-clients", "2")
	grep(t, out, `^agg: clients=2 connected=2 tasks=2 phases=2 grants=2 mib=192 errors=0$`)
	_, tr := d.stop(t)
	for _, ev := range tr.Events {
		if ev.Type == trace.EvRegister && ev.Cores <= 0 {
			t.Fatalf("%s registered with %d cores", ev.App, ev.Cores)
		}
	}
}

// TestMetricsDocumented holds doc.go's Observability section to a smoke
// scrape, both ways: every calciomd_* family the scrape renders is named
// there, and every family named there is rendered. A name ending in * is a
// prefix (calciomd_app_*, the per-application rows). The burst's sessions
// stay in their grace window, so the scrape carries application rows.
func TestMetricsDocumented(t *testing.T) {
	src, err := os.ReadFile("../../doc.go")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(src)
	start := strings.Index(doc, "\n// # Observability\n")
	if start < 0 {
		t.Fatal("doc.go has no Observability section")
	}
	doc = doc[start+1:]
	if end := strings.Index(doc[1:], "\n// # "); end >= 0 {
		doc = doc[:end+1]
	}
	documented := regexp.MustCompile(`calciomd_[a-z0-9_]*[a-z0-9*]`).FindAllString(doc, -1)
	slices.Sort(documented)
	documented = slices.Compact(documented)

	d := startDaemon(t, server.Config{GrantGrace: time.Minute})
	load(t, burstArgs(d)...)
	var rendered []string
	for _, m := range regexp.MustCompile(`(?m)^# TYPE (calciomd_\S+) `).FindAllStringSubmatch(d.scrape(t), -1) {
		rendered = append(rendered, m[1])
	}
	d.stop(t)

	names := func(name, family string) bool {
		prefix, ok := strings.CutSuffix(name, "*")
		return name == family || ok && strings.HasPrefix(family, prefix)
	}
	for _, family := range rendered {
		if !slices.ContainsFunc(documented, func(name string) bool { return names(name, family) }) {
			t.Errorf("the scrape renders %s, which doc.go's Observability section does not name", family)
		}
	}
	for _, name := range documented {
		if !slices.ContainsFunc(rendered, func(family string) bool { return names(name, family) }) {
			t.Errorf("doc.go's Observability section names %s, which the scrape does not render", name)
		}
	}
}

// TestUsageErrors: a command line the tool cannot run exits 2 before it
// dials anything or prints a report. -record and -register-target are
// gone: the daemon's -record is the coordination trace, and a client's
// default target is the daemon's.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-nonesuch"},
		{"-record", filepath.Join(t.TempDir(), "run.trace")},
		{"-register-target", "t0"},
		{"-stagger", "1ms"},
		{"-swf-mib-per-proc", "2"},
		{"-codec", "xml"},
		{"-clients", "0"},
		{"-churn", "-churn-loops", "0"},
		{"-mux-conns", "-1"},
		{"-targets", "-1"},
		{"-jobs", "-1"},
		{"-flood", "-flood-checks", "-1"},
		{"-flood", "-mux-conns", "2"},
		{"-swf", filepath.Join(t.TempDir(), "missing.swf")},
	} {
		var stdout, stderr bytes.Buffer
		// Nothing listens on port 1: a run that got as far as dialing
		// would fail there with a different status.
		if code := run(append([]string{"-addr", "127.0.0.1:1"}, args...), &stdout, &stderr); code != 2 {
			t.Errorf("calciom-load %q: exit %d, want 2", args, code)
		}
		if stdout.Len() > 0 || stderr.Len() == 0 {
			t.Errorf("calciom-load %q printed %q to stdout and %q to stderr", args, stdout.String(), stderr.String())
		}
	}
}
