package main

import (
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/internal/wirebin"
)

// liveSpec shapes one live workload: an in-process daemon, at most
// pinnedProcs physical loopback connections, and closed-loop clients that
// each retire grant cycles (Inform, Wait, Release(0), End: four requests,
// one grant) one at a time — an HPC application blocks in Wait, so a slower
// daemon is offered less load.
type liveSpec struct {
	codec    wire.Codec // plain: one connection per session with this codec
	mux      bool       // sessions are streams on pinnedProcs mux connections
	sessions int
	nclients int
	targets  int
	// recorded runs the daemon in production shape: trace recording and the
	// sampled event log on the hot path, next to the metrics every live
	// workload enables.
	recorded bool
	// opsPerS only sizes the latency-sample buffers; it is the rate the
	// prototype saw on a 2-vCPU Xeon.
	opsPerS float64
}

var liveSpecs = map[string]liveSpec{
	"plain-json":         {codec: wire.JSON, sessions: 2, nclients: 2, targets: 2, opsPerS: 19e3},
	"plain-binary":       {codec: wirebin.Codec{}, sessions: 2, nclients: 2, targets: 2, opsPerS: 23e3},
	"mux-fanin":          {mux: true, sessions: 256, nclients: 64, targets: 64, opsPerS: 90e3},
	"contended-recorded": {mux: true, sessions: 64, nclients: 64, targets: 1, recorded: true, opsPerS: 16e3},
}

// eventSample is the recorded workload's grant-event sampling stride: every
// lifecycle event plus one grant in a hundred reaches the (discarded) log.
const eventSample = 100

type live struct {
	name string
	spec liveSpec
	o    options

	reg       *obs.Registry
	srv       *server.Server
	tw        *trace.Writer
	tf        *os.File
	ev        *obs.EventLog
	muxes     []*client.Mux
	sessions  []*client.Client
	handles   [][]client.Target // per client, the target handles it rotates over
	depth     []*obs.Gauge      // calciomd_queue_depth, one per target
	base      scrape            // after warm-up, before the first region
	baseServe uint64

	registerNs []int64
	// holders counts clients between Wait and Release on the single
	// contended target; fcfs serializes, so it must never exceed one.
	holders  atomic.Int32
	overlaps atomic.Int64
	depthMax atomic.Int64
}

func (l *live) clients() int { return l.spec.nclients }

func (l *live) tracePath() string { return outPath(l.o, l.name+".trace") }

func (l *live) setup() error {
	cfg := server.Config{Policy: core.FCFSPolicy{}, Metrics: obs.NewRegistry()}
	l.reg = cfg.Metrics
	if l.spec.recorded {
		var err error
		if l.tf, err = os.Create(l.tracePath()); err != nil {
			return err
		}
		hdr := trace.Header{Source: trace.SourceDaemon, Policy: "fcfs"}
		opts := trace.Options{SyncEvery: trace.DefaultSyncEvery, SyncInterval: trace.DefaultSyncInterval}
		if l.tw, err = trace.NewWriterOptions(l.tf, hdr, opts); err != nil {
			return err
		}
		l.ev = obs.NewEventLog(slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelDebug})), eventSample, 0)
		cfg.Trace, cfg.Events = l.tw, l.ev
	}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	l.srv = srv
	go srv.Serve(ln) // returns when teardown closes the server
	addr := ln.Addr().String()

	if l.spec.mux {
		for i := 0; i < pinnedProcs; i++ {
			m, err := client.DialMux(addr, client.Options{})
			if err != nil {
				return err
			}
			l.muxes = append(l.muxes, m)
		}
	}
	l.registerNs = l.registerNs[:0]
	for i := 0; i < l.spec.sessions; i++ {
		var c *client.Client
		if l.spec.mux {
			c, err = l.muxes[i%len(l.muxes)].Client()
		} else {
			c, err = client.DialOptions(addr, client.Options{Codec: l.spec.codec})
		}
		if err != nil {
			return err
		}
		l.sessions = append(l.sessions, c)
		t0 := time.Now()
		if err := c.Register(fmt.Sprintf("bench-%03d", i), 1); err != nil {
			return err
		}
		l.registerNs = append(l.registerNs, int64(time.Since(t0)))
	}

	// The seed decides which sessions (and so which streams of which
	// connection) each client rotates over; client w always drives target
	// t<w mod targets>.
	l.handles = make([][]client.Target, l.spec.nclients)
	for k, s := range rand.New(rand.NewSource(l.o.seed)).Perm(l.spec.sessions) {
		w := k % l.spec.nclients
		l.handles[w] = append(l.handles[w], l.sessions[s].Target(targetName(w%l.spec.targets)))
	}
	// One warm cycle per session: codec negotiation, shard creation and the
	// clients' pooled call state are out of the timed region.
	for _, hs := range l.handles {
		for _, tg := range hs {
			if err := l.cycle(tg); err != nil {
				return fmt.Errorf("warm cycle: %w", err)
			}
		}
	}
	l.depth = l.depth[:0]
	for t := 0; t < l.spec.targets; t++ {
		l.depth = append(l.depth, l.reg.Gauge("calciomd_queue_depth", "",
			obs.Label{Key: "target", Value: targetName(t)}))
	}
	if l.base, err = scrapeRegistry(l.reg); err != nil {
		return err
	}
	l.baseServe = srv.GrantsServed()
	return nil
}

func targetName(t int) string { return fmt.Sprintf("t%d", t) }

func (l *live) teardown() {
	l.shutdown()
	if l.spec.recorded {
		os.Remove(l.tracePath())
	}
}

// shutdown stops the clients and the daemon; a recorded trace stays on disk.
func (l *live) shutdown() {
	for _, c := range l.sessions {
		c.Close()
	}
	for _, m := range l.muxes {
		m.Close()
	}
	l.sessions, l.muxes = nil, nil
	if l.srv != nil {
		l.srv.Close()
		l.srv = nil
	}
	// The daemon owns neither the writer nor the log: close them only once
	// its arbitration goroutines have exited.
	if l.tw != nil {
		l.tw.Close()
		l.tf.Close()
		l.tw, l.tf = nil, nil
	}
	if l.ev != nil {
		l.ev.Close()
		l.ev = nil
	}
}

// cycle is one op of every live workload. On the single contended target it
// also brackets the interval the client believes it alone is authorized.
func (l *live) cycle(tg client.Target) error {
	if err := tg.Inform(); err != nil {
		return err
	}
	if err := tg.Wait(); err != nil {
		return err
	}
	if l.spec.targets == 1 {
		l.holdCheck()
	}
	if err := tg.Release(0); err != nil {
		return err
	}
	return tg.End()
}

func (l *live) holdCheck() {
	if l.holders.Add(1) > 1 {
		l.overlaps.Add(1)
	}
	l.holders.Add(-1)
}

// cycleTraced is cycle with a span around each client.Target verb, children
// of the op span. It is spelled out call by call: a helper taking the verb
// as a func value would allocate a closure per call and bill it to tracing.
func (l *live) cycleTraced(tg client.Target, rec *recorder, op uint32, base time.Time, t0 int64) error {
	now := func() int64 { return int64(time.Since(base)) }
	root := rec.begin(spOp, -1, op, t0)
	defer func() { rec.end(root, now()) }()

	id := rec.begin(spInform, root, op, now())
	err := tg.Inform()
	rec.end(id, now())
	if err != nil {
		return err
	}
	id = rec.begin(spWait, root, op, now())
	err = tg.Wait()
	rec.end(id, now())
	if err != nil {
		return err
	}
	if l.spec.targets == 1 {
		l.holdCheck()
	}
	id = rec.begin(spRelease, root, op, now())
	err = tg.Release(0)
	rec.end(id, now())
	if err != nil {
		return err
	}
	id = rec.begin(spEnd, root, op, now())
	err = tg.End()
	rec.end(id, now())
	return err
}

func (l *live) run(window time.Duration, nwin int, traced bool) region {
	n := l.spec.nclients
	d := int64(window) * int64(nwin)
	hint := int(1.5*float64(d)/1e9*l.spec.opsPerS)/n + 64
	logs := make([]*samples, n)
	recs := make([]*recorder, n)
	failed := make([]int, n)
	for i := range logs {
		logs[i] = newSamples(hint, window)
		if traced {
			recs[i] = &recorder{spans: make([]span, 0, 5*hint)}
		}
	}
	stopSampler := func() {}
	if traced {
		stopSampler = l.sampleQueueDepth()
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	base := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			hs, log, rec := l.handles[w], logs[w], recs[w]
			for k := 0; ; k++ {
				tg := hs[k%len(hs)]
				t0 := int64(time.Since(base))
				var err error
				if rec != nil {
					err = l.cycleTraced(tg, rec, uint32(k), base, t0)
				} else {
					err = l.cycle(tg)
				}
				t1 := int64(time.Since(base))
				if err != nil {
					// A failed op ends its client: the session's protocol
					// state is unknown, and a shed or disconnect must show
					// as an error, not as a retry storm.
					fmt.Fprintf(os.Stderr, "%s: op failed: %v\n", l.name, err)
					failed[w]++
					return
				}
				log.add(t0, t1)
				if t1 >= d {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	runtime.ReadMemStats(&after)
	stopSampler()
	r := region{windows: cutWindows(logs, nwin), mallocs: after.Mallocs - before.Mallocs}
	for i := range logs {
		r.ops += len(logs[i].lat)
		r.failed += failed[i]
	}
	if traced {
		r.recs = recs
	}
	return r
}

// sampleQueueDepth polls the per-target parked-wait gauges every 10 ms
// until the returned stop function is called.
func (l *live) sampleQueueDepth() (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				for _, g := range l.depth {
					if v := g.Value(); v > l.depthMax.Load() {
						l.depthMax.Store(v)
					}
				}
			}
		}
	}()
	return func() { close(quit); <-done }
}

func (l *live) finish(all *region, spans *spanStats, m metricSet) []check {
	var checks []check
	t0 := time.Now()
	st := l.srv.Stats()
	statsMs := float64(time.Since(t0)) / 1e6
	now, err := scrapeRegistry(l.reg)
	if err != nil {
		return []check{gate("scrape", false, "%v", err)}
	}
	d := now.sub(l.base)
	ops := float64(all.ops)
	reqs := 4 * ops
	served := st.GrantsServed - l.baseServe
	checks = append(checks,
		gate("Server.GrantsServed delta == ops", served == uint64(all.ops), "%d grants, %d ops", served, all.ops),
		gate("calciomd_grants_total delta == ops", d.sum("calciomd_grants_total") == ops,
			"%.0f grants, %d ops", d.sum("calciomd_grants_total"), all.ops))
	rejects := d.sum("calciomd_sheds_total") + d.sum("calciomd_rate_limited_total") + d.sum("calciomd_slow_disconnects_total")
	checks = append(checks, gate("nothing shed, rate-limited or disconnected", rejects == 0, "%.0f rejects", rejects))

	in, out := d.sum("calciomd_bytes_in_total"), d.sum("calciomd_bytes_out_total")
	m.set("wire_bytes_per_req", ratio(in+out, reqs))
	if l.o.traced {
		m.set("server.bytes_in_per_req", ratio(in, reqs))
		m.set("server.bytes_out_per_req", ratio(out, reqs))
		m.set("server.mux_frames_per_flush",
			ratio(d["calciomd_mux_batch_frames_sum"], d["calciomd_mux_batch_frames_count"]))
		m.set("server.arbitrations_per_grant", ratio(d.sum("calciomd_arbitrations_total"), ops))
		deferred := d.sum("calciomd_waits_deferred_total")
		m.set("server.waits_deferred_share", ratio(deferred, deferred+d.sum("calciomd_waits_immediate_total")))
		m.set("server.wait_p50_us", 1e6*d.histQuantile("calciomd_wait_seconds", 0.5))
		m.set("server.hold_p50_us", 1e6*d.histQuantile("calciomd_hold_seconds", 0.5))
		m.set("server.queue_depth_max", float64(l.depthMax.Load()))
		m.set("server.sheds_total", d.sum("calciomd_sheds_total"))
		m.set("server.rate_limited_total", d.sum("calciomd_rate_limited_total"))
		m.set("server.slow_disconnects_total", d.sum("calciomd_slow_disconnects_total"))
		m.set("server.stats_ms", statsMs)

		t1 := time.Now()
		l.reg.WriteTo(io.Discard)
		m.set("obs.render_ms", float64(time.Since(t1))/1e6)

		m.set("client.inform_p50_us", spans.p50us(spInform))
		m.set("client.wait_p50_us", spans.p50us(spWait))
		m.set("client.release_p50_us", spans.p50us(spRelease))
		m.set("client.end_p50_us", spans.p50us(spEnd))
		m.set("client.cycle_p99_us", us(percentile(spans.durs[spOp], 99)))
		if _, v, ok := tailPercentile(spans.durs[spOp]); ok {
			m.set("client.cycle_pmax10_us", us(v))
		}
		m.set("client.wait_share", ratio(float64(spans.total[spWait]), float64(spans.total[spOp])))
		slices.Sort(l.registerNs)
		m.set("client.register_p50_us", us(percentile(l.registerNs, 50)))
	}

	if l.spec.targets == 1 {
		checks = append(checks, gate("at most one holder at a time", l.overlaps.Load() == 0,
			"%d overlapping holds", l.overlaps.Load()))
	}
	if l.spec.recorded {
		checks = append(checks, l.verifyTrace(m)...)
	}
	return checks
}

// verifyTrace shuts the daemon down (the trailer is written at Close),
// checks the recording is lossless and replays it: every shard's grant
// sequence must reproduce event for event.
func (l *live) verifyTrace(m metricSet) []check {
	tw := l.tw
	l.shutdown()
	checks := []check{gate("trace.Writer dropped nothing", tw.Dropped() == 0, "%d dropped", tw.Dropped())}
	tr, err := trace.Load(l.tracePath())
	if err != nil {
		return append(checks, gate("replay.Verify matches", false, "load: %v", err))
	}
	t0 := time.Now()
	v, err := replay.Verify(tr)
	if err != nil {
		return append(checks, gate("replay.Verify matches", false, "%v", err))
	}
	if l.o.traced {
		m.set("trace.dropped", float64(tw.Dropped()))
		m.set("replay.verify_events_per_s", ratio(float64(len(tr.Events)), time.Since(t0).Seconds()))
	}
	return append(checks, gate("replay.Verify matches", v.Match && len(v.Shards) == l.spec.targets,
		"match=%v shards=%d %s", v.Match, len(v.Shards), v.Mismatch))
}
