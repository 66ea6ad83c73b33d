package server

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/obs"
	"repro/internal/wire"
)

// shardMetrics is one target's hot-path instrumentation, resolved once at
// shard creation so arbitration only ever touches atomic adds through
// pointers the shard already holds. Nil when the server has no registry.
type shardMetrics struct {
	grants         *obs.Counter
	arbitrations   *obs.Counter
	revokes        *obs.Counter
	waitsImmediate *obs.Counter
	waitsDeferred  *obs.Counter
	queueDepth     *obs.Gauge
	waitSeconds    *obs.Histogram
	holdSeconds    *obs.Histogram
	sheds          *obs.Counter
}

func newShardMetrics(r *obs.Registry, target string) *shardMetrics {
	l := obs.Label{Key: "target", Value: target}
	return &shardMetrics{
		grants: r.Counter("calciomd_grants_total",
			"Wait authorizations served, by storage target.", l),
		arbitrations: r.Counter("calciomd_arbitrations_total",
			"Arbitration rounds run, by storage target.", l),
		revokes: r.Counter("calciomd_revokes_total",
			"Authorizations revoked by arbitration, by storage target.", l),
		waitsImmediate: r.Counter("calciomd_waits_immediate_total",
			"Waits answered without deferral (already authorized).", l),
		waitsDeferred: r.Counter("calciomd_waits_deferred_total",
			"Waits parked until a later arbitration granted access.", l),
		queueDepth: r.Gauge("calciomd_queue_depth",
			"Waits currently parked on the target.", l),
		waitSeconds: r.Histogram("calciomd_wait_seconds",
			"Wait-to-grant latency in seconds (immediate waits observe 0).",
			obs.DefaultLatencyBuckets, l),
		holdSeconds: r.Histogram("calciomd_hold_seconds",
			"Grant hold time in seconds, from serve to release/end/revoke.",
			obs.DefaultLatencyBuckets, l),
		sheds: r.Counter("calciomd_sheds_total",
			"Advisory requests shed with code overloaded while the target was in brownout.", l),
	}
}

// serverMetrics is the control-plane slice: degraded/fail-open folds and
// resume churn, accumulated on the control goroutine.
type serverMetrics struct {
	selfGrants      *obs.Counter
	degradedSeconds *obs.FloatCounter
	resumes         *obs.Counter

	// Overload-protection counters: admission rejects, stats sheds on the
	// control queue, per-connection rate-limit violations, handshake
	// deadline drops, and slow-client write-buffer disconnects.
	busyRejects       *obs.Counter
	statsSheds        *obs.Counter
	rateLimited       *obs.Counter
	handshakeTimeouts *obs.Counter
	slowDisconnects   *obs.Counter

	// Connection-machinery counters: connections by negotiated wire codec
	// and mux mode, and raw wire bytes in each direction (counted per
	// syscall-level read and write beneath the per-connection buffers).
	connsJSON      *obs.Counter
	connsBinary    *obs.Counter
	connsBinaryMux *obs.Counter
	bytesIn        *obs.Counter
	bytesOut       *obs.Counter

	// Mux instrumentation: live logical streams across all mux connections,
	// and how many response frames each group-commit flush carried (the
	// batching the mux write loop exists to produce).
	muxStreams     *obs.Gauge
	muxBatchFrames *obs.Histogram
}

// conns returns the connection counter for a negotiated codec and mux mode.
func (m *serverMetrics) conns(codec string, mux bool) *obs.Counter {
	switch {
	case mux:
		return m.connsBinaryMux
	case codec == "binary":
		return m.connsBinary
	default:
		return m.connsJSON
	}
}

// muxBatchBuckets bounds the group-commit batch-size histogram: powers of
// two up to the default write-buffer capacity.
var muxBatchBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

func newServerMetrics(r *obs.Registry) *serverMetrics {
	return &serverMetrics{
		selfGrants: r.Counter("calciomd_self_grants_total",
			"Waits clients granted themselves during fail-open windows, as reported on (re-)register."),
		degradedSeconds: r.FloatCounter("calciomd_degraded_seconds_total",
			"Seconds clients reported spending in degraded (uncoordinated) mode."),
		resumes: r.Counter("calciomd_resumes_total",
			"Successful resume registrations (connection churn)."),
		busyRejects: r.Counter("calciomd_busy_rejects_total",
			"Registrations rejected with code busy at the max_sessions bound."),
		statsSheds: r.Counter("calciomd_stats_sheds_total",
			"Stats requests shed with code overloaded while the control queue was in brownout."),
		rateLimited: r.Counter("calciomd_rate_limited_total",
			"Per-connection rate-limit violations (code overloaded; sustained abuse disconnects)."),
		handshakeTimeouts: r.Counter("calciomd_handshake_timeouts_total",
			"Connections dropped for not completing register within handshake_timeout_s."),
		slowDisconnects: r.Counter("calciomd_slow_disconnects_total",
			"Clients disconnected because their response buffer overflowed (too slow to drain)."),
		connsJSON: r.Counter("calciomd_connections_total",
			"Connections that completed codec negotiation, by wire codec and mux mode.",
			obs.Label{Key: "codec", Value: "json"}, obs.Label{Key: "mux", Value: "false"}),
		connsBinary: r.Counter("calciomd_connections_total",
			"Connections that completed codec negotiation, by wire codec and mux mode.",
			obs.Label{Key: "codec", Value: "binary"}, obs.Label{Key: "mux", Value: "false"}),
		connsBinaryMux: r.Counter("calciomd_connections_total",
			"Connections that completed codec negotiation, by wire codec and mux mode.",
			obs.Label{Key: "codec", Value: "binary"}, obs.Label{Key: "mux", Value: "true"}),
		bytesIn: r.Counter("calciomd_bytes_in_total",
			"Wire bytes read from client connections."),
		bytesOut: r.Counter("calciomd_bytes_out_total",
			"Wire bytes written to client connections."),
		muxStreams: r.Gauge("calciomd_mux_streams",
			"Live logical session streams across all mux connections."),
		muxBatchFrames: r.Histogram("calciomd_mux_batch_frames",
			"Response frames per group-commit flush on mux connections.",
			muxBatchBuckets),
	}
}

// Draining reports whether Drain has begun and Close has not finished —
// the window in which /healthz answers "draining".
func (srv *Server) Draining() bool {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	return srv.draining && !srv.closed
}

// Overloaded reports whether the control queue or any shard is currently in
// brownout (shedding advisory verbs).
func (srv *Server) Overloaded() bool {
	if srv.ctrlHot.Load() {
		return true
	}
	srv.shmu.RLock()
	defer srv.shmu.RUnlock()
	for _, sh := range srv.shardList {
		if sh.hot.Load() {
			return true
		}
	}
	return false
}

// Health returns the daemon's health word for /healthz: "closed",
// "draining", "overloaded" (the control queue or a shard is in brownout and
// advisory verbs are being shed), "degraded" (some client has reported fail-open
// coordination) or "serving".
func (srv *Server) Health() string {
	srv.mu.Lock()
	closed, draining := srv.closed, srv.draining
	srv.mu.Unlock()
	switch {
	case closed:
		return "closed"
	case draining:
		return "draining"
	case srv.Overloaded():
		return "overloaded"
	case srv.degradedSeen.Load():
		return "degraded"
	default:
		return "serving"
	}
}

// WriteStatsMetrics renders scrape-time metric series computed from the
// stats merge — per-application rows and machine-wide aggregates that would
// be wasteful to maintain on the hot path. It is meant as the Extra hook of
// an obs.Admin, appended after the registry's own families. Output is
// deterministic: Stats sorts Apps by (name, target) and Degraded by name.
func (srv *Server) WriteStatsMetrics(w io.Writer) {
	st := srv.Stats()
	fmt.Fprintf(w, "# HELP calciomd_sessions Connected (or grace-window) sessions.\n# TYPE calciomd_sessions gauge\ncalciomd_sessions %d\n", st.Sessions)
	fmt.Fprintf(w, "# HELP calciomd_cpu_seconds_wasted Core-seconds idled by I/O slowdown (paper §IV metric).\n# TYPE calciomd_cpu_seconds_wasted gauge\ncalciomd_cpu_seconds_wasted %s\n", formatScrapeFloat(st.CPUSecondsWasted))
	writeAppCounter(w, st, "calciomd_app_grants_total", "Grants served per application and target.", "counter",
		func(a *wire.AppStats) string { return fmt.Sprintf("%d", a.Grants) })
	writeAppCounter(w, st, "calciomd_app_io_seconds_total", "Cumulative I/O phase time per application and target.", "counter",
		func(a *wire.AppStats) string { return formatScrapeFloat(a.IOTimeS) })
	writeAppCounter(w, st, "calciomd_app_wait_seconds_total", "Cumulative wait time per application and target.", "counter",
		func(a *wire.AppStats) string { return formatScrapeFloat(a.WaitTimeS) })
	if len(st.Degraded) > 0 {
		fmt.Fprintf(w, "# HELP calciomd_app_resumes_total Successful resumes per application name.\n# TYPE calciomd_app_resumes_total counter\n")
		for i := range st.Degraded {
			d := &st.Degraded[i]
			fmt.Fprintf(w, "calciomd_app_resumes_total{app=\"%s\"} %d\n", scrapeEscape(d.Name), d.Resumes)
		}
	}
}

func writeAppCounter(w io.Writer, st wire.Stats, name, help, kind string, value func(*wire.AppStats) string) {
	if len(st.Apps) == 0 {
		return
	}
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
	for i := range st.Apps {
		a := &st.Apps[i]
		fmt.Fprintf(w, "%s{app=\"%s\",target=\"%s\"} %s\n",
			name, scrapeEscape(a.Name), scrapeEscape(a.Target), value(a))
	}
}

var scrapeEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func scrapeEscape(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	return scrapeEscaper.Replace(v)
}

// formatScrapeFloat matches obs's float rendering so the appended series
// read like the registry's.
func formatScrapeFloat(v float64) string {
	return fmt.Sprintf("%g", v)
}

// histFromSnapshot converts an obs histogram snapshot into the wire summary
// riding stats.
func histFromSnapshot(s obs.HistSnapshot) *wire.Hist {
	return &wire.Hist{BoundsS: s.Bounds, Counts: s.Counts, SumS: s.Sum, Count: s.Count}
}
