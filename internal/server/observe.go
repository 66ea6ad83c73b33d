package server

import "repro/internal/obs"

// shardMetrics is one target's hot-path instrumentation, resolved once at
// shard creation so arbitration only ever touches atomic adds through
// pointers the shard already holds. Nil when the server has no registry.
// The counts the shard's ledgers and Domain keep are not here: collect
// renders them from the stats snapshot.
type shardMetrics struct {
	revokes     *obs.Counter
	queueDepth  *obs.Gauge
	waitSeconds *obs.Histogram
	holdSeconds *obs.Histogram
	sheds       *obs.Counter
}

func newShardMetrics(r *obs.Registry, target string) *shardMetrics {
	l := obs.Label{Key: "target", Value: target}
	return &shardMetrics{
		revokes: r.Counter("calciomd_revokes_total",
			"Authorizations revoked by arbitration, by storage target.", l),
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

// serverMetrics is the daemon-wide instrumentation the stats snapshot does
// not keep.
type serverMetrics struct {
	// Overload-protection counters: admission rejects, stats sheds at the
	// control lock, per-connection rate-limit violations, handshake
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
	// and how many response frames each write carried, whoever made it (the
	// reader before its next read, or the writer goroutine).
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
		busyRejects: r.Counter("calciomd_busy_rejects_total",
			"Registrations rejected with code busy at the -max-sessions bound."),
		statsSheds: r.Counter("calciomd_stats_sheds_total",
			"Stats requests shed with code overloaded while the control lock was in brownout."),
		rateLimited: r.Counter("calciomd_rate_limited_total",
			"Per-connection rate-limit violations (code overloaded; sustained abuse disconnects)."),
		handshakeTimeouts: r.Counter("calciomd_handshake_timeouts_total",
			"Connections dropped for not completing register within -handshake-timeout."),
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
	return srv.draining.Load() && !srv.closed
}

// Overloaded reports whether the control lock or any shard is currently in
// brownout (shedding advisory verbs).
func (srv *Server) Overloaded() bool {
	if srv.ctl.hot.Load() {
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
// "draining", "overloaded" (the control lock or a shard is in brownout and
// advisory verbs are being shed), "degraded" (some client has reported fail-open
// coordination) or "serving".
func (srv *Server) Health() string {
	srv.mu.Lock()
	closed, draining := srv.closed, srv.draining.Load()
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

// collect is the registry's scrape-time collector: from one Stats snapshot
// it renders the counts the daemon already keeps for stats — the ledgers'
// grants and wait split, each Domain's arbitrations, the control plane's
// fail-open table — and the stats merge's per-application rows, so a scrape
// and a stats request read one source.
func (srv *Server) collect(r *obs.Registry) {
	st := srv.Stats()
	r.Gauge("calciomd_sessions", "Connected (or grace-window) sessions.").Set(int64(st.Sessions))
	r.FloatGauge("calciomd_cpu_seconds_wasted", "Core-seconds idled by I/O slowdown (paper §IV metric).").Add(st.CPUSecondsWasted)
	for i := range st.Targets {
		t := &st.Targets[i]
		l := obs.Label{Key: "target", Value: t.Target}
		r.Counter("calciomd_grants_total", "Wait authorizations served, by storage target.", l).Add(t.GrantsServed)
		r.Counter("calciomd_arbitrations_total", "Arbitration rounds run, by storage target.", l).Add(t.Arbitrations)
		r.Counter("calciomd_waits_immediate_total", "Waits answered without deferral (already authorized).", l).Add(t.WaitsImmediate)
		r.Counter("calciomd_waits_deferred_total", "Waits parked until a later arbitration granted access.", l).Add(t.WaitsDeferred)
	}
	for i := range st.Apps {
		a := &st.Apps[i]
		l := []obs.Label{{Key: "app", Value: a.Name}, {Key: "target", Value: a.Target}}
		r.Counter("calciomd_app_grants_total", "Grants served per application and target.", l...).Add(a.Grants)
		r.FloatCounter("calciomd_app_io_seconds_total", "Cumulative I/O phase time per application and target.", l...).Add(a.IOTimeS)
		r.FloatCounter("calciomd_app_wait_seconds_total", "Cumulative wait time per application and target.", l...).Add(a.WaitTimeS)
	}
	resumes := uint64(0)
	for i := range st.Degraded {
		d := &st.Degraded[i]
		r.Counter("calciomd_app_resumes_total", "Successful resumes per application name.",
			obs.Label{Key: "app", Value: d.Name}).Add(d.Resumes)
		resumes += d.Resumes
	}
	r.Counter("calciomd_self_grants_total",
		"Waits clients granted themselves during fail-open windows, as reported on (re-)register.").Add(st.SelfGrants)
	r.FloatCounter("calciomd_degraded_seconds_total",
		"Seconds clients reported spending in degraded (uncoordinated) mode.").Add(st.DegradedS)
	r.Counter("calciomd_resumes_total", "Successful resume registrations (connection churn).").Add(resumes)
}
