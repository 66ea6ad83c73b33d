// Command calciomd runs the CALCioM coordination layer as a live daemon:
// applications connect over TCP (internal/wire protocol), declare their I/O
// phases, and the configured policy arbitrates who may access the file
// system — the paper's coordination API served online instead of inside the
// simulator.
//
// Configuration comes from a strict JSON file (internal/config.Daemon) with
// flag overrides:
//
//	calciomd -config daemon.json
//	calciomd -listen 127.0.0.1:9595 -policy fcfs -session-timeout 60
//
// With -record (or record_path in the config) the daemon writes every
// coordination event to a trace file; calciom-replay re-arbitrates such a
// trace offline under every policy. Recording adds no allocation or
// blocking to the arbitration hot path.
//
// With -admin (or admin_addr) the daemon serves its observability endpoints
// on a second address: /metrics in Prometheus text format (per-target grant,
// arbitration and revoke counters, queue depth, wait and hold latency
// histograms, per-app rows from the stats merge), /healthz
// (serving/draining/degraded), /statusz (the full stats snapshot as JSON)
// and net/http/pprof under /debug/pprof/. Collection uses the same
// discipline as recording: atomic adds into preallocated series, zero
// allocation on the hot path. With -log-level the daemon additionally emits
// a structured grant-lifecycle event stream to stderr (sampled per
// -log-sample for the high-frequency grant events).
//
// On SIGINT/SIGTERM the daemon drains gracefully: the listener closes, every
// pending Wait is answered with a retryable "draining" error (reconnecting
// clients back off and resume against the daemon's successor), the trace
// trailer is flushed, and the daemon reports the grants it served. With
// -grant-grace a disconnected client's registration and grants survive the
// given window, so a client that reconnects in time resumes instead of
// starting over. Pair it with calciom-load for a quick smoke:
//
//	calciomd -listen 127.0.0.1:9595 -record run.trace   # terminal 1
//	calciom-load -addr 127.0.0.1:9595                   # terminal 2
//	calciom-replay -trace run.trace                     # afterwards
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/config"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/trace"
)

func main() {
	cfgPath := flag.String("config", "", "JSON daemon configuration file")
	listen := flag.String("listen", "", "listen address (overrides config)")
	policy := flag.String("policy", "", "arbitration policy: fcfs|interrupt|interfere|delay (overrides config)")
	timeout := flag.Float64("session-timeout", -1, "evict sessions idle this many seconds; 0 disables (overrides config)")
	grace := flag.Float64("grant-grace", -1, "keep a disconnected session's grants this many seconds for resume; 0 drops immediately (overrides config)")
	record := flag.String("record", "", "record every coordination event to this trace file (overrides config)")
	statsEvery := flag.Duration("stats-interval", 0, "print a live metrics line this often (0 = off)")
	quiet := flag.Bool("quiet", false, "suppress connection lifecycle logging")
	admin := flag.String("admin", "", "serve /metrics, /healthz, /statusz and pprof on this address, e.g. 127.0.0.1:9596 (overrides config)")
	logLevel := flag.String("log-level", "", "grant-lifecycle event logging to stderr: debug|info|warn|error; empty = off (overrides config)")
	logSample := flag.Int("log-sample", -1, "log every Nth grant event; lifecycle events always log (overrides config)")
	maxSessions := flag.Int("max-sessions", 0, "reject registrations beyond this many live sessions with a retryable busy error; 0 = unlimited (overrides config)")
	handshakeTimeout := flag.Float64("handshake-timeout", -1, "drop connections that have not registered within this many seconds; 0 disables (overrides config)")
	maxRPS := flag.Float64("max-requests-per-sec", -1, "per-connection request rate limit; 0 disables (overrides config)")
	acceptLoops := flag.Int("accept-loops", -1, "shard the listener accept loop across this many goroutines; 0 or 1 = single loop (overrides config)")
	sockBuffer := flag.Int("sock-buffer", -1, "kernel socket read/write buffer bytes per connection; 0 = OS default (overrides config)")
	drainLinger := flag.Duration("drain-linger", 0, "after a drain signal, keep /healthz answering \"draining\" this long (or until a second signal) before shutting down")
	flag.Parse()

	d := config.Daemon{}
	if *cfgPath != "" {
		var err error
		if d, err = config.LoadDaemon(*cfgPath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	if *listen != "" {
		d.ListenAddr = *listen
	}
	if *policy != "" {
		d.Policy = *policy
	}
	if *timeout >= 0 {
		d.SessionTimeoutS = *timeout
	}
	if *grace >= 0 {
		d.GrantGraceS = *grace
	}
	if *record != "" {
		d.RecordPath = *record
	}
	if *admin != "" {
		d.AdminAddr = *admin
	}
	if *logLevel != "" {
		d.LogLevel = *logLevel
	}
	if *logSample >= 0 {
		d.LogSample = *logSample
	}
	if *maxSessions > 0 {
		d.MaxSessions = *maxSessions
	}
	if *handshakeTimeout >= 0 {
		d.HandshakeTimeoutS = *handshakeTimeout
	}
	if *maxRPS >= 0 {
		d.MaxRequestsPerSec = *maxRPS
	}
	if *acceptLoops >= 0 {
		d.AcceptLoops = *acceptLoops
	}
	if *sockBuffer >= 0 {
		d.SockBufferBytes = *sockBuffer
	}
	if err := d.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	pol, err := d.BuildPolicy()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var tw *trace.Writer
	var tf *os.File
	if d.RecordPath != "" {
		tf, err = os.Create(d.RecordPath)
		if err == nil {
			// Crash-consistent by default: periodic sync points bound how
			// much trace a kill -9 loses, and calciom-replay -allow-truncated
			// reads the survivors.
			tw, err = trace.NewWriterOptions(tf, d.TraceHeader(), d.TraceOptions())
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	if *quiet {
		logf = nil
	}

	// Metrics collection rides the admin listener: no listener, no registry,
	// and the hot path runs exactly the pre-observability instruction stream.
	var reg *obs.Registry
	if d.AdminAddr != "" {
		reg = obs.NewRegistry()
	}
	var evlog *obs.EventLog
	if level, ok := d.EventLevel(); ok {
		handler := slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level})
		evlog = obs.NewEventLog(slog.New(handler), d.LogSampleN(), 0)
	}

	srv, err := server.New(server.Config{
		ListenAddr:       d.Addr(),
		Policy:           pol,
		Model:            d.Model(),
		SessionTimeout:   d.SessionTimeout(),
		GrantGrace:       d.GrantGrace(),
		MaxSessions:      d.MaxSessions,
		HandshakeTimeout: d.HandshakeTimeout(),
		RateLimit:        d.MaxRequestsPerSec,
		AcceptLoops:      d.AcceptLoops,
		SockBuffer:       d.SockBufferBytes,
		LogBound:         d.DecisionLog,
		Logf:             logf,
		Trace:            tw,
		Metrics:          reg,
		Events:           evlog,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var adminSrv *http.Server
	if d.AdminAddr != "" {
		handler := (&obs.Admin{
			Registry: reg,
			Extra:    srv.WriteStatsMetrics,
			Health:   srv.Health,
			Status:   func() any { return srv.Stats() },
		}).Handler()
		adminLn, err := net.Listen("tcp", d.AdminAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		adminSrv = &http.Server{Handler: handler}
		go adminSrv.Serve(adminLn)
		if logf != nil {
			logf("calciomd: admin on %s", adminLn.Addr())
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	secondSig := make(chan struct{})
	go func() {
		// First signal: graceful drain — stop accepting, answer pending
		// waits with a retryable "draining" error, let main flush the trace
		// trailer (and, with -drain-linger, keep /healthz answering
		// "draining" for the window). Second signal: immediate shutdown.
		<-sig
		srv.Drain()
		<-sig
		close(secondSig)
		srv.Close()
	}()

	if *statsEvery > 0 {
		go func() {
			for range time.Tick(*statsEvery) {
				st := srv.Stats()
				fmt.Printf("calciomd: t=%.1fs sessions=%d grants=%d arbitrations=%d cpu-sec-wasted=%.1f convoy-wait=%.3fs proto-wait=%.3fs\n",
					st.NowS, st.Sessions, st.GrantsServed, st.Arbitrations, st.CPUSecondsWasted,
					st.ConvoyWaitS, st.ProtocolWaitS)
			}
		}()
	}

	if err := srv.ListenAndServe(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// A drained daemon can linger so operators (and the chaos smoke) observe
	// /healthz reporting "draining" before teardown; a second signal cuts
	// the linger short.
	if *drainLinger > 0 && srv.Draining() {
		select {
		case <-time.After(*drainLinger):
		case <-secondSig:
		}
	}
	// ListenAndServe returns as soon as the accept loop stops; connection
	// readers may still be arbitrating (and recording). Close blocks until
	// the whole teardown — including the signal goroutine's — is complete
	// and every shard is marked stopped, so the trace writer below cannot
	// race a Record.
	srv.Close()
	if adminSrv != nil {
		adminSrv.Close()
	}
	if evlog != nil {
		evlog.Close()
		if n := evlog.Dropped(); n > 0 && logf != nil {
			logf("calciomd: events: %d dropped (buffer overflow)", n)
		}
	}
	st := srv.Stats()
	fmt.Printf("calciomd: clean shutdown: policy=%s grants-served=%d arbitrations=%d uptime=%.3fs\n",
		st.Policy, st.GrantsServed, st.Arbitrations, st.NowS)
	if tw != nil {
		err := tw.Close()
		if cerr := tf.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "calciomd: trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("calciomd: trace: events=%d dropped=%d path=%s\n",
			tw.Recorded(), tw.Dropped(), d.RecordPath)
	}
}
