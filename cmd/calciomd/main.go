// Command calciomd runs the CALCioM coordination layer as a live daemon:
// applications connect over TCP (internal/wire protocol), declare their I/O
// phases, and the configured policy arbitrates who may access the file
// system — the paper's coordination API served online instead of inside the
// simulator.
//
// Its flags are its whole configuration (internal/config.Daemon); given
// none, it serves fcfs on 127.0.0.1:9595:
//
//	calciomd -listen 127.0.0.1:9595 -policy fcfs -session-timeout 60
//	calciomd -policy 'delay(0.25)' -fs-mibps 4096 -proc-nic-mibps 3
//
// With -record the daemon writes every coordination event to a trace file;
// calciom-replay re-arbitrates such a trace offline under every policy.
// Recording adds no allocation or blocking to the arbitration hot path.
//
// With -admin the daemon serves its observability endpoints on a second
// address: /metrics in Prometheus text format (per-target grant,
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
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/trace"
)

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, sig))
}

// run is the daemon: it serves until the first value on sig drains it (a
// second one, or a closed sig, cuts the drain short), reports to stdout and
// logs to stderr, and returns the exit status — 2 when the command line or
// the configuration is at fault, 1 when serving or the trace failed.
func run(args []string, stdout, stderr io.Writer, sig <-chan os.Signal) int {
	fs := flag.NewFlagSet("calciomd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var d config.Daemon
	fs.StringVar(&d.ListenAddr, "listen", "", "listen address (default "+config.DefaultListenAddr+")")
	fs.StringVar(&d.Policy, "policy", "", "arbitration policy: "+core.PolicySpecs+"; bare delay is delay(0), bare dynamic dynamic(cpu-seconds), delay and dynamic need -fs-mibps (default fcfs)")
	fs.Float64Var(&d.FSMiBps, "fs-mibps", 0, "file system bandwidth in MiB/s, for the performance model of delay and dynamic and the live interference factors")
	fs.Float64Var(&d.ProcNICMiBps, "proc-nic-mibps", 0, "per-process NIC bandwidth in MiB/s, for the performance model")
	fs.Float64Var(&d.SessionTimeoutS, "session-timeout", 0, "evict sessions idle this many seconds; 0 disables")
	fs.Float64Var(&d.GrantGraceS, "grant-grace", 0, "keep a disconnected session's grants this many seconds for resume; 0 drops immediately")
	fs.StringVar(&d.RecordPath, "record", "", "record every coordination event to this trace file")
	fs.StringVar(&d.AdminAddr, "admin", "", "serve /metrics, /healthz, /statusz and pprof on this address, e.g. 127.0.0.1:9596")
	fs.StringVar(&d.LogLevel, "log-level", "", "grant-lifecycle event logging to stderr: debug|info|warn|error; empty = off")
	fs.IntVar(&d.LogSample, "log-sample", 0, "log every Nth grant event; lifecycle events always log (0 = every grant)")
	fs.IntVar(&d.MaxSessions, "max-sessions", 0, "reject registrations beyond this many live sessions with a retryable busy error; 0 = unlimited")
	fs.Float64Var(&d.HandshakeTimeoutS, "handshake-timeout", 0, "drop connections that have not registered within this many seconds; 0 disables")
	fs.Float64Var(&d.MaxRequestsPerSec, "max-requests-per-sec", 0, "per-connection request rate limit; 0 disables")
	quiet := fs.Bool("quiet", false, "suppress connection lifecycle logging")
	drainLinger := fs.Duration("drain-linger", 0, "after a drain signal, keep /healthz answering \"draining\" this long (or until a second signal) before shutting down")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	fail := func(status int, err error) int {
		fmt.Fprintln(stderr, err)
		return status
	}
	if err := d.Validate(); err != nil {
		return fail(2, err)
	}
	pol, err := d.BuildPolicy()
	if err != nil {
		return fail(2, err)
	}
	// Listen before creating the trace: a daemon that cannot serve must not
	// truncate the recording at -record.
	ln, err := net.Listen("tcp", d.Addr())
	if err != nil {
		return fail(1, err)
	}
	defer ln.Close() // Serve owns it from there on; this covers the error returns

	var tw *trace.Writer
	var tf *os.File
	if d.RecordPath != "" {
		if tf, err = os.Create(d.RecordPath); err != nil {
			return fail(2, err)
		}
		// The shutdown below closes and checks both; these cover the
		// error returns.
		defer tf.Close()
		// Crash-consistent by default: periodic sync points bound how
		// much trace a kill -9 loses, and calciom-replay -allow-truncated
		// reads the survivors.
		opts := trace.Options{SyncEvery: trace.DefaultSyncEvery, SyncInterval: trace.DefaultSyncInterval}
		if tw, err = trace.NewWriterOptions(tf, d.TraceHeader(pol), opts); err != nil {
			return fail(2, err)
		}
		defer tw.Close()
	}

	logf := func(format string, args ...any) {
		fmt.Fprintf(stderr, format+"\n", args...)
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
		handler := slog.NewTextHandler(stderr, &slog.HandlerOptions{Level: level})
		evlog = obs.NewEventLog(slog.New(handler), d.LogSampleN(), 0)
	}

	srv, err := server.New(server.Config{
		Policy:           pol,
		Model:            d.Model(),
		SessionTimeout:   d.SessionTimeout(),
		GrantGrace:       d.GrantGrace(),
		MaxSessions:      d.MaxSessions,
		HandshakeTimeout: d.HandshakeTimeout(),
		RateLimit:        d.MaxRequestsPerSec,
		Logf:             logf,
		Trace:            tw,
		Metrics:          reg,
		Events:           evlog,
	})
	if err != nil {
		return fail(2, err)
	}
	defer srv.Close() // before the trace closes, on every return

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
			return fail(2, err)
		}
		adminSrv = &http.Server{Handler: handler}
		go adminSrv.Serve(adminLn)
		if logf != nil {
			logf("calciomd: admin on %s", adminLn.Addr())
		}
	}

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

	if err := srv.Serve(ln); err != nil {
		return fail(1, err)
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
	// Serve returns as soon as the accept loop stops; connection
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
	fmt.Fprintf(stdout, "calciomd: clean shutdown: policy=%s grants-served=%d arbitrations=%d uptime=%.3fs\n",
		st.Policy, st.GrantsServed, st.Arbitrations, st.NowS)
	if tw != nil {
		err := tw.Close()
		if cerr := tf.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fail(1, fmt.Errorf("calciomd: trace: %w", err))
		}
		fmt.Fprintf(stdout, "calciomd: trace: events=%d dropped=%d path=%s\n",
			tw.Recorded(), tw.Dropped(), d.RecordPath)
	}
	return 0
}
