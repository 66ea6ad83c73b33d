// Command calciomd runs the CALCioM coordination layer as a live daemon:
// applications connect over TCP (internal/wire protocol), declare their I/O
// phases, and the configured policy arbitrates who may access the file
// system — the paper's coordination API served online instead of inside the
// simulator.
//
// Its flags are its whole configuration: the policy and model flags make a
// trace.Header, which builds the policy; the settings flags fill a
// server.Config, which server.New checks. Given none, it serves fcfs on
// 127.0.0.1:9595:
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
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/trace"
)

// defaultListen is the address an empty -listen serves on.
const defaultListen = "127.0.0.1:9595"

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
	var cfg server.Config
	hdr := trace.Header{Source: trace.SourceDaemon}
	listen := fs.String("listen", "", "listen address (default "+defaultListen+")")
	fs.StringVar(&hdr.Policy, "policy", "", "arbitration policy: "+core.PolicySpecs+"; bare delay is delay(0), bare dynamic dynamic(cpu-seconds), delay and dynamic need -fs-mibps (default fcfs)")
	fs.Float64Var(&hdr.FSMiBps, "fs-mibps", 0, "file system bandwidth in MiB/s, for the performance model of delay and dynamic and the live interference factors")
	fs.Float64Var(&hdr.ProcNICMiBps, "proc-nic-mibps", 0, "per-process NIC bandwidth in MiB/s, for the performance model")
	sessionTimeout := fs.Float64("session-timeout", 0, "evict sessions idle this many seconds; 0 disables")
	grantGrace := fs.Float64("grant-grace", 0, "keep a disconnected session's grants this many seconds for resume; 0 drops immediately")
	record := fs.String("record", "", "record every coordination event to this trace file")
	admin := fs.String("admin", "", "serve /metrics, /healthz, /statusz and pprof on this address, e.g. 127.0.0.1:9596")
	logLevel := fs.String("log-level", "", "grant-lifecycle event logging to stderr: debug|info|warn|error; empty = off")
	logSample := fs.Int("log-sample", 0, "log every Nth grant event; lifecycle events always log (0 = every grant)")
	fs.IntVar(&cfg.MaxSessions, "max-sessions", 0, "reject registrations beyond this many live sessions with a retryable busy error; 0 = unlimited")
	handshakeTimeout := fs.Float64("handshake-timeout", 0, "drop connections that have not registered within this many seconds; 0 disables")
	fs.Float64Var(&cfg.RateLimit, "max-requests-per-sec", 0, "per-connection request rate limit; 0 disables")
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
	levels := map[string]slog.Level{"debug": slog.LevelDebug, "info": slog.LevelInfo, "warn": slog.LevelWarn, "error": slog.LevelError}
	level, ok := levels[*logLevel]
	if *logLevel != "" && !ok {
		return fail(2, fmt.Errorf("calciomd: unknown -log-level %q (want debug, info, warn or error)", *logLevel))
	}
	if *logSample < 0 {
		return fail(2, errors.New("calciomd: -log-sample must be >= 0"))
	}
	var err error
	if cfg.Policy, err = hdr.BuildPolicy(); err != nil {
		return fail(2, fmt.Errorf("calciomd: %w", err))
	}
	hdr.Policy = cfg.Policy.Name() // the header names the complete spec
	cfg.Model = hdr.Model()
	cfg.SessionTimeout, cfg.GrantGrace, cfg.HandshakeTimeout = seconds(*sessionTimeout), seconds(*grantGrace), seconds(*handshakeTimeout)
	// A daemon that cannot serve must not truncate the recording at
	// -record: New checks the settings before anything listens, and the
	// server that serves is built once the listener and trace exist.
	if _, err := server.New(cfg); err != nil {
		return fail(2, err)
	}
	ln, err := net.Listen("tcp", cmp.Or(*listen, defaultListen))
	if err != nil {
		return fail(1, err)
	}
	defer ln.Close() // Serve owns it from there on; this covers the error returns

	var tf *os.File
	if *record != "" {
		if tf, err = os.Create(*record); err != nil {
			return fail(2, err)
		}
		// The shutdown below closes and checks both; these cover the
		// error returns.
		defer tf.Close()
		// Crash-consistent by default: periodic sync points bound how
		// much trace a kill -9 loses, and calciom-replay -allow-truncated
		// reads the survivors.
		opts := trace.Options{SyncEvery: trace.DefaultSyncEvery, SyncInterval: trace.DefaultSyncInterval}
		if cfg.Trace, err = trace.NewWriterOptions(tf, hdr, opts); err != nil {
			return fail(2, err)
		}
		defer cfg.Trace.Close()
	}

	logf := func(format string, args ...any) {
		fmt.Fprintf(stderr, format+"\n", args...)
	}
	if *quiet {
		logf = nil
	}
	cfg.Logf = logf

	// Metrics collection rides the admin listener: no listener, no registry,
	// and the hot path runs exactly the pre-observability instruction stream.
	if *admin != "" {
		cfg.Metrics = obs.NewRegistry()
	}
	if *logLevel != "" {
		handler := slog.NewTextHandler(stderr, &slog.HandlerOptions{Level: level})
		cfg.Events = obs.NewEventLog(slog.New(handler), *logSample, 0)
	}
	srv, err := server.New(cfg)
	if err != nil {
		return fail(2, err)
	}
	defer srv.Close() // before the trace closes, on every return

	var adminSrv *http.Server
	if *admin != "" {
		handler := (&obs.Admin{
			Registry: cfg.Metrics,
			Health:   srv.Health,
			Status:   func() any { return srv.Stats() },
		}).Handler()
		adminLn, err := net.Listen("tcp", *admin)
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
	if ev := cfg.Events; ev != nil {
		ev.Close()
		if n := ev.Dropped(); n > 0 && logf != nil {
			logf("calciomd: events: %d dropped (buffer overflow)", n)
		}
	}
	st := srv.Stats()
	fmt.Fprintf(stdout, "calciomd: clean shutdown: policy=%s grants-served=%d arbitrations=%d uptime=%.3fs\n",
		st.Policy, st.GrantsServed, st.Arbitrations, st.NowS)
	if tw := cfg.Trace; tw != nil {
		err := tw.Close()
		if cerr := tf.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fail(1, fmt.Errorf("calciomd: trace: %w", err))
		}
		fmt.Fprintf(stdout, "calciomd: trace: events=%d dropped=%d path=%s\n",
			tw.Recorded(), tw.Dropped(), *record)
	}
	return 0
}

// seconds converts a flag's seconds to a duration, rounding down so that a
// negative setting stays negative for server.New to refuse.
func seconds(s float64) time.Duration {
	return time.Duration(math.Floor(s * float64(time.Second)))
}
