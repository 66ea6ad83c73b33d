package config

import (
	"errors"
	"fmt"
	"log/slog"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// Daemon is the configuration of calciomd, the live coordination daemon,
// one field per calciomd flag (named in each comment). The zero Daemon is
// what calciomd runs given no flags: fcfs on DefaultListenAddr, with no
// model, eviction, grace window, session bound, handshake deadline, rate
// limit, recording, admin listener or event log.
type Daemon struct {
	// ListenAddr is the TCP address to serve on (-listen; "" is
	// DefaultListenAddr).
	ListenAddr string
	// Policy is the arbitration policy's core.ParsePolicy spec (-policy):
	// "fcfs" (also ""), "interrupt", "interfere", "delay(F)" or
	// "dynamic(M)", the last two needing FSMiBps. Bare "delay" is delay(0)
	// and bare "dynamic" dynamic(cpu-seconds).
	Policy string
	// SessionTimeoutS evicts sessions idle longer than this many seconds
	// (-session-timeout); 0 disables eviction.
	SessionTimeoutS float64
	// GrantGraceS keeps a disconnected session's registration and grants
	// alive this many seconds so a reconnecting client can resume without
	// losing its place (-grant-grace); 0 drops disconnected sessions
	// immediately. Must be shorter than SessionTimeoutS when both are set —
	// the grace window is for reconnection, idle eviction for abandonment.
	GrantGraceS float64
	// FSMiBps and ProcNICMiBps describe the storage system for the
	// performance model behind the delay and dynamic policies and the live
	// interference factors in stats (-fs-mibps, -proc-nic-mibps). Optional
	// for model-free policies.
	FSMiBps      float64
	ProcNICMiBps float64
	// RecordPath, when set, records every coordination event to this file
	// (internal/trace format) for offline re-arbitration with
	// calciom-replay (-record). Recording never blocks or allocates on the
	// arbitration hot path; overflow beyond the trace package's
	// DefaultBuffer in-flight events is dropped and counted instead.
	RecordPath string
	// AdminAddr, when set, serves the observability endpoints on this TCP
	// address (-admin): /metrics (Prometheus text format), /healthz,
	// /statusz (the full stats snapshot as JSON) and net/http/pprof.
	// Enabling it also turns on hot-path metrics collection (still
	// allocation-free).
	AdminAddr string
	// LogLevel enables grant-lifecycle structured logging to stderr at the
	// given slog level (-log-level): "debug" (includes per-grant events),
	// "info", "warn" or "error". Empty disables event logging.
	LogLevel string
	// LogSample thins high-frequency grant events: only every LogSample-th
	// grant is logged (-log-sample; lifecycle events are never sampled
	// away). 0 or 1 logs every grant.
	LogSample int
	// MaxSessions bounds concurrently registered sessions (-max-sessions);
	// registrations beyond it are rejected with the retryable code "busy".
	// 0 means unlimited. Resumes of existing names never count against the
	// bound.
	MaxSessions int
	// HandshakeTimeoutS drops connections that have not completed register
	// within this many seconds of connecting (-handshake-timeout), closing
	// the slow-loris hole (idle eviction only covers registered sessions).
	// 0 disables the deadline. Must be shorter than SessionTimeoutS when
	// both are set.
	HandshakeTimeoutS float64
	// MaxRequestsPerSec rate-limits each connection with a token bucket of
	// this rate, burst equal to the rate (-max-requests-per-sec): a
	// violator gets one retryable "overloaded" reply, then is disconnected
	// on sustained abuse. 0 disables per-connection rate limiting.
	MaxRequestsPerSec float64
}

// DefaultListenAddr is the address an empty ListenAddr serves on.
const DefaultListenAddr = "127.0.0.1:9595"

// Validate checks the settings, the policy by building it. Errors name the
// calciomd flag at fault.
func (d Daemon) Validate() error {
	if _, err := d.BuildPolicy(); err != nil {
		return err
	}
	switch {
	case d.SessionTimeoutS < 0:
		return errors.New("config: -session-timeout must be >= 0")
	case d.GrantGraceS < 0:
		return errors.New("config: -grant-grace must be >= 0")
	case d.GrantGraceS > 0 && d.SessionTimeoutS > 0 && d.GrantGraceS >= d.SessionTimeoutS:
		return errors.New("config: -grant-grace must be shorter than -session-timeout")
	case d.LogSample < 0:
		return errors.New("config: -log-sample must be >= 0")
	case d.MaxSessions < 0:
		return errors.New("config: -max-sessions must be >= 1, or 0 for unlimited")
	case d.HandshakeTimeoutS < 0:
		return errors.New("config: -handshake-timeout must be >= 0")
	case d.HandshakeTimeoutS > 0 && d.SessionTimeoutS > 0 && d.HandshakeTimeoutS >= d.SessionTimeoutS:
		return errors.New("config: -handshake-timeout must be shorter than -session-timeout")
	case d.MaxRequestsPerSec < 0:
		return errors.New("config: -max-requests-per-sec must be >= 0")
	}
	if _, ok := d.EventLevel(); !ok && d.LogLevel != "" {
		return fmt.Errorf("config: unknown -log-level %q (want debug, info, warn or error)", d.LogLevel)
	}
	return nil
}

// EventLevel returns the slog level for grant-lifecycle event logging and
// whether logging is enabled at all (LogLevel nonempty and known).
func (d Daemon) EventLevel() (slog.Level, bool) {
	switch d.LogLevel {
	case "debug":
		return slog.LevelDebug, true
	case "info":
		return slog.LevelInfo, true
	case "warn":
		return slog.LevelWarn, true
	case "error":
		return slog.LevelError, true
	}
	return 0, false
}

// LogSampleN returns the grant-event sampling stride with the default
// applied (1 = every grant).
func (d Daemon) LogSampleN() int {
	return max(d.LogSample, 1)
}

// TraceHeader describes this configuration in a trace header, so offline
// replay can rebuild the recording policy and its performance model: the
// header names pol, the policy BuildPolicy built, by its complete spec.
func (d Daemon) TraceHeader(pol core.Policy) trace.Header {
	return trace.Header{
		Source:       trace.SourceDaemon,
		Policy:       pol.Name(),
		FSMiBps:      d.FSMiBps,
		ProcNICMiBps: d.ProcNICMiBps,
	}
}

// Addr returns the listen address with the default applied.
func (d Daemon) Addr() string {
	if d.ListenAddr == "" {
		return DefaultListenAddr
	}
	return d.ListenAddr
}

// SessionTimeout returns the eviction timeout as a duration.
func (d Daemon) SessionTimeout() time.Duration { return seconds(d.SessionTimeoutS) }

// GrantGrace returns the disconnect grace window as a duration.
func (d Daemon) GrantGrace() time.Duration { return seconds(d.GrantGraceS) }

// HandshakeTimeout returns the pre-register deadline as a duration.
func (d Daemon) HandshakeTimeout() time.Duration { return seconds(d.HandshakeTimeoutS) }

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// Model builds the performance model, or nil when no bandwidths are given.
func (d Daemon) Model() *core.PerfModel {
	if d.FSMiBps <= 0 {
		return nil
	}
	return &core.PerfModel{FSBandwidth: d.FSMiBps * miB, ProcNIC: d.ProcNICMiBps * miB}
}

// BuildPolicy constructs the configured arbitration policy and its model
// through core.ParsePolicy, config's aliases applied.
func (d Daemon) BuildPolicy() (core.Policy, error) {
	if d.FSMiBps < 0 || d.ProcNICMiBps < 0 {
		return nil, errors.New("config: -fs-mibps and -proc-nic-mibps must be >= 0")
	}
	spec := d.Policy
	switch spec {
	case "":
		spec = "fcfs"
	case "delay":
		spec = "delay(0)"
	case "dynamic":
		spec = "dynamic(cpu-seconds)"
	}
	p, err := core.ParsePolicy(spec, d.Model())
	if errors.Is(err, core.ErrNeedsModel) {
		return nil, fmt.Errorf("config: policy %q needs -fs-mibps for its performance model", d.Policy)
	}
	if err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	return p, nil
}
