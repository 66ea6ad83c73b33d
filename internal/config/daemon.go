package config

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// Daemon is the JSON configuration of calciomd, the live coordination
// daemon. Like Scenario it is strict: unknown keys are rejected with line
// positions, so a typo'd setting cannot silently fall back to a default.
type Daemon struct {
	// ListenAddr is the TCP address to serve on (default "127.0.0.1:9595").
	ListenAddr string `json:"listen_addr,omitempty"`
	// Policy is the arbitration policy's core.ParsePolicy spec: "fcfs" (the
	// default), "interrupt", "interfere", "delay(F)" or "dynamic(M)", the
	// last two needing fs_mibps. Bare "delay" is delay(delay_overlap) and
	// bare "dynamic" dynamic(cpu-seconds).
	Policy string `json:"policy,omitempty"`
	// DelayOverlap is bare "delay"'s overlap fraction; no other policy takes one.
	DelayOverlap float64 `json:"delay_overlap,omitempty"`
	// SessionTimeoutS evicts sessions idle longer than this many seconds;
	// 0 disables eviction.
	SessionTimeoutS float64 `json:"session_timeout_s,omitempty"`
	// GrantGraceS keeps a disconnected session's registration and grants
	// alive this many seconds so a reconnecting client can resume without
	// losing its place; 0 drops disconnected sessions immediately. Must be
	// shorter than session_timeout_s when both are set — the grace window
	// is for reconnection, idle eviction is for abandonment.
	GrantGraceS float64 `json:"grant_grace_s,omitempty"`
	// FSMiBps and ProcNICMiBps describe the storage system for the
	// performance model behind the delay policy and the live interference
	// factors in stats. Optional for model-free policies.
	FSMiBps      float64 `json:"fs_mibps,omitempty"`
	ProcNICMiBps float64 `json:"proc_nic_mibps,omitempty"`
	// RecordPath, when set, records every coordination event to this file
	// (internal/trace format) for offline re-arbitration with
	// calciom-replay. Recording never blocks or allocates on the
	// arbitration hot path; overflow beyond the trace package's
	// DefaultBuffer in-flight events is dropped and counted instead.
	RecordPath string `json:"record_path,omitempty"`
	// AdminAddr, when set, serves the observability endpoints on this TCP
	// address: /metrics (Prometheus text format), /healthz, /statusz (the
	// full stats snapshot as JSON) and net/http/pprof. Enabling it also
	// turns on hot-path metrics collection (still allocation-free). Empty
	// disables the listener and collection entirely.
	AdminAddr string `json:"admin_addr,omitempty"`
	// LogLevel enables grant-lifecycle structured logging to stderr at the
	// given slog level: "debug" (includes per-grant events), "info",
	// "warn" or "error". Empty disables event logging.
	LogLevel string `json:"log_level,omitempty"`
	// LogSample thins high-frequency grant events: only every LogSample-th
	// grant is logged (lifecycle events are never sampled away). 0 or 1
	// logs every grant.
	LogSample int `json:"log_sample,omitempty"`
	// MaxSessions bounds concurrently registered sessions; registrations
	// beyond it are rejected with the retryable code "busy". 0 means
	// unlimited. Resumes of existing names never count against the bound.
	MaxSessions int `json:"max_sessions,omitempty"`
	// HandshakeTimeoutS drops connections that have not completed register
	// within this many seconds of connecting, closing the slow-loris hole
	// (idle eviction only covers registered sessions). 0 disables the
	// deadline. Must be shorter than session_timeout_s when both are set.
	HandshakeTimeoutS float64 `json:"handshake_timeout_s,omitempty"`
	// MaxRequestsPerSec rate-limits each connection with a token bucket of
	// this rate (burst equal to the rate): a violator gets one retryable
	// "overloaded" reply, then is disconnected on sustained abuse. 0
	// disables per-connection rate limiting.
	MaxRequestsPerSec float64 `json:"max_requests_per_sec,omitempty"`
}

// DefaultListenAddr is used when listen_addr is omitted.
const DefaultListenAddr = "127.0.0.1:9595"

// ParseDaemon reads a strict JSON daemon configuration.
func ParseDaemon(r io.Reader) (Daemon, error) {
	data, err := readAll(r)
	if err != nil {
		return Daemon{}, err
	}
	var d Daemon
	if err := strictUnmarshal(data, &d); err != nil {
		return Daemon{}, err
	}
	if err := d.validateAt(data); err != nil {
		return Daemon{}, err
	}
	if err := d.Validate(); err != nil {
		return Daemon{}, err
	}
	return d, nil
}

// validateAt re-checks the overload-protection settings against the raw
// document so the error carries a line:column position pointing at the
// offending key, like strictUnmarshal's own errors. Only checks that need
// the document are here: an explicit max_sessions below 1 (indistinguishable
// from "unset" after unmarshal — 0 is the unlimited default when the key is
// absent) and a handshake deadline at or past the idle-eviction timeout.
func (d Daemon) validateAt(data []byte) error {
	if off := findKey(data, "max_sessions"); off >= 0 && d.MaxSessions < 1 {
		line, col := lineCol(data, off)
		return fmt.Errorf("config: line %d:%d: max_sessions must be >= 1 (omit the key for unlimited)", line, col)
	}
	if d.HandshakeTimeoutS > 0 && d.SessionTimeoutS > 0 && d.HandshakeTimeoutS >= d.SessionTimeoutS {
		if off := findKey(data, "handshake_timeout_s"); off >= 0 {
			line, col := lineCol(data, off)
			return fmt.Errorf("config: line %d:%d: handshake_timeout_s must be shorter than session_timeout_s", line, col)
		}
	}
	return nil
}

// LoadDaemon reads a daemon configuration file.
func LoadDaemon(path string) (Daemon, error) {
	f, err := os.Open(path)
	if err != nil {
		return Daemon{}, err
	}
	defer f.Close()
	return ParseDaemon(f)
}

// Validate checks the settings, the policy by building it.
func (d Daemon) Validate() error {
	if _, err := d.BuildPolicy(); err != nil {
		return err
	}
	if d.SessionTimeoutS < 0 {
		return fmt.Errorf("config: session_timeout_s must be >= 0")
	}
	if d.GrantGraceS < 0 {
		return fmt.Errorf("config: grant_grace_s must be >= 0")
	}
	if d.GrantGraceS > 0 && d.SessionTimeoutS > 0 && d.GrantGraceS >= d.SessionTimeoutS {
		return fmt.Errorf("config: grant_grace_s must be shorter than session_timeout_s")
	}
	switch d.LogLevel {
	case "", "debug", "info", "warn", "error":
	default:
		return fmt.Errorf("config: unknown log_level %q (want debug, info, warn or error)", d.LogLevel)
	}
	if d.LogSample < 0 {
		return fmt.Errorf("config: log_sample must be >= 0")
	}
	if d.MaxSessions < 0 {
		return fmt.Errorf("config: max_sessions must be >= 1, or 0 for unlimited")
	}
	if d.HandshakeTimeoutS < 0 {
		return fmt.Errorf("config: handshake_timeout_s must be >= 0")
	}
	if d.HandshakeTimeoutS > 0 && d.SessionTimeoutS > 0 && d.HandshakeTimeoutS >= d.SessionTimeoutS {
		return fmt.Errorf("config: handshake_timeout_s must be shorter than session_timeout_s")
	}
	if d.MaxRequestsPerSec < 0 {
		return fmt.Errorf("config: max_requests_per_sec must be >= 0")
	}
	return nil
}

// EventLevel returns the slog level for grant-lifecycle event logging and
// whether logging is enabled at all (log_level nonempty).
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
	if d.LogSample < 1 {
		return 1
	}
	return d.LogSample
}

// PolicyName returns the configured policy with the default applied.
func (d Daemon) PolicyName() string {
	if d.Policy == "" {
		return "fcfs"
	}
	return d.Policy
}

// TraceHeader describes this configuration in a trace header, so offline
// replay can rebuild the recording policy and its performance model.
func (d Daemon) TraceHeader() trace.Header {
	return trace.Header{
		Source:       trace.SourceDaemon,
		Policy:       d.PolicyName(),
		DelayOverlap: d.DelayOverlap,
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
func (d Daemon) SessionTimeout() time.Duration {
	return time.Duration(d.SessionTimeoutS * float64(time.Second))
}

// GrantGrace returns the disconnect grace window as a duration.
func (d Daemon) GrantGrace() time.Duration {
	return time.Duration(d.GrantGraceS * float64(time.Second))
}

// HandshakeTimeout returns the pre-register deadline as a duration.
func (d Daemon) HandshakeTimeout() time.Duration {
	return time.Duration(d.HandshakeTimeoutS * float64(time.Second))
}

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
	spec := d.PolicyName()
	switch {
	case d.FSMiBps < 0 || d.ProcNICMiBps < 0:
		return nil, fmt.Errorf("config: fs_mibps and proc_nic_mibps must be >= 0")
	case d.DelayOverlap < 0:
		return nil, fmt.Errorf("config: delay_overlap must be >= 0")
	case spec == "delay":
		spec = "delay(" + strconv.FormatFloat(d.DelayOverlap, 'g', -1, 64) + ")"
	case d.DelayOverlap != 0:
		return nil, fmt.Errorf("config: delay_overlap is bare delay's overlap; policy %q takes none", spec)
	case spec == "dynamic":
		spec = "dynamic(cpu-seconds)"
	}
	p, err := core.ParsePolicy(spec, d.Model())
	if errors.Is(err, core.ErrNeedsModel) {
		return nil, fmt.Errorf("config: policy %q needs fs_mibps for its performance model", d.Policy)
	}
	if err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	return p, nil
}
