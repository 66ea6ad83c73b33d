package config

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// TestDaemonValidate: each calciomd setting's range and cross checks, the
// policy aliases, and the trace header that names the built policy.
func TestDaemonValidate(t *testing.T) {
	cases := []struct {
		name string
		d    Daemon
		err  string // a substring of Validate's error; "" = valid
	}{
		{name: "defaults"},
		{name: "full settings", d: Daemon{ListenAddr: "0.0.0.0:7777", Policy: "delay(0.5)",
			SessionTimeoutS: 30, GrantGraceS: 5, FSMiBps: 4000, ProcNICMiBps: 100}},
		{name: "overload settings", d: Daemon{MaxSessions: 128, HandshakeTimeoutS: 5,
			SessionTimeoutS: 60, MaxRequestsPerSec: 500}},
		{name: "interrupt policy", d: Daemon{Policy: "interrupt"}},
		{name: "unknown policy", d: Daemon{Policy: "roulette"}, err: "unknown policy"},
		{name: "delay needs model", d: Daemon{Policy: "delay(1)"}, err: "needs -fs-mibps"},
		{name: "dynamic needs model", d: Daemon{Policy: "dynamic"}, err: "needs -fs-mibps"},
		{name: "negative bandwidth", d: Daemon{FSMiBps: -1}, err: "-fs-mibps"},
		{name: "negative timeout", d: Daemon{SessionTimeoutS: -1}, err: "-session-timeout"},
		{name: "negative grace", d: Daemon{GrantGraceS: -1}, err: "-grant-grace"},
		{name: "grace at the eviction timeout", d: Daemon{SessionTimeoutS: 5, GrantGraceS: 5},
			err: "-grant-grace must be shorter than -session-timeout"},
		{name: "handshake deadline at the eviction timeout", d: Daemon{SessionTimeoutS: 30, HandshakeTimeoutS: 30},
			err: "-handshake-timeout must be shorter than -session-timeout"},
		{name: "negative handshake timeout", d: Daemon{HandshakeTimeoutS: -1}, err: "-handshake-timeout"},
		{name: "negative rate limit", d: Daemon{MaxRequestsPerSec: -5}, err: "-max-requests-per-sec"},
		{name: "negative session bound", d: Daemon{MaxSessions: -1}, err: "-max-sessions"},
		{name: "negative log sample", d: Daemon{LogSample: -1}, err: "-log-sample"},
		{name: "log level debug", d: Daemon{LogLevel: "debug"}},
		{name: "log level error", d: Daemon{LogLevel: "error"}},
		{name: "unknown log level", d: Daemon{LogLevel: "loud"}, err: "-log-level"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.d.Validate()
			if tc.err == "" && err != nil || tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)) {
				t.Fatalf("Validate() = %v, want %q", err, tc.err)
			}
		})
	}

	var zero Daemon
	if zero.Addr() != DefaultListenAddr || zero.Model() != nil || zero.LogSampleN() != 1 ||
		zero.SessionTimeout() != 0 || zero.GrantGrace() != 0 || zero.HandshakeTimeout() != 0 {
		t.Fatalf("zero daemon: addr %q, model %v, sample %d", zero.Addr(), zero.Model(), zero.LogSampleN())
	}
	if _, ok := zero.EventLevel(); ok {
		t.Fatal("zero daemon logs events")
	}
	d := Daemon{SessionTimeoutS: 30, HandshakeTimeoutS: 5, FSMiBps: 4000, ProcNICMiBps: 100}
	if m := d.Model(); m == nil || m.FSBandwidth != 4000*miB || m.ProcNIC != 100*miB {
		t.Fatalf("model = %+v", m)
	}
	if d.SessionTimeout() != 30*time.Second || d.HandshakeTimeout() != 5*time.Second {
		t.Fatalf("durations = %v, %v", d.SessionTimeout(), d.HandshakeTimeout())
	}

	// The aliases: "" is fcfs, bare delay delay(0), bare dynamic
	// dynamic(cpu-seconds); the header records what was built.
	for policy, want := range map[string]string{
		"": "fcfs", "interrupt": "interrupt", "delay": "delay(0.00)",
		"delay(0.25)": "delay(0.25)", "dynamic": "dynamic(cpu-seconds)",
	} {
		d := Daemon{Policy: policy, FSMiBps: 2048, ProcNICMiBps: 3}
		p, err := d.BuildPolicy()
		if err != nil || p.Name() != want {
			t.Fatalf("policy %q builds %v, %v; want %s", policy, p, err, want)
		}
		if dp, ok := p.(core.DelayPolicy); policy == "delay" && (!ok || dp.Overlap != 0) {
			t.Fatalf("bare delay builds %#v, want no overlap", p)
		}
		hdr := d.TraceHeader(p)
		if hdr != (trace.Header{Source: trace.SourceDaemon, Policy: want, FSMiBps: 2048, ProcNICMiBps: 3}) {
			t.Fatalf("policy %q: trace header %+v", policy, hdr)
		}
	}
}
