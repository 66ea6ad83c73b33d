package config

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// TestStrictErrorsCarryLineNumbers pins the failure-reporting contract for
// both config dialects: unknown keys are rejected (not silently ignored)
// and every error names the offending line.
func TestStrictErrorsCarryLineNumbers(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want []string // substrings the error must contain
	}{
		{
			name: "unknown scenario key with line",
			in: "{\n" +
				`  "name": "x",` + "\n" +
				`  "proc_nic_mibbs": 4` + "\n" +
				"}",
			want: []string{"line 3", "proc_nic_mibbs"},
		},
		{
			name: "unknown nested key with line",
			in: "{\n" +
				`  "name": "x",` + "\n" +
				`  "fs": {` + "\n" +
				`    "servers": 1,` + "\n" +
				`    "stripe_kb": 64` + "\n" +
				"  }\n}",
			want: []string{"line 5", "stripe_kb"},
		},
		{
			name: "syntax error with line",
			in:   "{\n  \"name\": \"x\",\n  \"fs\": {,}\n}",
			want: []string{"line 3"},
		},
		{
			name: "type error with line",
			in:   "{\n  \"name\": 42\n}",
			want: []string{"line 2", "name"},
		},
		{
			name: "trailing garbage",
			in:   `{"name":"x"}{"again":true}`,
			want: []string{"line 1", "after top-level value"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(strings.NewReader(tc.in))
			if err == nil {
				t.Fatal("expected error")
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Fatalf("error %q does not mention %q", err, w)
				}
			}
		})
	}
	// The daemon keys that once tuned the accept loop, the socket buffers,
	// the recorder and the decision log: a file still naming one fails to
	// load instead of running without the setting.
	for _, key := range []string{"accept_loops", "sock_buffer_bytes", "record_buffer",
		"record_sync_every", "record_sync_interval_s", "decision_log"} {
		t.Run("removed daemon key "+key, func(t *testing.T) {
			_, err := ParseDaemon(strings.NewReader("{\n  \"policy\": \"fcfs\",\n  \"" + key + "\": 1\n}"))
			if err == nil || !strings.Contains(err.Error(), "unknown") || !strings.Contains(err.Error(), "line 3:3") {
				t.Fatalf("err = %v, want an unknown field at line 3:3", err)
			}
		})
	}
}

func TestParseDaemon(t *testing.T) {
	cases := []struct {
		name  string
		in    string
		check func(t *testing.T, d Daemon, err error)
	}{
		{
			name: "defaults",
			in:   `{}`,
			check: func(t *testing.T, d Daemon, err error) {
				if err != nil {
					t.Fatal(err)
				}
				if d.Addr() != DefaultListenAddr {
					t.Fatalf("addr = %q", d.Addr())
				}
				p, err := d.BuildPolicy()
				if err != nil || p.Name() != "fcfs" {
					t.Fatalf("default policy = %v, %v", p, err)
				}
				if d.Model() != nil {
					t.Fatal("model without bandwidths should be nil")
				}
			},
		},
		{
			name: "full settings",
			in: `{"listen_addr": "0.0.0.0:7777", "policy": "delay", "delay_overlap": 0.5,
			     "session_timeout_s": 30,
			     "fs_mibps": 4000, "proc_nic_mibps": 100}`,
			check: func(t *testing.T, d Daemon, err error) {
				if err != nil {
					t.Fatal(err)
				}
				if d.Addr() != "0.0.0.0:7777" || d.SessionTimeout() != 30*time.Second {
					t.Fatalf("daemon = %+v", d)
				}
				p, err := d.BuildPolicy()
				if err != nil {
					t.Fatal(err)
				}
				if _, ok := p.(core.DelayPolicy); !ok {
					t.Fatalf("policy = %T", p)
				}
				m := d.Model()
				if m == nil || m.FSBandwidth != 4000*miB || m.ProcNIC != 100*miB {
					t.Fatalf("model = %+v", m)
				}
			},
		},
		{
			name: "interrupt policy",
			in:   `{"policy": "interrupt"}`,
			check: func(t *testing.T, d Daemon, err error) {
				if err != nil {
					t.Fatal(err)
				}
				if p, _ := d.BuildPolicy(); p.Name() != "interrupt" {
					t.Fatalf("policy = %v", p)
				}
			},
		},
		{
			name: "unknown policy",
			in:   `{"policy": "roulette"}`,
			check: func(t *testing.T, d Daemon, err error) {
				if err == nil || !strings.Contains(err.Error(), "unknown policy") {
					t.Fatalf("err = %v", err)
				}
			},
		},
		{
			name: "delay needs model",
			in:   `{"policy": "delay", "delay_overlap": 1}`,
			check: func(t *testing.T, d Daemon, err error) {
				if err == nil || !strings.Contains(err.Error(), "fs_mibps") {
					t.Fatalf("err = %v", err)
				}
			},
		},
		{
			name: "negative timeout",
			in:   `{"session_timeout_s": -1}`,
			check: func(t *testing.T, d Daemon, err error) {
				if err == nil || !strings.Contains(err.Error(), "session_timeout_s") {
					t.Fatalf("err = %v", err)
				}
			},
		},
		{
			name: "unknown key with line",
			in:   "{\n  \"listen_adr\": \":1\"\n}",
			check: func(t *testing.T, d Daemon, err error) {
				if err == nil || !strings.Contains(err.Error(), "line 2") ||
					!strings.Contains(err.Error(), "listen_adr") {
					t.Fatalf("err = %v", err)
				}
			},
		},
		{
			name: "record section",
			in: `{"policy": "delay", "delay_overlap": 0.25, "fs_mibps": 2048,
			     "record_path": "run.trace"}`,
			check: func(t *testing.T, d Daemon, err error) {
				if err != nil {
					t.Fatal(err)
				}
				if d.RecordPath != "run.trace" {
					t.Fatalf("record settings = %+v", d)
				}
				hdr := d.TraceHeader()
				if hdr.Source != trace.SourceDaemon || hdr.Policy != "delay" ||
					hdr.DelayOverlap != 0.25 || hdr.FSMiBps != 2048 {
					t.Fatalf("trace header = %+v", hdr)
				}
			},
		},
		{
			name: "trace header applies policy default",
			in:   `{"record_path": "run.trace"}`,
			check: func(t *testing.T, d Daemon, err error) {
				if err != nil {
					t.Fatal(err)
				}
				if hdr := d.TraceHeader(); hdr.Policy != "fcfs" {
					t.Fatalf("header policy = %q, want fcfs default", hdr.Policy)
				}
			},
		},
		{
			name: "overload settings",
			in: `{"max_sessions": 128, "handshake_timeout_s": 5,
			     "session_timeout_s": 60, "max_requests_per_sec": 500}`,
			check: func(t *testing.T, d Daemon, err error) {
				if err != nil {
					t.Fatal(err)
				}
				if d.MaxSessions != 128 || d.MaxRequestsPerSec != 500 {
					t.Fatalf("overload settings = %+v", d)
				}
				if d.HandshakeTimeout() != 5*time.Second {
					t.Fatalf("handshake timeout = %v", d.HandshakeTimeout())
				}
			},
		},
		{
			// An explicit zero is rejected with a position: after unmarshal it
			// is indistinguishable from "unset", so the raw document decides.
			name: "explicit max_sessions zero with line",
			in:   "{\n  \"max_sessions\": 0\n}",
			check: func(t *testing.T, d Daemon, err error) {
				if err == nil || !strings.Contains(err.Error(), "line 2") ||
					!strings.Contains(err.Error(), "max_sessions") {
					t.Fatalf("err = %v", err)
				}
			},
		},
		{
			name: "handshake deadline at the eviction timeout with line",
			in:   "{\n  \"session_timeout_s\": 30,\n  \"handshake_timeout_s\": 30\n}",
			check: func(t *testing.T, d Daemon, err error) {
				if err == nil || !strings.Contains(err.Error(), "line 3") ||
					!strings.Contains(err.Error(), "shorter than session_timeout_s") {
					t.Fatalf("err = %v", err)
				}
			},
		},
		{
			name: "negative handshake timeout",
			in:   `{"handshake_timeout_s": -1}`,
			check: func(t *testing.T, d Daemon, err error) {
				if err == nil || !strings.Contains(err.Error(), "handshake_timeout_s") {
					t.Fatalf("err = %v", err)
				}
			},
		},
		{
			name: "negative rate limit",
			in:   `{"max_requests_per_sec": -5}`,
			check: func(t *testing.T, d Daemon, err error) {
				if err == nil || !strings.Contains(err.Error(), "max_requests_per_sec") {
					t.Fatalf("err = %v", err)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := ParseDaemon(strings.NewReader(tc.in))
			tc.check(t, d, err)
		})
	}
}
