package replay

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// twoTargetTrace is a hand-written daemon-style v2 trace: on target "a", A
// holds the file system 1..6 while B (arriving at 2) queues behind it; on
// target "b", C arrives at 2.5 and is granted immediately — per-target
// arbitration must never convoy C behind A. Register events are per shard,
// exactly as the sharded daemon records its lazy attaches.
func twoTargetTrace() *trace.Trace {
	return &trace.Trace{
		Header: trace.Header{Source: trace.SourceDaemon, Policy: "fcfs"},
		Events: []trace.Event{
			{Type: trace.EvRegister, Time: 1, SID: 1, App: "A", Cores: 4, Target: "a"},
			{Type: trace.EvInform, Time: 1, SID: 1, Target: "a"},
			{Type: trace.EvGrant, Time: 1, SID: 1, Target: "a"},
			{Type: trace.EvWait, Time: 1.1, SID: 1, Target: "a"}, // immediate

			{Type: trace.EvRegister, Time: 2, SID: 2, App: "B", Cores: 2, Target: "a"},
			{Type: trace.EvInform, Time: 2, SID: 2, Target: "a"},
			{Type: trace.EvWait, Time: 2.1, SID: 2, Target: "a"}, // deferred behind A

			{Type: trace.EvRegister, Time: 2.5, SID: 3, App: "C", Cores: 8, Target: "b"},
			{Type: trace.EvInform, Time: 2.5, SID: 3, Target: "b"},
			{Type: trace.EvGrant, Time: 2.5, SID: 3, Target: "b"},
			{Type: trace.EvWait, Time: 2.6, SID: 3, Target: "b"}, // immediate: b is free

			{Type: trace.EvRelease, Time: 4, SID: 3, Bytes: 10, Target: "b"},
			{Type: trace.EvEnd, Time: 4, SID: 3, Target: "b"},

			{Type: trace.EvRelease, Time: 6, SID: 1, Bytes: 100, Target: "a"},
			{Type: trace.EvEnd, Time: 6, SID: 1, Target: "a"},
			{Type: trace.EvGrant, Time: 6, SID: 2, Target: "a"}, // B takes over as A ends

			{Type: trace.EvRelease, Time: 8, SID: 2, Bytes: 50, Target: "a"},
			{Type: trace.EvEnd, Time: 8, SID: 2, Target: "a"},
		},
	}
}

func TestUnderShardedTargetsIndependent(t *testing.T) {
	res, err := Under(twoTargetTrace(), core.FCFSPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if res.GrantsServed != 3 {
		t.Fatalf("grants = %d, want 3", res.GrantsServed)
	}
	// Only B waited (2.1 .. 6, behind A on target a); C's wait on target b
	// was immediate even though target a had a holder the whole time.
	if res.WaitsImmediate != 2 || res.WaitsDeferred != 1 {
		t.Fatalf("immediate/deferred = %d/%d, want 2/1", res.WaitsImmediate, res.WaitsDeferred)
	}
	if math.Abs(res.TotalWaitS-3.9) > 1e-9 || math.Abs(res.ConvoyWaitS-3.9) > 1e-9 {
		t.Fatalf("wait = %g convoy = %g, want 3.9/3.9", res.TotalWaitS, res.ConvoyWaitS)
	}
	// A (active on a) and C (active on b) overlap in wall time 2.6..4, but
	// contention is per target: no overlap machine-seconds.
	if res.OverlapS != 0 {
		t.Fatalf("overlap = %g, want 0 across targets", res.OverlapS)
	}
	if res.MakespanS != 8 {
		t.Fatalf("makespan = %g, want 8", res.MakespanS)
	}
	if len(res.Apps) != 3 {
		t.Fatalf("apps = %+v", res.Apps)
	}
	// Sorted by (name, target, sid).
	if res.Apps[0].Name != "A" || res.Apps[0].Target != "a" ||
		res.Apps[2].Name != "C" || res.Apps[2].Target != "b" {
		t.Fatalf("apps = %+v", res.Apps)
	}
}

func TestVerifyShardedPerTarget(t *testing.T) {
	v, err := Verify(twoTargetTrace())
	if err != nil {
		t.Fatal(err)
	}
	if !v.Match {
		t.Fatalf("verify mismatch: %s", v.Mismatch)
	}
	if len(v.Shards) != 2 || v.Shards[0].Target != "a" || v.Shards[1].Target != "b" {
		t.Fatalf("shards = %+v", v.Shards)
	}
	if v.Shards[0].Flips != 2 || v.Shards[1].Flips != 1 {
		t.Fatalf("per-target flips = %+v", v.Shards)
	}

	// Tamper with one shard only: the other must still match, the whole
	// verification must not.
	tam := twoTargetTrace()
	evs := tam.Events[:0]
	for _, ev := range tam.Events {
		if ev.Type == trace.EvGrant && ev.SID == 2 {
			continue
		}
		evs = append(evs, ev)
	}
	tam.Events = evs
	v2, err := Verify(tam)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Match {
		t.Fatal("tampered shard verified clean")
	}
	for _, sh := range v2.Shards {
		switch sh.Target {
		case "a":
			if sh.Match {
				t.Fatal("tampered target a verified clean")
			}
		case "b":
			if !sh.Match {
				t.Fatalf("untampered target b failed: %s", sh.Mismatch)
			}
		}
	}
}

// clientCaptureTrace is a client-side capture: one register and one
// unregister for a session that coordinates on two targets, so its streams
// carry a synthesized register each and one a propagated unregister.
func clientCaptureTrace() *trace.Trace {
	return &trace.Trace{
		Header: trace.Header{Source: trace.SourceClient, Policy: "fcfs"},
		Events: []trace.Event{
			{Type: trace.EvRegister, Time: 0, SID: 1, App: "A", Cores: 4}, // default target only
			{Type: trace.EvInform, Time: 1, SID: 1, Target: "x"},
			{Type: trace.EvWait, Time: 1, SID: 1, Target: "x"},
			{Type: trace.EvInform, Time: 2, SID: 1, Target: "y"},
			{Type: trace.EvWait, Time: 2, SID: 1, Target: "y"},
			{Type: trace.EvRelease, Time: 3, SID: 1, Bytes: 1, Target: "x"},
			{Type: trace.EvEnd, Time: 3, SID: 1, Target: "x"},
			{Type: trace.EvRelease, Time: 4, SID: 1, Bytes: 1, Target: "y"},
			{Type: trace.EvEnd, Time: 4, SID: 1, Target: "y"},
			{Type: trace.EvUnregister, Time: 5, SID: 1},
		},
	}
}

// TestClientCapturePartitionPropagatesSession: a client-side capture
// records one register and one unregister per session, yet the session
// coordinates on two targets — the partitioner must attach it to both (at
// first touch) and detach it from both, so the replay sees every stream.
func TestClientCapturePartitionPropagatesSession(t *testing.T) {
	res, err := Under(clientCaptureTrace(), core.FCFSPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if res.GrantsServed != 2 {
		t.Fatalf("grants = %d, want 2 (one per target)", res.GrantsServed)
	}
	if len(res.Apps) != 2 || res.Apps[0].Target != "x" || res.Apps[1].Target != "y" {
		t.Fatalf("apps = %+v, want A on x and y", res.Apps)
	}
	for _, a := range res.Apps {
		if a.Name != "A" || a.Grants != 1 || a.Phases != 1 {
			t.Fatalf("app %+v", a)
		}
	}
}

// v1TraceBytes hand-encodes a version-1 trace file (the pre-target format:
// no per-record target field) for the two-app fcfs run twoAppTrace models.
func v1TraceBytes(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString("CALTRACE")
	le16 := func(v uint16) {
		var b [2]byte
		binary.LittleEndian.PutUint16(b[:], v)
		buf.Write(b[:])
	}
	le32 := func(v uint32) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		buf.Write(b[:])
	}
	le64 := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		buf.Write(b[:])
	}
	f64 := func(v float64) { le64(math.Float64bits(v)) }
	str := func(s string) {
		le16(uint16(len(s)))
		buf.WriteString(s)
	}
	le16(1) // version 1
	hdr := `{"source":"calciomd","policy":"fcfs"}`
	le16(uint16(len(hdr)))
	buf.WriteString(hdr)
	evs := twoAppTrace().Events
	for _, ev := range evs {
		buf.WriteByte(byte(ev.Type))
		f64(ev.Time)
		le32(ev.SID)
		switch ev.Type {
		case trace.EvRegister:
			str(ev.App)
			le32(uint32(ev.Cores))
		case trace.EvPrepare:
			keys := core.Info(ev.Info).Keys()
			le16(uint16(len(keys)))
			for _, k := range keys {
				str(k)
				str(ev.Info[k])
			}
		case trace.EvInform, trace.EvProgress, trace.EvRelease:
			f64(ev.Bytes)
		}
	}
	buf.WriteByte(0xFF) // trailer
	f64(0)
	le64(uint64(len(evs)))
	le64(0)
	return buf.Bytes()
}

// TestVerifyVersion1Trace pins the compatibility acceptance bar: a
// version-1 single-target trace file — written before targets existed —
// must still load and verify exactly (match=true) under the sharded replay.
func TestVerifyVersion1Trace(t *testing.T) {
	tr, err := trace.Read(bytes.NewReader(v1TraceBytes(t)))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != len(twoAppTrace().Events) {
		t.Fatalf("v1 decode dropped events: %d", len(tr.Events))
	}
	v, err := Verify(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Match {
		t.Fatalf("v1 trace failed verification: %s", v.Mismatch)
	}
	if len(v.Shards) != 1 || v.Shards[0].Target != "" {
		t.Fatalf("v1 trace partitioned into %+v, want the single default shard", v.Shards)
	}
	if v.GrantsServed != 3 {
		t.Fatalf("grants = %d, want 3", v.GrantsServed)
	}
}
