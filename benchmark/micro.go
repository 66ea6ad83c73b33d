package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/fluid"
	"repro/internal/obs"
	"repro/internal/pfs"
	"repro/internal/platform"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/internal/wirebin"
)

// The micro-drives exercise one layer at a time through its public API, from
// outside, so the end-to-end numbers can be budgeted: what a grant cycle
// costs beyond 4 x floor.loopback_rtt is the program, and the wire/wirebin/
// core rows say how much of that each layer can account for. They run after
// the workload's regions, in every traced run, for o.microFor each.

// timeLoop calls fn in batches until minDur has passed and returns the mean
// nanoseconds and heap allocations per call.
func timeLoop(minDur time.Duration, batch int, fn func()) (nsPer, allocsPer float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	calls := 0
	start := time.Now()
	for time.Since(start) < minDur || calls == 0 {
		for i := 0; i < batch; i++ {
			fn()
		}
		calls += batch
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed) / float64(calls), float64(after.Mallocs-before.Mallocs) / float64(calls)
}

func microDrives(m metricSet, o options) {
	if err := driveFloor(m, o); err != nil {
		// The floor needs two loopback sockets; without them the budget has
		// no base line but every other number still stands.
		fmt.Fprintln(os.Stderr, "floor drive:", err)
	}
	driveWire(m, o)
	driveWirebin(m, o)
	driveCore(m, o)
	driveTrace(m, o)
	driveObs(m, o)
	driveSim(m, o)
	drivePlatform(m, o)
}

// floorFrame is the size of a binary-codec grant-cycle frame on the wire
// (wirebin.bytes_per_req / 2, rounded up): the echo moves what the daemon
// moves, so the floor is this machine's syscall-and-wake cost for frames of
// that size, not ours.
const floorFrame = 17

// driveFloor ping-pongs floorFrame-byte frames over pinnedProcs loopback
// TCP connections against a benchmark-owned echo goroutine per connection.
func driveFloor(m metricSet, o options) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	var wg sync.WaitGroup
	rtts := make([][]int64, pinnedProcs)
	errs := make([]error, pinnedProcs)
	for i := 0; i < pinnedProcs; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return err
		}
		s, err := ln.Accept()
		if err != nil {
			c.Close()
			return err
		}
		wg.Add(2)
		go func() { // echo until the client closes
			defer wg.Done()
			defer s.Close()
			io.Copy(s, s)
		}()
		go func(i int) {
			defer wg.Done()
			defer c.Close()
			var frame [floorFrame]byte
			start := time.Now()
			for time.Since(start) < o.microFor || len(rtts[i]) == 0 {
				t0 := time.Now()
				if _, err := c.Write(frame[:]); err != nil {
					errs[i] = err
					return
				}
				if _, err := io.ReadFull(c, frame[:]); err != nil {
					errs[i] = err
					return
				}
				rtts[i] = append(rtts[i], int64(time.Since(t0)))
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	all := slices.Concat(rtts...)
	slices.Sort(all)
	m.set("floor.loopback_rtt_p50_us", us(percentile(all, 50)))
	m.set("floor.loopback_rtt_p90_us", us(percentile(all, 90)))
	return nil
}

// cycleMix is the exact message mix of one grant cycle: four requests and
// the four responses that answer them.
func cycleMix() ([]wire.Request, []wire.Response) {
	var reqs []wire.Request
	var resps []wire.Response
	for i, typ := range []string{wire.TypeInform, wire.TypeWait, wire.TypeRelease, wire.TypeEnd} {
		seq := uint64(1000 + i)
		reqs = append(reqs, wire.Request{Seq: seq, Type: typ, Target: "t7"})
		resps = append(resps, wire.Response{Seq: seq, Type: wire.TypeResp, OK: true,
			Authorized: typ == wire.TypeWait || typ == wire.TypeRelease, Target: "t7"})
	}
	return reqs, resps
}

func driveWire(m metricSet, o options) {
	reqs, resps := cycleMix()
	var buf bytes.Buffer
	encode := func() {
		buf.Reset()
		for i := range reqs {
			wire.Write(&buf, &reqs[i])
			wire.Write(&buf, &resps[i])
		}
	}
	ns, allocs := timeLoop(o.microFor, 16, encode)
	m.set("wire.encode_ns_per_req", ns/4)
	m.set("wire.bytes_per_req", float64(buf.Len())/4)
	stream := bytes.Clone(buf.Bytes())
	src := bytes.NewReader(stream)
	rd := wire.NewReader(src)
	decNs, decAllocs := timeLoop(o.microFor, 16, func() {
		src.Reset(stream)
		var req wire.Request
		var resp wire.Response
		for range reqs {
			rd.Read(&req)
			rd.Read(&resp)
		}
	})
	m.set("wire.decode_ns_per_req", decNs/4)
	m.set("wire.allocs_per_req", (allocs+decAllocs)/4)
}

func driveWirebin(m metricSet, o options) {
	reqs, resps := cycleMix()
	var reqBuf, respBuf, muxBuf []byte
	encode := func() {
		reqBuf, respBuf = reqBuf[:0], respBuf[:0]
		for i := range reqs {
			reqBuf, _ = wirebin.AppendRequest(reqBuf, &reqs[i])
			respBuf, _ = wirebin.AppendResponse(respBuf, &resps[i])
		}
	}
	ns, allocs := timeLoop(o.microFor, 64, encode)
	m.set("wirebin.encode_ns_per_req", ns/4)
	m.set("wirebin.bytes_per_req", float64(len(reqBuf)+len(respBuf))/4)
	const stream = 200 // a two-byte uvarint, like most of 256 mux streams
	for i := range reqs {
		muxBuf, _ = wirebin.AppendMuxRequest(muxBuf, stream, &reqs[i])
		muxBuf, _ = wirebin.AppendMuxResponse(muxBuf, stream, &resps[i])
	}
	m.set("wirebin.mux_bytes_per_req", float64(len(muxBuf))/4)

	reqSrc, respSrc := bytes.NewReader(reqBuf), bytes.NewReader(respBuf)
	reqRd := wirebin.Codec{}.NewRequestReader(reqSrc)
	respRd := wirebin.Codec{}.NewResponseReader(respSrc)
	decNs, decAllocs := timeLoop(o.microFor, 64, func() {
		reqSrc.Reset(reqBuf)
		respSrc.Reset(respBuf)
		var req wire.Request
		var resp wire.Response
		for range reqs {
			reqRd.Read(&req)
			respRd.Read(&resp)
		}
	})
	m.set("wirebin.decode_ns_per_req", decNs/4)
	m.set("wirebin.allocs_per_req", (allocs+decAllocs)/4)

	// The mux request reader is the daemon's demux entry point; decode the
	// mux stream once so a change that breaks it fails here, not silently.
	muxRd := wirebin.NewMuxRequestReader(bytes.NewReader(muxBuf))
	var req wire.Request
	if id, err := muxRd.Read(&req); err != nil || id != stream {
		panic(fmt.Sprintf("benchmark: mux request decode: stream %d, err %v", id, err))
	}
}

// arbiterCycle registers n applications on a fresh fcfs arbiter (configured
// as the daemon configures its shards), parks them all in a phase, and
// returns a function that retires one grant cycle — the holder releases,
// ends and re-informs, the next waiter is activated — calling Arbitrate
// three times with n (or n-1) applications in view.
func arbiterCycle(n int) func() {
	ar := core.NewArbiter(core.FCFSPolicy{})
	ar.SetIndexed(true)
	ar.SetLogBound(256)
	apps := make([]*core.AppState, n)
	now := 0.0
	for i := range apps {
		apps[i], _ = ar.Register(fmt.Sprintf("app-%02d", i), 64)
		now++
		apps[i].Inform(now)
	}
	ar.Arbitrate(now)
	apps[0].Activate()
	holder := 0
	return func() {
		a := apps[holder]
		now++
		a.Release()
		ar.Arbitrate(now)
		a.End()
		ar.Arbitrate(now)
		a.Inform(now)
		ar.Arbitrate(now)
		holder = (holder + 1) % n
		apps[holder].Activate()
	}
}

func driveCore(m metricSet, o options) {
	for _, n := range []int{1, 4, 64} {
		ns, allocs := timeLoop(o.microFor, 16, arbiterCycle(n))
		m.set(fmt.Sprintf("core.arbitrate_ns_apps%d", n), ns/3)
		if n == 64 {
			m.set("core.allocs_per_arbitrate", allocs/3)
		}
	}
	set := core.NewArbiterSet(core.FCFSPolicy{})
	for t := 0; t < 64; t++ {
		set.Get(targetName(t))
	}
	ns, _ := timeLoop(o.microFor, 256, func() { set.Get("t17") })
	m.set("core.shard_lookup_ns", ns)
}

// countWriter counts bytes on their way to nowhere.
type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

func driveTrace(m metricSet, o options) {
	// Record: what the arbitration goroutine pays to hand an event to the
	// drain goroutine, with the per-cycle event mix of a daemon recording.
	mix := []trace.Event{
		{Type: trace.EvInform, SID: 7, Target: "t0"}, {Type: trace.EvWait, SID: 7, Target: "t0"},
		{Type: trace.EvGrant, SID: 7, Target: "t0"}, {Type: trace.EvRelease, SID: 7, Target: "t0"},
		{Type: trace.EvEnd, SID: 7, Target: "t0"},
	}
	// A burst no larger than the writer's buffer cannot overflow it, however
	// far the drain goroutine lags; a drop would time the drop path instead.
	const burst = trace.DefaultBuffer
	var sink countWriter
	var recording time.Duration
	var recorded int64
	for start := time.Now(); time.Since(start) < o.microFor || recorded == 0; {
		w, err := trace.NewWriter(&sink, trace.Header{Policy: "fcfs"}, burst)
		if err != nil {
			panic(err)
		}
		t0 := time.Now()
		for i := 0; i < burst; i++ {
			ev := mix[i%len(mix)]
			ev.Time = float64(i)
			w.Record(ev)
		}
		recording += time.Since(t0)
		w.Close()
		recorded += burst
	}
	// The 70-odd header and trailer bytes per burst vanish in the quotient.
	m.set("trace.record_ns_per_event", float64(recording)/float64(recorded))
	m.set("trace.bytes_per_event", ratio(float64(sink.n), float64(recorded)))

	tr, err := synthesize(o.seed)
	if err != nil {
		panic(err)
	}
	var read *trace.Trace
	readNs, _ := timeLoop(o.microFor, 1, func() {
		if read, err = trace.Read(bytes.NewReader(tr.encoded)); err != nil {
			panic(err)
		}
	})
	m.set("trace.read_events_per_s", float64(tr.events)/(readNs/1e9))
	underNs, _ := timeLoop(o.microFor, 1, func() {
		if _, err := replay.Under(read, core.FCFSPolicy{}); err != nil {
			panic(err)
		}
	})
	m.set("replay.under_events_per_s", float64(tr.events)/(underNs/1e9))
}

func driveObs(m metricSet, o options) {
	h := obs.NewHistogram(obs.DefaultLatencyBuckets)
	v := 0.0
	ns, _ := timeLoop(o.microFor, 1024, func() {
		v += 37e-6
		if v > 1 {
			v = 0
		}
		h.Observe(v)
	})
	m.set("obs.observe_ns", ns)
}

// driveSim re-expresses the substrate benchmarks of bench_test.go
// (EngineSchedule, EnginePost, FabricReassign, FluidContention, PFSWrite)
// as timed loops.
func driveSim(m metricSet, o options) {
	eng := sim.NewEngine()
	nop := func() {}
	ns, _ := timeLoop(o.microFor, 1024, func() { eng.Schedule(1, nop); eng.Run() })
	m.set("sim.schedule_ns_per_event", ns)
	ns, _ = timeLoop(o.microFor, 1024, func() { eng.Post(nop); eng.Run() })
	m.set("sim.post_ns_per_event", ns)

	// A populated fabric (2 app NICs, 16 servers, 64 flows) forced through
	// advance+reassign by capacity changes, with no flow churn.
	feng := sim.NewEngine()
	fb := fabric.New(feng)
	nics := []*fabric.Link{fb.NewLink("nicA", 4e9), fb.NewLink("nicB", 4e9)}
	servers := make([]*fabric.Link, 16)
	for i := range servers {
		servers[i] = fb.NewLink(fmt.Sprintf("srv%d", i), 1e9)
	}
	for i := 0; i < 64; i++ {
		fb.Start(fmt.Sprintf("f%d", i), 1e18, 1+float64(i%3), []*fabric.Link{nics[i%2], servers[i%16]}, nil)
	}
	flip := 0
	ns, _ = timeLoop(o.microFor, 64, func() {
		flip ^= 1
		servers[0].SetCapacity(1e9 + float64(flip)*1e8)
	})
	m.set("fabric.reassign_ns", ns)

	// 64 concurrent jobs joining and leaving one fluid resource.
	ns, _ = timeLoop(o.microFor, 1, func() {
		e := sim.NewEngine()
		r := fluid.NewResource(e, "r", 1e9)
		for j := 0; j < 64; j++ {
			e.At(float64(j)*0.01, func() { r.Submit("j", 1e7, 1, 0, nil) })
		}
		e.Run()
	})
	m.set("fluid.contention_us", ns/1e3)

	// One 1 GiB striped write over 16 servers.
	ns, _ = timeLoop(o.microFor, 1, func() {
		e := sim.NewEngine()
		fs := pfs.New(e, pfs.Config{Servers: 16, StripeBytes: 1 << 20, ServerBW: 1 << 30})
		f := fs.Create("f")
		e.Go("w", func(p *sim.Proc) { f.Write(p, pfs.Request{App: "a", Length: 1 << 30, Weight: 64}) })
		e.Run()
	})
	m.set("pfs.write_us", ns/1e3)
}

// drivePlatform times the two calls a sweep worker makes per point on a warm
// pool: Acquire (a cache hit) and Run (reset + one simulated run) of the
// sim-sweep scenario. delta.sweep_us_per_point minus platform.run_us_per_point
// is the sweep executor's own overhead.
func drivePlatform(m metricSet, o options) {
	sc := denseScenario()
	pool := platform.NewPool()
	pl := pool.Acquire(sc.Spec(), nil)
	starts := []float64{0, 5}
	pl.Run(starts, nil)
	ns, _ := timeLoop(o.microFor, 16, func() { pool.Acquire(sc.Spec(), nil) })
	m.set("platform.acquire_us", ns/1e3)
	ns, _ = timeLoop(o.microFor, 1, func() { pl.Run(starts, nil) })
	m.set("platform.run_us_per_point", ns/1e3)
}
