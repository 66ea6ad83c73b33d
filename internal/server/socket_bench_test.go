package server

import (
	"fmt"
	"net"
	"sync"
	"syscall"
	"testing"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/wire"
	"repro/internal/wirebin"
)

// The socket benchmarks measure the daemon end to end — TCP, codec
// negotiation, framing, arbitration, grant push — where the arbitration
// microbenchmarks (BenchmarkServerArbitrate*) stop at the handler. One op
// is one grant cycle (Inform, Wait, Release, End: four requests, one
// grant), driven by 8 workers over per-worker storage targets so cycles
// on different workers arbitrate independently. Reported metrics:
// grants/s, and bytes/req — daemon-side wire bytes (in+out) per request,
// the codec-footprint number the ROADMAP performance table tracks.
//
// BenchmarkSocketGrants holds 256 concurrent sessions in process, one
// connection each, and fits in a default 1024-fd limit.
// BenchmarkSocketGrantsMux holds the same 256 sessions as logical streams
// over 8 multiplexed connections — the apples-to-apples number for the
// session-mux extension. The 10k and 20k fleets ride mux connections too
// (10240 and 20480 sessions over 64 physical connections), which is what
// lets them run in process: the old helper-process re-exec existed only
// because two 10k-connection endpoints cannot share one 20000-fd process.
// Run the big ones with an explicit iteration count so the testing package
// does not redial the fleet per b.N estimate:
//
//	go test -run xxx -bench SocketGrants10k -benchtime 20000x -benchmem ./internal/server

// socketBenchWorkers is the one-connection-per-session harness's
// concurrency: 8 parallel grant cycles over 8 independent targets, the
// configuration every ROADMAP socket number since PR 9 was measured at.
const socketBenchWorkers = 8

// muxBenchWorkers drives the mux fleets harder: 64 concurrent grant cycles
// over 64 targets, 8 live streams per physical connection, which is the
// load shape session multiplexing exists for — the group-commit write
// loops (both sides) amortize one flush across every stream with a frame
// in flight.
const muxBenchWorkers = 64

var socketBenchCodecs = []struct {
	name  string
	codec wire.Codec
}{
	{"json", wire.JSON},
	{"binary", wirebin.Codec{}},
}

// startBenchServer runs an in-process daemon and returns its address plus a
// reader for the daemon-side byte counters.
func startBenchServer(b *testing.B) (string, func() (uint64, uint64)) {
	reg := obs.NewRegistry()
	srv, err := New(Config{Policy: core.FCFSPolicy{}, Metrics: reg})
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(ln)
	b.Cleanup(func() { srv.Close() })
	return ln.Addr().String(), func() (uint64, uint64) {
		return srv.m.bytesIn.Value(), srv.m.bytesOut.Value()
	}
}

func BenchmarkSocketGrants(b *testing.B) {
	for _, cc := range socketBenchCodecs {
		b.Run(cc.name, func(b *testing.B) {
			if got := raiseFDLimit(1024); got < 1024 {
				b.Skipf("need 1024 fds for 256 two-endpoint sessions, limit %d", got)
			}
			addr, stats := startBenchServer(b)
			runSocketBench(b, addr, cc.codec, 256, stats)
		})
	}
}

func BenchmarkSocketGrantsMux(b *testing.B) {
	benchSocketMux(b, 256, 8)
}

func BenchmarkSocketGrants10k(b *testing.B) {
	benchSocketMux(b, 10240, 64)
}

func BenchmarkSocketGrants20k(b *testing.B) {
	benchSocketMux(b, 20480, 64)
}

// BenchmarkSocketRoundTrip is the latency guard for a lone request: one
// session, sequential Checks, nobody to batch with — what each register and
// warm-up cycle of a fleet's setup costs. Reports µs per round trip.
func BenchmarkSocketRoundTrip(b *testing.B) {
	for _, name := range []string{"json", "binary", "mux"} {
		b.Run(name, func(b *testing.B) {
			addr, _ := startBenchServer(b)
			var c *client.Client
			var err error
			switch name {
			case "json":
				c, err = client.DialOptions(addr, client.Options{Codec: wire.JSON})
			case "binary":
				c, err = client.DialOptions(addr, client.Options{Codec: wirebin.Codec{}})
			default:
				var m *client.Mux
				if m, err = client.DialMux(addr, client.Options{}); err == nil {
					defer m.Close()
					c, err = m.Client()
				}
			}
			if err == nil {
				defer c.Close()
				err = c.Register("rtt", 1)
			}
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Check(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/rtt")
		})
	}
}

// benchSocketMux times a fleet of logical sessions multiplexed over conns
// physical connections against an in-process daemon.
func benchSocketMux(b *testing.B, sessions, conns int) {
	if got := raiseFDLimit(1024); got < 1024 {
		b.Skipf("need 1024 fds, limit %d", got)
	}
	addr, stats := startBenchServer(b)
	muxes := make([]*client.Mux, conns)
	for i := range muxes {
		m, err := client.DialMux(addr, client.Options{})
		if err != nil {
			b.Fatal(err)
		}
		muxes[i] = m
	}
	defer func() {
		for _, m := range muxes {
			m.Close()
		}
	}()
	runSocketBenchDial(b, sessions, muxBenchWorkers, func(i int) (*client.Client, error) {
		return muxes[i%conns].Client()
	}, stats)
}

// runSocketBench is the one-connection-per-session harness: every session
// dials its own socket with the given codec.
func runSocketBench(b *testing.B, addr string, codec wire.Codec, sessions int, stats func() (uint64, uint64)) {
	opts := client.Options{Codec: codec}
	runSocketBenchDial(b, sessions, socketBenchWorkers, func(int) (*client.Client, error) {
		return client.DialOptions(addr, opts)
	}, stats)
}

// runSocketBenchDial dials and registers the whole fleet through the
// injected dialer, then times b.N grant cycles spread across the workers;
// every registered session stays connected for the duration, so the daemon
// holds `sessions` live logical sessions while serving. stats reads the
// daemon-side byte counters.
func runSocketBenchDial(b *testing.B, sessions, workers int, dial func(i int) (*client.Client, error), stats func() (uint64, uint64)) {
	clients := make([]*client.Client, sessions)
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	sem := make(chan struct{}, 64) // bound dial concurrency: 10k at once would blow handshake deadlines
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			c, err := dial(i)
			if err == nil {
				err = c.Register(fmt.Sprintf("bench-%05d", i), 1)
			}
			if err != nil {
				errs[i] = err
				return
			}
			clients[i] = c
		}(i)
	}
	wg.Wait()
	defer func() {
		for _, c := range clients {
			if c != nil {
				c.Close()
			}
		}
	}()
	for i, err := range errs {
		if err != nil {
			b.Fatalf("session %d: %v", i, err)
		}
	}

	// Shard the fleet: worker w owns clients[i] with i%workers == w, all
	// bound to target t<w>, and retires its cycles round-robin over them.
	shards := make([][]client.Target, workers)
	for i, c := range clients {
		w := i % workers
		shards[w] = append(shards[w], c.Target(fmt.Sprintf("t%d", w)))
	}
	cycle := func(tg client.Target) error {
		if err := tg.Inform(); err != nil {
			return err
		}
		if err := tg.Wait(); err != nil {
			return err
		}
		if err := tg.Release(0); err != nil {
			return err
		}
		return tg.End()
	}
	// Touch every worker's path once so negotiation and shard creation are
	// out of the timed region.
	for _, shard := range shards {
		if err := cycle(shard[0]); err != nil {
			b.Fatal(err)
		}
	}

	startIn, startOut := stats()
	b.ReportAllocs()
	b.ResetTimer()
	var bwg sync.WaitGroup
	for w := 0; w < workers; w++ {
		n := b.N / workers
		if w < b.N%workers {
			n++
		}
		bwg.Add(1)
		go func(shard []client.Target, n int) {
			defer bwg.Done()
			for k := 0; k < n; k++ {
				if err := cycle(shard[k%len(shard)]); err != nil {
					b.Error(err)
					return
				}
			}
		}(shards[w], n)
	}
	bwg.Wait()
	b.StopTimer()
	endIn, endOut := stats()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "grants/s")
	reqs := float64(4 * b.N)
	b.ReportMetric(float64((endIn-startIn)+(endOut-startOut))/reqs, "bytes/req")
}

// raiseFDLimit best-effort raises the soft RLIMIT_NOFILE to at least n
// (capped at the hard limit) and returns the resulting soft limit.
func raiseFDLimit(n uint64) uint64 {
	var rl syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &rl); err != nil {
		return 0
	}
	if rl.Cur >= n {
		return rl.Cur
	}
	want := n
	if want > rl.Max {
		want = rl.Max
	}
	rl.Cur = want
	if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &rl); err != nil {
		return 0
	}
	return rl.Cur
}
