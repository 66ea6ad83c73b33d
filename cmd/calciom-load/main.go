// Command calciom-load drives a calciomd daemon with N concurrent client
// connections, either replaying an SWF job trace or running a synthetic
// phase mix, and reports grant throughput and wait-latency percentiles.
//
//	calciom-load -addr 127.0.0.1:9595 -clients 64 -phases 4 -steps 4
//	calciom-load -addr 127.0.0.1:9595 -swf trace.swf -jobs 256
//
// Replay is closed-loop: jobs are dealt round-robin to the client
// connections and each client runs its jobs back to back (submit times are
// ignored), so the daemon sees a sustained concurrency of -clients.
//
// With -targets N the workload exercises the daemon's per-storage-target
// arbitration: phases are spread round-robin across targets t0..tN-1 (phase
// j coordinates on target t(j mod N)), and the byte-stable aggregate block
// gains one deterministic "agg-target:" line per target, sorted by name.
// -targets 0 or 1 keeps every phase on the default target — the original
// single-target traffic, byte for byte.
//
// Output is split into an "agg:" block — aggregate counters that are
// byte-stable across runs for a fixed workload, independent of goroutine
// interleaving — and a "timing:" block (throughput, latency percentiles)
// that legitimately varies. The agg block counts only clients that
// connected and completed their work; failed clients are reported in the
// attempted-vs-connected fields and a separate "partial:" line, so a
// connection failure mid-ramp cannot silently skew the byte-stable
// counters.
//
// The coordination trace of a run is the daemon's: start calciomd with
// -record, and calciom-replay re-arbitrates that recording under any policy.
//
// With -mux-conns M the fleet shares M physical connections instead of
// dialing one per client: sessions are dealt round-robin across the shared
// connections as multiplexed streams (protocol v3, the mux extension of the
// binary codec), so -clients 1024 -mux-conns 8 holds 1024 live sessions on
// 8 sockets. The workload, the agg: block and the grant accounting are
// unchanged — only the transport differs.
//
// With -scrape URL the tool fetches the daemon's /metrics endpoint after
// the burst and prints a "scrape:" line (grants, waits and the
// wait-histogram count, summed across targets, plus the connection counter
// split out by its mux label). Against a fresh daemon and
// a fixed fault-free workload the grants and wait-count fields are
// deterministic and must equal the agg block's grant count, so smoke tests
// can diff the daemon's Prometheus view against client-side truth exactly;
// the immediate/deferred split reflects arrival interleaving and varies.
//
// The fault-tolerance flags exercise the robust client: -reconnect survives
// daemon restarts (sessions resume under the same name), -fail-open bounds
// how long any client blocks on a dead daemon before self-granting, and the
// -chaos-* flags interpose an in-process fault-injecting proxy (resets,
// delays, partitions) between the fleet and the daemon. With any of these
// set the output gains a "degraded:" line accounting for self-granted
// waits; the "agg:" grants counter keeps counting only daemon-coordinated
// grants, so grants + self-grants always equals the waits the workload
// performed. Without these flags the output is byte-identical to the
// fault-free tool.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"net/http"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/swf"
	"repro/internal/wire"
	"repro/internal/wirebin"
)

const miB = float64(1 << 20)

// task is one I/O phase a client performs: declared bytes, the job's core
// count, the number of atomic access steps (coordination points), and the
// storage target the phase coordinates on ("" = the daemon's default).
type task struct {
	bytes  float64
	cores  int
	steps  int
	target string
}

// counters is the deterministic slice of a workload: phases completed,
// grants received, bytes declared.
type counters struct {
	phases int
	grants int
	bytes  float64
}

func (c *counters) add(o counters) {
	c.phases += o.phases
	c.grants += o.grants
	c.bytes += o.bytes
}

// result accumulates one client's deterministic counters (total and per
// target) and its wait latencies. connected reports that Dial+Register
// succeeded, separating "never reached the daemon" from "failed
// mid-workload". degraded is the client's fail-open accounting; grants
// counts only daemon-coordinated grants (self-grants are subtracted), so
// grants + degraded.SelfGrants is the number of waits the workload
// performed.
type result struct {
	connected bool
	counters
	perTarget map[string]counters
	lats      []time.Duration
	degraded  client.DegradedReport
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it writes its report to stdout and diagnostics to
// stderr, and returns the exit status — 2 when the command line is at fault
// or the fleet cannot get started, 1 when the run itself failed.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("calciom-load", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:9595", "calciomd address")
	prefix := fs.String("prefix", "app", "application name prefix (make it unique per run when reusing a daemon: a previous run's sessions may still be unregistering)")
	clients := fs.Int("clients", 64, "concurrent client connections")
	phases := fs.Int("phases", 4, "synthetic: I/O phases per client")
	steps := fs.Int("steps", 4, "synthetic: access steps (coordination points) per phase")
	mib := fs.Float64("mib", 64, "synthetic: MiB declared per phase")
	cores := fs.Int("cores", 32, "synthetic: cores declared per application")
	think := fs.Duration("think", 0, "compute time between phases")
	targets := fs.Int("targets", 1, "spread phases round-robin across this many storage targets (t0..tN-1); <=1 keeps the single default target")
	swfPath := fs.String("swf", "", "replay this SWF trace instead of the synthetic mix")
	jobs := fs.Int("jobs", 0, "SWF: cap on jobs replayed (0 = clients*phases)")
	reconnect := fs.Bool("reconnect", false, "survive daemon restarts: reconnect with backoff and resume sessions")
	failOpen := fs.Duration("fail-open", 0, "self-grant after the daemon has been unreachable this long (implies -reconnect)")
	chaosReset := fs.Duration("chaos-reset", 0, "chaos proxy: reset each connection roughly this long after accept")
	chaosDelay := fs.Duration("chaos-delay", 0, "chaos proxy: delay every forwarded chunk this long")
	chaosPartEvery := fs.Duration("chaos-partition-every", 0, "chaos proxy: start a partition window this often")
	chaosPartFor := fs.Duration("chaos-partition-for", 0, "chaos proxy: partition window length")
	chaosSeed := fs.Int64("chaos-seed", 1, "chaos proxy: deterministic fault schedule seed")
	chaosGarbage := fs.Bool("chaos-garbage", false, "chaos proxy: inject seeded protocol garbage (bit flips, junk frames) into the client→daemon stream")
	flood := fs.Bool("flood", false, "overload probe: every client registers at once, admitted clients run max-rate check loops and earn one grant each; prints a shed: line instead of the workload blocks")
	floodChecks := fs.Int("flood-checks", 8, "flood: back-to-back Check calls per admitted client")
	churn := fs.Bool("churn", false, "connection-churn probe: every client repeatedly connects, registers, runs one coordinated phase and disconnects; prints a churn: line instead of the workload blocks")
	churnLoops := fs.Int("churn-loops", 8, "churn: connect/register/phase/disconnect loops per client")
	codec := fs.String("codec", "json", "wire codec: json (v1, the default protocol) or binary (negotiate the v2 binary codec at connect)")
	muxConns := fs.Int("mux-conns", 0, "multiplex the fleet over this many shared physical connections (negotiates the v3 mux extension of the binary codec; implies -codec binary; 0 = one plain connection per client)")
	scrape := fs.String("scrape", "", "after the burst, fetch the daemon's Prometheus endpoint at this URL (e.g. http://127.0.0.1:9596/metrics) and print a byte-stable scrape: line")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	fail := func(status int, format string, a ...any) int {
		fmt.Fprintf(stderr, format+"\n", a...)
		return status
	}
	switch {
	case *muxConns < 0 || *targets < 0 || *jobs < 0 || *floodChecks < 0:
		return fail(2, "calciom-load: -mux-conns, -targets, -jobs and -flood-checks must not be negative")
	case *churnLoops < 1:
		return fail(2, "calciom-load: -churn-loops must be at least 1")
	case *muxConns > 0 && (*flood || *churn):
		return fail(2, "calciom-load: -mux-conns applies to the workload modes, not -flood/-churn")
	case *codec != "json" && *codec != "binary":
		return fail(2, "calciom-load: unknown -codec %q (want json or binary)", *codec)
	}
	copts := client.Options{Reconnect: *reconnect || *failOpen > 0, FailOpen: *failOpen}
	if *codec == "binary" {
		copts.Codec = wirebin.Codec{}
	}
	tasks, err := buildTasks(*swfPath, *clients, *phases, *steps, *mib, *cores, *jobs)
	if err != nil {
		return fail(2, "%v", err)
	}
	// Phase j coordinates on target t(j mod N): round-robin by task index,
	// so the per-target workload split is deterministic regardless of how
	// tasks are later dealt to clients.
	if *targets > 1 {
		for i := range tasks {
			tasks[i].target = fmt.Sprintf("t%d", i%*targets)
		}
	}

	// With chaos enabled the fleet dials a fault-injecting proxy in front of
	// the daemon; the final daemonView still goes direct so the report is
	// not a chaos casualty.
	dialAddr := *addr
	if *chaosReset > 0 || *chaosDelay > 0 || *chaosGarbage || (*chaosPartEvery > 0 && *chaosPartFor > 0) {
		var logMu sync.Mutex
		p, err := chaos.New(chaos.Options{
			Target:         *addr,
			ResetEvery:     *chaosReset,
			Delay:          *chaosDelay,
			PartitionEvery: *chaosPartEvery,
			PartitionFor:   *chaosPartFor,
			Garbage:        *chaosGarbage,
			Seed:           *chaosSeed,
			Logf: func(format string, args ...any) {
				logMu.Lock()
				defer logMu.Unlock()
				fmt.Fprintf(stderr, format+"\n", args...)
			},
		})
		if err != nil {
			return fail(2, "%v", err)
		}
		defer p.Close()
		dialAddr = p.Addr()
		fmt.Fprintf(stderr, "chaos: proxying %s via %s\n", *addr, dialAddr)
	}

	// Flood mode probes the daemon's overload protection and churn mode the
	// connect path — accept, codec negotiation, register, one grant cycle,
	// teardown — instead of running the workload: each reports one line and
	// exits. The workload flags do not apply.
	if *flood {
		return runFlood(stdout, stderr, dialAddr, *addr, *prefix, *clients, *floodChecks, copts)
	}
	if *churn {
		return runChurn(stdout, stderr, dialAddr, *addr, *prefix, *clients, *churnLoops, copts)
	}

	// dial hands client i its connection. Without -mux-conns each client
	// dials its own plain connection; with it, M shared physical connections
	// are dialed up front (the mux handshake negotiates the v3 binary
	// extension regardless of -codec) and the fleet's sessions are dealt
	// round-robin across them as logical streams.
	dial := func(int) (*client.Client, error) { return client.DialOptions(dialAddr, copts) }
	if *muxConns > 0 {
		muxes := make([]*client.Mux, *muxConns)
		for i := range muxes {
			m, err := client.DialMux(dialAddr, copts)
			if err != nil {
				return fail(2, "calciom-load: mux dial %d: %v", i, err)
			}
			muxes[i] = m
			defer m.Close()
		}
		dial = func(i int) (*client.Client, error) { return muxes[i%len(muxes)].Client() }
	}

	var wg sync.WaitGroup
	results := make([]result, *clients)
	errs := make([]error, *clients)
	start := time.Now()
	for i := 0; i < *clients; i++ {
		// Deal tasks round-robin so the assignment is independent of
		// scheduling order.
		var mine []task
		for j := i; j < len(tasks); j += *clients {
			mine = append(mine, tasks[j])
		}
		wg.Add(1)
		go func(i int, mine []task) {
			defer wg.Done()
			results[i], errs[i] = runClient(func() (*client.Client, error) { return dial(i) },
				fmt.Sprintf("%s-%04d", *prefix, i), mine, *think)
		}(i, mine)
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Only clients that completed their workload feed the byte-stable agg
	// counters; failures are explicit (attempted vs connected, the error
	// count, and a partial: line), never silently folded in.
	var tot, partial counters
	var lats []time.Duration
	var deg client.DegradedReport
	perTarget := map[string]counters{}
	connected, nerr := 0, 0
	for i, r := range results {
		if r.connected {
			connected++
		}
		deg.SelfGrants += r.degraded.SelfGrants
		deg.Seconds += r.degraded.Seconds
		deg.Windows += r.degraded.Windows
		if errs[i] != nil {
			nerr++
			partial.add(r.counters)
			fmt.Fprintf(stderr, "%s-%04d: %v\n", *prefix, i, errs[i])
			continue
		}
		tot.add(r.counters)
		lats = append(lats, r.lats...)
		for target, c := range r.perTarget {
			agg := perTarget[target]
			agg.add(c)
			perTarget[target] = agg
		}
	}

	// The agg line holds only client-side counters for this run: for a
	// fixed workload it is byte-stable across runs regardless of goroutine
	// interleaving. The daemon line reports the server's cumulative view
	// (it keeps counting across load runs against a long-lived daemon).
	policy, daemonGrants := daemonView(*addr)
	fmt.Fprintf(stdout, "agg: clients=%d connected=%d tasks=%d phases=%d grants=%d mib=%.0f errors=%d\n",
		*clients, connected, len(tasks), tot.phases, tot.grants, tot.bytes/miB, nerr)
	if *targets > 1 {
		// One byte-stable line per target, deterministically sorted.
		for _, target := range slices.Sorted(maps.Keys(perTarget)) {
			c := perTarget[target]
			fmt.Fprintf(stdout, "agg-target: target=%s phases=%d grants=%d mib=%.0f\n",
				target, c.phases, c.grants, c.bytes/miB)
		}
	}
	if nerr > 0 {
		fmt.Fprintf(stdout, "partial: clients=%d phases=%d grants=%d mib=%.0f\n",
			nerr, partial.phases, partial.grants, partial.bytes/miB)
	}
	// The degraded line appears only when the robust client is in play, so
	// fault-free output stays byte-identical. self-grants is the fleet's
	// client-side truth (grants + self-grants == waits performed);
	// daemon-self-grants is what resumed sessions managed to report before
	// the run ended (a client that finished while still degraded reports
	// nothing). degraded-s is wall clock and varies.
	if copts.Reconnect {
		var dself uint64
		var dapps int
		if st, err := daemonStats(*addr); err == nil {
			dself, dapps = st.SelfGrants, len(st.Degraded)
		}
		fmt.Fprintf(stdout, "degraded: self-grants=%d windows=%d degraded-s=%.3f daemon-self-grants=%d daemon-degraded-apps=%d\n",
			deg.SelfGrants, deg.Windows, deg.Seconds, dself, dapps)
	}
	fmt.Fprintf(stdout, "daemon: policy=%s grants-served=%d\n", policy, daemonGrants)
	// The scrape line is the daemon's /metrics view of the same counters the
	// agg block reports client-side: grants and waits summed across targets,
	// plus the wait-histogram observation count. Against a fresh daemon and
	// a fixed fault-free workload, grants and wait-count are deterministic
	// (and equal); the immediate/deferred split varies with interleaving.
	if *scrape != "" {
		sums, err := scrapeMetrics(*scrape)
		if err != nil {
			return fail(1, "calciom-load: scrape: %v", err)
		}
		fmt.Fprintf(stdout, "scrape: grants=%d waits-immediate=%d waits-deferred=%d wait-count=%d connections=%d mux-connections=%d\n",
			sums["calciomd_grants_total"],
			sums["calciomd_waits_immediate_total"],
			sums["calciomd_waits_deferred_total"],
			sums["calciomd_wait_seconds_count"],
			sums["calciomd_connections_total"],
			sums[muxConnsKey])
	}
	fmt.Fprintf(stdout, "timing: elapsed=%.3fs throughput=%.0f grants/s\n",
		elapsed.Seconds(), float64(tot.grants)/elapsed.Seconds())
	if len(lats) > 0 {
		slices.Sort(lats)
		fmt.Fprintf(stdout, "timing: wait-latency p50=%s p90=%s p99=%s max=%s\n",
			pct(lats, 50), pct(lats, 90), pct(lats, 99), lats[len(lats)-1])
	}
	if nerr > 0 {
		return 1
	}
	return 0
}

// runFlood probes the daemon's overload-protection layer: every client
// dials and registers at once (a barrier holds admitted clients until the
// whole fleet has a register outcome, so the admitted/busy split is pinned
// by the daemon's -max-sessions bound, not by scheduling luck). Admitted
// clients then run back-to-back Check calls — the advisory traffic the
// daemon sheds first — followed by the minimal grant cycle (Inform, Wait,
// Release, End), so each admitted client earns exactly one grant and
// grants == admitted is the conservation invariant overload smoke tests
// assert. Busy rejects at the session bound and overloaded replies (shed
// or rate-limited requests, retried here after a backoff) are counted
// into the shed: line; with a fixed fleet against a fresh daemon the
// clients/admitted/busy/grants/errors fields are deterministic, while
// overloaded depends on timing.
func runFlood(stdout, stderr io.Writer, dialAddr, addr, prefix string, clients, checks int, opts client.Options) int {
	type floodResult struct {
		admitted   bool
		busy       bool
		overloaded int
		grants     int
		err        error
	}
	results := make([]floodResult, clients)
	var regWG, wg sync.WaitGroup
	regWG.Add(clients)
	wg.Add(clients)
	registered := make(chan struct{})
	go func() { regWG.Wait(); close(registered) }()
	for i := 0; i < clients; i++ {
		go func(i int) {
			defer wg.Done()
			r := &results[i]
			// Retry-in-place on overloaded replies: the rate limiter answers
			// the first over-budget request with one retryable overloaded
			// error and disconnects only on sustained abuse, so backing off
			// after each one keeps the connection alive at the limit.
			over := func(f func() error) error {
				for {
					err := f()
					var re *client.ReplyError
					if err != nil && errors.As(err, &re) && re.Code == wire.CodeOverloaded {
						r.overloaded++
						time.Sleep(50 * time.Millisecond)
						continue
					}
					return err
				}
			}
			c, err := client.DialOptions(dialAddr, opts)
			if err == nil {
				defer c.Close()
				err = over(func() error { return c.Register(fmt.Sprintf("%s-%04d", prefix, i), 1) })
			}
			regWG.Done()
			var re *client.ReplyError
			switch {
			case errors.As(err, &re) && re.Code == wire.CodeBusy:
				r.busy = true
				return
			case err != nil:
				r.err = err
				return
			}
			r.admitted = true
			<-registered
			tg := c.Target("")
			for k := 0; k < checks; k++ {
				if r.err = over(func() error { _, err := tg.Check(); return err }); r.err != nil {
					return
				}
			}
			if r.err = grantCycle(tg, over); r.err == nil {
				r.grants++
			}
		}(i)
	}
	wg.Wait()

	admitted, busy, overloaded, grants, nerr := 0, 0, 0, 0, 0
	for i, r := range results {
		if r.admitted {
			admitted++
		}
		if r.busy {
			busy++
		}
		overloaded += r.overloaded
		grants += r.grants
		if r.err != nil {
			nerr++
			fmt.Fprintf(stderr, "%s-%04d: %v\n", prefix, i, r.err)
		}
	}
	fmt.Fprintf(stdout, "shed: clients=%d admitted=%d busy=%d overloaded=%d grants=%d errors=%d\n",
		clients, admitted, busy, overloaded, grants, nerr)
	return reportDaemon(stdout, addr, nerr)
}

// runChurn probes the connect path instead of steady-state throughput:
// every client repeatedly dials, registers under a loop-unique name,
// runs the minimal grant cycle (Inform, Wait, Release, End) and
// disconnects, so the daemon's accept loop, codec negotiation and session
// teardown are exercised clients*loops times. Names are unique per loop
// (prefix-iiii-l) so a fresh connection can never race the previous
// loop's unregistering session. Against a fresh daemon the churn: line is
// byte-stable: connects and grants both equal clients*loops on a clean
// run, and any failure is an error (no shed/busy tolerance — churn mode
// assumes an unloaded daemon).
func runChurn(stdout, stderr io.Writer, dialAddr, addr, prefix string, clients, loops int, opts client.Options) int {
	type churnResult struct {
		connects int
		grants   int
		errs     []error
	}
	results := make([]churnResult, clients)
	var wg sync.WaitGroup
	wg.Add(clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			defer wg.Done()
			r := &results[i]
			for l := 0; l < loops; l++ {
				err := func() error {
					c, err := client.DialOptions(dialAddr, opts)
					if err != nil {
						return err
					}
					defer c.Close()
					if err := c.Register(fmt.Sprintf("%s-%04d-%d", prefix, i, l), 1); err != nil {
						return err
					}
					r.connects++
					return grantCycle(c.Target(""), func(f func() error) error { return f() })
				}()
				if err != nil {
					r.errs = append(r.errs, fmt.Errorf("loop %d: %w", l, err))
				} else {
					r.grants++
				}
			}
		}(i)
	}
	wg.Wait()

	connects, grants, nerr := 0, 0, 0
	for i, r := range results {
		connects += r.connects
		grants += r.grants
		nerr += len(r.errs)
		for _, err := range r.errs {
			fmt.Fprintf(stderr, "%s-%04d: %v\n", prefix, i, err)
		}
	}
	fmt.Fprintf(stdout, "churn: clients=%d loops=%d connects=%d grants=%d errors=%d\n",
		clients, loops, connects, grants, nerr)
	return reportDaemon(stdout, addr, nerr)
}

// grantCycle runs the minimal coordinated phase, Inform, Wait, Release and
// End, each step through do.
func grantCycle(tg client.Target, do func(func() error) error) error {
	for _, step := range []func() error{tg.Inform, tg.Wait, func() error { return tg.Release(0) }, tg.End} {
		if err := do(step); err != nil {
			return err
		}
	}
	return nil
}

// reportDaemon prints the daemon line that closes a probe's report and
// returns the probe's exit status: 1 when any of its clients failed.
func reportDaemon(stdout io.Writer, addr string, nerr int) int {
	policy, daemonGrants := daemonView(addr)
	fmt.Fprintf(stdout, "daemon: policy=%s grants-served=%d\n", policy, daemonGrants)
	if nerr > 0 {
		return 1
	}
	return 0
}

// buildTasks constructs the workload: the synthetic phase mix, or one task
// per SWF job (bytes and steps scaled from the job's size, one MiB declared
// per process).
func buildTasks(swfPath string, clients, phases, steps int, mib float64, cores, jobs int) ([]task, error) {
	if clients <= 0 || phases <= 0 || steps <= 0 {
		return nil, fmt.Errorf("calciom-load: clients, phases and steps must be positive")
	}
	if swfPath == "" {
		tasks := make([]task, clients*phases)
		for i := range tasks {
			tasks[i] = task{bytes: mib * miB, cores: cores, steps: steps}
		}
		return tasks, nil
	}
	f, err := os.Open(swfPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tr, err := swf.Parse(f)
	if err != nil {
		return nil, err
	}
	// SWF writes -1 for a processor count it does not know: such a job has
	// no size to register or bytes to declare, so it is not replayed.
	js := slices.DeleteFunc(tr.Jobs, func(j swf.Job) bool { return j.Procs <= 0 })
	sort.Slice(js, func(a, b int) bool {
		if js[a].Submit != js[b].Submit {
			return js[a].Submit < js[b].Submit
		}
		return js[a].ID < js[b].ID
	})
	if jobs == 0 {
		jobs = clients * phases
	}
	js = js[:min(jobs, len(js))]
	if len(js) == 0 {
		return nil, fmt.Errorf("calciom-load: trace %s has no jobs", swfPath)
	}
	tasks := make([]task, len(js))
	for i, j := range js {
		tasks[i] = task{bytes: float64(j.Procs) * miB, cores: j.Procs, steps: min(1+j.Procs/8192, 8)}
	}
	return tasks, nil
}

// runClient performs one session's tasks over the connection dial hands it
// (a plain per-client connection, or a logical stream on a shared mux
// connection): for each phase it runs the
// canonical CALCioM sequence (Prepare, Inform, Wait, steps × [access,
// Release/Inform/Wait], Complete, End) on the phase's storage target,
// timing every Wait. The grants counter is corrected at the end to exclude self-granted waits (fail-open), so it counts only
// daemon-coordinated grants; self-grants land in result.degraded. (The
// per-target grant counters keep counting all served waits — per-target
// self-grant attribution is not tracked.)
func runClient(dial func() (*client.Client, error), name string, tasks []task, think time.Duration) (res result, err error) {
	res = result{perTarget: map[string]counters{}}
	c, err := dial()
	if err != nil {
		return res, err
	}
	defer c.Close()
	defer func() {
		res.degraded = c.DegradedReport()
		res.grants -= int(min(uint64(res.grants), res.degraded.SelfGrants))
	}()
	co := 1
	if len(tasks) > 0 {
		co = tasks[0].cores
	}
	if err := c.Register(name, co); err != nil {
		return res, err
	}
	res.connected = true
	for _, tk := range tasks {
		tg := c.Target(tk.target)
		pc := res.perTarget[tk.target]
		wait := func() error {
			t0 := time.Now()
			if err := tg.Wait(); err != nil {
				return err
			}
			res.lats = append(res.lats, time.Since(t0))
			res.grants++
			pc.grants++
			return nil
		}
		in := core.Info{}
		in.SetFloat(core.KeyBytesTotal, tk.bytes)
		in.SetInt(core.KeyCores, int64(tk.cores))
		err := do(func() error { return tg.Prepare(in) }, tg.Inform, wait)
		for s := 1; s <= tk.steps && err == nil; s++ {
			if err = tg.Release(tk.bytes * float64(s) / float64(tk.steps)); err == nil && s < tk.steps {
				err = do(tg.Inform, wait)
			}
		}
		if err == nil {
			err = do(tg.Complete, tg.End)
		}
		if err != nil {
			return res, err
		}
		res.phases++
		res.bytes += tk.bytes
		pc.phases++
		pc.bytes += tk.bytes
		res.perTarget[tk.target] = pc
		if think > 0 {
			time.Sleep(think)
		}
	}
	return res, nil
}

// do runs steps in order up to the first that fails.
func do(steps ...func() error) error {
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// muxConnsKey is the synthetic sums entry scrapeMetrics fills with the
// connections_total samples whose label set carries mux="true" — the
// daemon's count of accepted multiplexed connections, which the scrape:
// line reports separately from the all-codec connection total.
const muxConnsKey = `calciomd_connections_total{mux="true"}`

// scrapeMetrics fetches a Prometheus text-format endpoint and sums every
// sample by family name (label sets collapse, so per-target series sum into
// the fleet-wide total). Values are parsed as floats — the text format
// renders counters that way — and truncated to integers.
func scrapeMetrics(url string) (map[string]uint64, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	sums := map[string]uint64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		// A sample is "name value"; comments and blank lines are not.
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		name := fields[0]
		labels := ""
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name, labels = name[:i], name[i:]
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil || v < 0 {
			continue
		}
		sums[name] += uint64(v)
		if name == "calciomd_connections_total" && strings.Contains(labels, `mux="true"`) {
			sums[muxConnsKey] += uint64(v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return sums, nil
}

// daemonView fetches the daemon's own policy name and grant counter over a
// fresh connection.
func daemonView(addr string) (string, uint64) {
	st, err := daemonStats(addr)
	if err != nil {
		return "?", 0
	}
	return st.Policy, st.GrantsServed
}

// daemonStats fetches the daemon's full metrics snapshot.
func daemonStats(addr string) (wire.Stats, error) {
	c, err := client.Dial(addr)
	if err != nil {
		return wire.Stats{}, err
	}
	defer c.Close()
	return c.Stats()
}

// pct returns the p-th percentile of sorted latencies, rounded for display.
func pct(sorted []time.Duration, p int) time.Duration {
	idx := (len(sorted) - 1) * p / 100
	return sorted[idx].Round(10 * time.Microsecond)
}
