package server

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/metrics"
	"repro/internal/wire"
)

// shardSnap is one shard's slice of a stats snapshot, assembled under the
// shard's lock and merged under the control lock: the target's row, its
// latest decision's time (-Inf before the first), and its application rows.
type shardSnap struct {
	wire.TargetStats
	lastTime float64
	apps     []wire.AppStats
	rep      []metrics.AppResult
}

// GrantsServed returns the total number of Wait authorizations served
// across every target. Exact once the server is closed; a snapshot while
// running.
func (srv *Server) GrantsServed() uint64 {
	return srv.Stats().GrantsServed
}

// Stats returns a live metrics snapshot, consistent because it is taken
// under the control lock and each target's slice under that target's lock.
// After Close it returns the final snapshot taken at shutdown.
func (srv *Server) Stats() wire.Stats {
	srv.ctl.mu.Lock()
	defer srv.ctl.mu.Unlock()
	if srv.ctl.stopped {
		return srv.final
	}
	return srv.snapshot(srv.clock())
}

// snap builds this shard's slice of the stats snapshot: per-binding
// LASSi-style accounting in registration order, the shard aggregates, and
// the latest decision. Runs under the shard's lock.
func (sh *shard) snap(now float64) shardSnap {
	sn := shardSnap{TargetStats: wire.TargetStats{
		Target:       sh.target,
		Apps:         len(sh.bindings),
		Arbitrations: sh.dom.Arbitrations(),
	}, lastTime: math.Inf(-1)}
	if sh.decided {
		sn.LastDecision = fmt.Sprintf("t=%.3f allowed=%v %s", sh.last.Time, sh.last.Allowed, sh.last.Reason)
		sn.lastTime = sh.last.Time
	}
	if sh.m != nil {
		h := sh.m.waitSeconds.Snapshot()
		sn.WaitHist = &wire.Hist{BoundsS: h.Bounds, Counts: h.Counts, SumS: h.Sum, Count: h.Count}
	}
	model := sh.srv.cfg.Model
	tot := sh.gone // the totals: departed ledgers, then every live one
	for _, a := range sh.dom.Arbiter().Apps() {
		l := a.Ledger()
		v := a.View()
		ioTime := a.IOTimeAt(now)
		as := wire.AppStats{
			Name:           v.Name,
			Target:         sh.target,
			Cores:          v.Cores,
			State:          v.State.String(),
			Authorized:     a.Authorized(),
			Phases:         l.Phases,
			Grants:         l.Grants,
			BytesTotal:     v.BytesTotal,
			BytesDone:      v.BytesDone,
			IOTimeS:        ioTime,
			WaitTimeS:      l.WaitS,
			WaitsImmediate: l.WaitsImmediate,
			WaitsDeferred:  l.WaitsDeferred,
			ConvoyWaitS:    l.ConvoyWaitS,
			ProtocolWaitS:  l.ProtocolWaitS,
		}
		tot.Add(l)
		alone := 0.0
		if model != nil {
			// Live interference: observed time for the bytes moved so far
			// versus the model's solo estimate for those bytes.
			if solo := model.SoloTime(&v, v.BytesDone); solo > 0 && !math.IsInf(solo, 1) {
				as.Interference = ioTime / solo
				alone = solo
			}
		}
		sn.rep = append(sn.rep, metrics.AppResult{
			Name: v.Name, Cores: v.Cores, IOTime: ioTime, AloneTime: alone,
		})
		sn.apps = append(sn.apps, as)
	}
	sn.GrantsServed = tot.Grants
	sn.WaitsImmediate, sn.WaitsDeferred = tot.WaitsImmediate, tot.WaitsDeferred
	sn.ConvoyWaitS, sn.ProtocolWaitS = tot.ConvoyWaitS, tot.ProtocolWaitS
	return sn
}

// snapshot gathers every shard's slice, each under its lock, and merges.
// Under the control lock (it reads the session table).
func (srv *Server) snapshot(now float64) wire.Stats {
	shards := srv.shardsSorted()
	snaps := make([]shardSnap, 0, len(shards))
	for _, sh := range shards {
		sh.mu.Lock()
		snaps = append(snaps, sh.snap(now))
		sh.mu.Unlock()
	}
	return srv.merge(now, snaps)
}

// merge is the combining layer: per-target slices become the existing
// machine-wide wire.Stats shape (top-level counters are sums over targets,
// so single-target output is unchanged) plus the per-target breakdown.
func (srv *Server) merge(now float64, snaps []shardSnap) wire.Stats {
	st := wire.Stats{
		Policy:   srv.cfg.Policy.Name(),
		NowS:     now,
		Sessions: len(srv.sessions),
	}
	rep := metrics.Report{}
	lastTime := math.Inf(-1)
	for i := range snaps {
		sn := &snaps[i]
		st.Arbitrations += sn.Arbitrations
		st.GrantsServed += sn.GrantsServed
		st.WaitsImmediate += sn.WaitsImmediate
		st.WaitsDeferred += sn.WaitsDeferred
		st.ConvoyWaitS += sn.ConvoyWaitS
		st.ProtocolWaitS += sn.ProtocolWaitS
		if sn.lastTime > lastTime {
			lastTime = sn.lastTime
			st.LastDecision = sn.LastDecision
		}
		if sn.WaitHist != nil && st.WaitHist == nil {
			st.WaitHist = &wire.Hist{BoundsS: sn.WaitHist.BoundsS, Counts: make([]uint64, len(sn.WaitHist.Counts))}
		}
		st.WaitHist.Add(sn.WaitHist) // a no-op without metrics
		st.Apps = append(st.Apps, sn.apps...)
		rep.Apps = append(rep.Apps, sn.rep...)
		st.Targets = append(st.Targets, sn.TargetStats)
	}
	sort.Slice(st.Apps, func(i, j int) bool {
		if st.Apps[i].Name != st.Apps[j].Name {
			return st.Apps[i].Name < st.Apps[j].Name
		}
		return st.Apps[i].Target < st.Apps[j].Target
	})
	if len(srv.degraded) > 0 {
		names := make([]string, 0, len(srv.degraded))
		for name := range srv.degraded {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			d := srv.degraded[name]
			st.SelfGrants += d.SelfGrants
			st.DegradedS += d.DegradedS
			st.Degraded = append(st.Degraded, *d)
		}
	}
	st.CPUSecondsWasted = rep.CPUSecondsWasted()
	if srv.cfg.Model != nil {
		st.SumInterference = rep.SumInterferenceFinite()
	}
	return st
}
