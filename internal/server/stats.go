package server

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/wire"
)

// shardSnap is one shard's slice of a stats snapshot, assembled under the
// shard's lock and merged by the control goroutine.
type shardSnap struct {
	target       string
	bindings     int
	arbitrations uint64
	grantsServed uint64

	waitsImmediate uint64
	waitsDeferred  uint64
	convoyWait     float64
	protoWait      float64

	lastDecision string
	lastTime     float64
	hasDecision  bool

	waitHist *wire.Hist // nil unless the server collects metrics

	apps []wire.AppStats
	rep  []metrics.AppResult
}

// GrantsServed returns the total number of Wait authorizations served
// across every target. Exact once the server is closed; a snapshot while
// running.
func (srv *Server) GrantsServed() uint64 {
	return srv.Stats().GrantsServed
}

// Stats returns a live metrics snapshot, consistent because each target's
// slice is computed under that target's lock and merged by the control
// goroutine. After Close it returns the final snapshot taken at shutdown;
// on a server that never served the caller plays the control goroutine.
func (srv *Server) Stats() wire.Stats {
	srv.mu.Lock()
	if !srv.serving {
		defer srv.mu.Unlock()
		if srv.closed {
			return srv.final
		}
		// No control goroutine owns the session table, and holding mu keeps
		// a concurrent Serve from starting one mid-snapshot.
		return srv.snapshot(srv.clock())
	}
	srv.mu.Unlock()
	ch := make(chan wire.Stats, 1)
	select {
	case srv.reqCh <- envelope{kind: kindStats, statsCh: ch}:
		select {
		case st := <-ch:
			return st
		case <-srv.loopDone:
		}
	case <-srv.loopDone:
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	return srv.final
}

// snap builds this shard's slice of the stats snapshot: per-binding
// LASSi-style accounting in registration order, the shard aggregates, and
// the latest decision. Runs under the shard's lock.
func (sh *shard) snap(now float64) shardSnap {
	sn := shardSnap{
		target:         sh.target,
		bindings:       len(sh.bindings),
		arbitrations:   sh.arbitrations,
		grantsServed:   sh.grantsServed,
		waitsImmediate: sh.goneWaitsImmediate,
		waitsDeferred:  sh.goneWaitsDeferred,
		convoyWait:     sh.goneConvoyWait,
		protoWait:      sh.goneProtoWait,
	}
	if rec := sh.arb.LastRecord(); rec != nil {
		sn.lastDecision = fmt.Sprintf("t=%.3f allowed=%v %s", rec.Time, rec.Allowed, rec.Reason)
		sn.lastTime = rec.Time
		sn.hasDecision = true
	}
	if sh.m != nil {
		sn.waitHist = histFromSnapshot(sh.m.waitSeconds.Snapshot())
	}
	model := sh.srv.cfg.Model
	for _, a := range sh.arb.Apps() {
		b, ok := a.Data.(*binding)
		if !ok {
			continue
		}
		v := a.View()
		ioTime := b.ioTime
		if v.State != core.Idle {
			ioTime += now - b.phaseStart
		}
		as := wire.AppStats{
			Name:           v.Name,
			Target:         sh.target,
			Cores:          v.Cores,
			State:          v.State.String(),
			Authorized:     a.Authorized(),
			Phases:         b.phases,
			Grants:         b.grants,
			BytesTotal:     v.BytesTotal,
			BytesDone:      v.BytesDone,
			IOTimeS:        ioTime,
			WaitTimeS:      b.waitTime,
			WaitsImmediate: b.waitsImmediate,
			WaitsDeferred:  b.waitsDeferred,
			ConvoyWaitS:    b.convoyWait,
			ProtocolWaitS:  b.protoWait,
		}
		sn.waitsImmediate += b.waitsImmediate
		sn.waitsDeferred += b.waitsDeferred
		sn.convoyWait += b.convoyWait
		sn.protoWait += b.protoWait
		alone := 0.0
		if model != nil {
			// Live interference: observed time for the bytes moved so far
			// versus the model's solo estimate for those bytes.
			if solo := model.SoloTime(v, v.BytesDone); solo > 0 && !math.IsInf(solo, 1) {
				as.Interference = ioTime / solo
				alone = solo
			}
		}
		sn.rep = append(sn.rep, metrics.AppResult{
			Name: v.Name, Cores: v.Cores, IOTime: ioTime, AloneTime: alone,
		})
		sn.apps = append(sn.apps, as)
	}
	return sn
}

// snapshot gathers every shard's slice, each under its lock, and merges.
// Runs on whichever goroutine owns the session table: the control goroutine,
// or the caller on a server that never served.
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
		st.Arbitrations += sn.arbitrations
		st.GrantsServed += sn.grantsServed
		st.WaitsImmediate += sn.waitsImmediate
		st.WaitsDeferred += sn.waitsDeferred
		st.ConvoyWaitS += sn.convoyWait
		st.ProtocolWaitS += sn.protoWait
		if sn.hasDecision && sn.lastTime > lastTime {
			lastTime = sn.lastTime
			st.LastDecision = sn.lastDecision
		}
		if sn.waitHist != nil {
			if st.WaitHist == nil {
				st.WaitHist = &wire.Hist{
					BoundsS: sn.waitHist.BoundsS,
					Counts:  make([]uint64, len(sn.waitHist.Counts)),
				}
			}
			st.WaitHist.Add(sn.waitHist)
		}
		st.Apps = append(st.Apps, sn.apps...)
		rep.Apps = append(rep.Apps, sn.rep...)
		st.Targets = append(st.Targets, wire.TargetStats{
			Target:         sn.target,
			Apps:           sn.bindings,
			Arbitrations:   sn.arbitrations,
			GrantsServed:   sn.grantsServed,
			WaitsImmediate: sn.waitsImmediate,
			WaitsDeferred:  sn.waitsDeferred,
			ConvoyWaitS:    sn.convoyWait,
			ProtocolWaitS:  sn.protoWait,
			LastDecision:   sn.lastDecision,
			WaitHist:       sn.waitHist,
		})
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
