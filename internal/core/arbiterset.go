package core

import (
	"sort"
	"sync"
)

// TargetDecision is one arbitration decision attributed to the storage
// target whose arbiter made it, the unit of the combined cross-target log.
type TargetDecision struct {
	Target string
	DecisionRecord
}

// ArbiterSet owns one Arbiter per storage target: the coordination domain of
// the sharded daemon, where contention — and therefore arbitration — is
// independent per target (an application writing to server A must never
// convoy behind one writing to server B). Arbiters are created on demand by
// Get and live for the set's lifetime.
//
// Concurrency contract: the registry itself (Get/Lookup/Targets/Len) is safe
// for concurrent use — the daemon's reader goroutines resolve targets while
// others arbitrate. Each Arbiter, however, keeps the single-owner
// discipline of the unsharded design: one goroutine at a time (in the
// daemon, whoever holds the target's shard lock) may call its mutating
// methods. The combining
// methods (LastRecord, Log, Reset, Each) read or write across every arbiter
// and are therefore only safe once those owners are quiescent — snapshots in
// the live daemon are instead assembled per shard and merged by the caller.
type ArbiterSet struct {
	policy   Policy
	logBound int
	hasBound bool

	mu       sync.RWMutex
	byTarget map[string]*Arbiter
	targets  []string // sorted
}

// NewArbiterSet builds an empty set. Every arbiter created by Get runs the
// given policy; the policies shipped with this package are stateless values,
// so one policy serves all targets. A policy with mutable per-domain state
// would need one set per target instead.
func NewArbiterSet(policy Policy) *ArbiterSet {
	if policy == nil {
		panic("core: nil policy")
	}
	return &ArbiterSet{policy: policy, byTarget: make(map[string]*Arbiter)}
}

// Policy returns the policy shared by every arbiter in the set.
func (s *ArbiterSet) Policy() Policy { return s.policy }

// SetLogBound applies the decision-log bound to every current and future
// arbiter (see Arbiter.SetLogBound). Call it before the first Arbitrate.
func (s *ArbiterSet) SetLogBound(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.logBound, s.hasBound = n, true
	for _, ar := range s.byTarget {
		ar.SetLogBound(n)
	}
}

// Get returns the arbiter for the target, creating it on first use with the
// set's policy and log bound.
func (s *ArbiterSet) Get(target string) *Arbiter {
	s.mu.RLock()
	ar := s.byTarget[target]
	s.mu.RUnlock()
	if ar != nil {
		return ar
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if ar = s.byTarget[target]; ar != nil {
		return ar
	}
	ar = NewArbiter(s.policy)
	if s.hasBound {
		ar.SetLogBound(s.logBound)
	}
	s.byTarget[target] = ar
	i := sort.SearchStrings(s.targets, target)
	s.targets = append(s.targets, "")
	copy(s.targets[i+1:], s.targets[i:])
	s.targets[i] = target
	return ar
}

// Lookup returns the target's arbiter, or nil when none exists yet.
func (s *ArbiterSet) Lookup(target string) *Arbiter {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.byTarget[target]
}

// Targets returns the known target names, sorted.
func (s *ArbiterSet) Targets() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]string(nil), s.targets...)
}

// Len returns the number of targets.
func (s *ArbiterSet) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.byTarget)
}

// Each visits every arbiter in sorted target order. See the concurrency
// contract: the arbiters' owner goroutines must be quiescent.
func (s *ArbiterSet) Each(fn func(target string, ar *Arbiter)) {
	s.mu.RLock()
	targets := append([]string(nil), s.targets...)
	s.mu.RUnlock()
	for _, t := range targets {
		fn(t, s.Lookup(t))
	}
}

// Reset returns every arbiter to its just-constructed state (keeping
// registered applications, per Arbiter.Reset). The registry itself — which
// targets exist — is retained.
func (s *ArbiterSet) Reset() {
	s.Each(func(_ string, ar *Arbiter) { ar.Reset() })
}

// LastRecord is the combining layer's "latest decision": the most recent
// decision record across every target, ties broken toward the smaller
// target name so the answer is deterministic. It returns zero values when
// no arbiter has decided anything.
func (s *ArbiterSet) LastRecord() (target string, rec *DecisionRecord) {
	s.Each(func(t string, ar *Arbiter) {
		r := ar.LastRecord()
		if r == nil {
			return
		}
		if rec == nil || r.Time > rec.Time {
			target, rec = t, r
		}
	})
	return target, rec
}

// Log merges the per-target decision logs into one cross-target record,
// ordered by time with ties broken by target name then per-target order —
// deterministic for a deterministic set of shard histories. It allocates
// the merged slice; like Arbiter.Log it is a cold path.
func (s *ArbiterSet) Log() []TargetDecision {
	var out []TargetDecision
	s.Each(func(t string, ar *Arbiter) {
		for _, rec := range ar.Log() {
			out = append(out, TargetDecision{Target: t, DecisionRecord: rec})
		}
	})
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Time != out[j].Time {
			return out[i].Time < out[j].Time
		}
		return out[i].Target < out[j].Target
	})
	return out
}
