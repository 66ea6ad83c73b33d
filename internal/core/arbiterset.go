package core

import "sync"

// ArbiterSet owns one Arbiter per storage target: the coordination domain of
// the sharded daemon, where contention — and therefore arbitration — is
// independent per target (an application writing to server A must never
// convoy behind one writing to server B). Arbiters are created on demand by
// Get and live for the set's lifetime.
//
// Concurrency contract: Get is safe for concurrent use — the daemon's reader
// goroutines resolve targets while others arbitrate. Each Arbiter, however,
// keeps the single-owner discipline of the unsharded design: one goroutine
// at a time (in the daemon, whoever holds the target's shard lock) may call
// its mutating methods.
type ArbiterSet struct {
	policy   Policy
	logBound int
	hasBound bool

	mu       sync.RWMutex
	byTarget map[string]*Arbiter
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
	return ar
}
