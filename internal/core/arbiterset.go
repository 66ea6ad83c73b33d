package core

import "sync"

// ArbiterSet owns one Arbiter per storage target, created on demand by Get
// and kept for the set's lifetime. No host uses it — a daemon shard builds
// its own arbiter — and it stays only while benchmark/micro.go times Get as
// core.shard_lookup_ns; both go with the next change to the benchmark.
//
// Get is safe for concurrent use; each Arbiter keeps its single-owner
// discipline.
type ArbiterSet struct {
	policy Policy

	mu       sync.RWMutex
	byTarget map[string]*Arbiter
}

// NewArbiterSet builds an empty set whose arbiters run the given policy.
func NewArbiterSet(policy Policy) *ArbiterSet {
	if policy == nil {
		panic("core: nil policy")
	}
	return &ArbiterSet{policy: policy, byTarget: make(map[string]*Arbiter)}
}

// Get returns the arbiter for the target, creating it on first use with the
// set's policy.
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
	s.byTarget[target] = ar
	return ar
}
