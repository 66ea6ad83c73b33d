package core

import (
	"fmt"
	"sync"
	"testing"
)

func TestArbiterSetGetCreatesOnce(t *testing.T) {
	s := NewArbiterSet(FCFSPolicy{})
	b := s.Get("b")
	a := s.Get("a")
	def := s.Get("")
	if s.Get("b") != b || s.Get("a") != a || s.Get("") != def {
		t.Fatal("Get not idempotent")
	}
	if b == a || a == def {
		t.Fatal("targets share an arbiter")
	}
	if len(s.byTarget) != 3 {
		t.Fatalf("len = %d, want 3", len(s.byTarget))
	}
}

func TestArbiterSetConcurrentGet(t *testing.T) {
	s := NewArbiterSet(FCFSPolicy{})
	var wg sync.WaitGroup
	arbs := make([]*Arbiter, 16)
	for i := range arbs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			arbs[i] = s.Get(fmt.Sprintf("t%d", i%4))
		}(i)
	}
	wg.Wait()
	for i := range arbs {
		if arbs[i] != s.Get(fmt.Sprintf("t%d", i%4)) {
			t.Fatalf("racy Get returned a stale arbiter for t%d", i%4)
		}
	}
	if len(s.byTarget) != 4 {
		t.Fatalf("len = %d, want 4", len(s.byTarget))
	}
}
