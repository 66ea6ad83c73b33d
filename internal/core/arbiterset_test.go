package core

import (
	"fmt"
	"sync"
	"testing"
)

func TestArbiterSetGetCreatesOnceAndSorts(t *testing.T) {
	s := NewArbiterSet(FCFSPolicy{})
	s.SetLogBound(4)
	b := s.Get("b")
	a := s.Get("a")
	def := s.Get("")
	if s.Get("b") != b || s.Get("a") != a || s.Get("") != def {
		t.Fatal("Get not idempotent")
	}
	if b == a || a == def {
		t.Fatal("targets share an arbiter")
	}
	got := s.Targets()
	want := []string{"", "a", "b"}
	if len(got) != len(want) {
		t.Fatalf("targets = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("targets = %v, want %v", got, want)
		}
	}
	if s.Len() != 3 {
		t.Fatalf("len = %d, want 3", s.Len())
	}
	if s.Lookup("c") != nil {
		t.Fatal("Lookup invented a target")
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
	if s.Len() != 4 {
		t.Fatalf("len = %d, want 4", s.Len())
	}
}

// driveOne runs a single app through one arbitration on the target's
// arbiter at the given time.
func driveOne(t *testing.T, s *ArbiterSet, target, app string, now float64) {
	t.Helper()
	ar := s.Get(target)
	st, err := ar.Register(app, 1)
	if err != nil {
		t.Fatal(err)
	}
	st.Inform(now)
	if out := ar.Arbitrate(now); !out.Acted {
		t.Fatalf("%s/%s: arbitration did not act", target, app)
	}
}

func TestArbiterSetCombinedLogAndLastRecord(t *testing.T) {
	s := NewArbiterSet(FCFSPolicy{})
	driveOne(t, s, "b", "B1", 1)
	driveOne(t, s, "a", "A1", 2)
	driveOne(t, s, "a", "A2", 3)

	target, rec := s.LastRecord()
	if target != "a" || rec == nil || rec.Time != 3 {
		t.Fatalf("LastRecord = %q %+v, want target a at t=3", target, rec)
	}

	log := s.Log()
	if len(log) != 3 {
		t.Fatalf("merged log has %d records, want 3", len(log))
	}
	wantOrder := []struct {
		target string
		time   float64
	}{{"b", 1}, {"a", 2}, {"a", 3}}
	for i, w := range wantOrder {
		if log[i].Target != w.target || log[i].Time != w.time {
			t.Fatalf("log[%d] = %s t=%g, want %s t=%g", i, log[i].Target, log[i].Time, w.target, w.time)
		}
	}

	// Per-target independence: b's arbiter saw exactly one decision.
	if got := len(s.Lookup("b").Log()); got != 1 {
		t.Fatalf("target b logged %d decisions, want 1", got)
	}

	s.Reset()
	if _, rec := s.LastRecord(); rec != nil {
		t.Fatalf("LastRecord after Reset = %+v, want none", rec)
	}
	if got := s.Len(); got != 2 {
		t.Fatalf("Reset dropped targets: len = %d, want 2", got)
	}
}

func TestArbiterSetLogBoundPropagates(t *testing.T) {
	s := NewArbiterSet(FCFSPolicy{})
	s.SetLogBound(2)
	pre := s.Get("pre")
	s.SetLogBound(2) // applying again to existing arbiters must be safe
	for i := 0; i < 5; i++ {
		app := fmt.Sprintf("A%d", i)
		st, err := pre.Register(app, 1)
		if err != nil {
			t.Fatal(err)
		}
		st.Inform(float64(i))
		pre.Arbitrate(float64(i))
		st.End()
	}
	if got := len(pre.Log()); got != 2 {
		t.Fatalf("bounded log kept %d records, want 2", got)
	}
}
