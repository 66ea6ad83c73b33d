package main

import (
	"slices"
	"time"
)

// The end-to-end throughput and latency figures are medians over equal
// windows of the timed region, not totals over it. On a shared 2-vCPU box a
// neighbour's burst slows a second or two of a ten-second run; a total
// carries that straight into the result, a median over twelve windows does
// not unless the burst outlasts half the run. Twelve, so that a traced run's four alternating slices are three whole
// windows each.
const runWindows = 12

// samples is one closed-loop client's latency log. When an op's completion
// crosses a window boundary the client drops a mark, so each window's ops
// and exact duration (boundary op to boundary op) can be recovered without
// storing a timestamp per op.
type samples struct {
	lat    []int64 // one latency per completed op, ns
	marks  []mark
	window int64 // ns
	next   int64 // the boundary the next mark is dropped at
}

type mark struct {
	n int   // ops completed when the window ended
	t int64 // completion time of the op that ended it, ns since the region began
}

func newSamples(hint int, window time.Duration) *samples {
	return &samples{lat: make([]int64, 0, hint), window: int64(window), next: int64(window)}
}

// add logs an op that ran from t0 to t1 (ns since the region began).
func (s *samples) add(t0, t1 int64) {
	s.lat = append(s.lat, t1-t0)
	for t1 >= s.next {
		s.marks = append(s.marks, mark{len(s.lat), t1})
		s.next += s.window
	}
}

// window is one slice of a timed region across all clients.
type window struct {
	rate float64 // ops/s: the sum of each client's ops over its own exact span
	lat  []int64 // sorted
}

// cutWindows merges the clients' logs into n windows. A client that stopped
// early (a failed op) contributes to the windows it completed.
func cutWindows(clients []*samples, n int) []window {
	ws := make([]window, n)
	for _, s := range clients {
		prev := mark{}
		for k := 0; k < n && k < len(s.marks); k++ {
			m := s.marks[k]
			if m.t > prev.t {
				ws[k].rate += float64(m.n-prev.n) / (float64(m.t-prev.t) / 1e9)
			}
			ws[k].lat = append(ws[k].lat, s.lat[prev.n:m.n]...)
			prev = m
		}
	}
	for k := range ws {
		slices.Sort(ws[k].lat)
	}
	return ws
}

// medianOver returns the median of f over the windows in which at least one
// op completed (an op longer than a window leaves empty ones behind it).
func medianOver(ws []window, f func(*window) float64) float64 {
	v := make([]float64, 0, len(ws))
	for i := range ws {
		if len(ws[i].lat) > 0 {
			v = append(v, f(&ws[i]))
		}
	}
	return medianFloat(v)
}

func windowRate(w *window) float64 { return w.rate }

func windowPercentile(p float64) func(*window) float64 {
	return func(w *window) float64 { return us(percentile(w.lat, p)) }
}
