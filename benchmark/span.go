package main

import (
	"bufio"
	"fmt"
	"os"
	"slices"
)

// spanName identifies one layer boundary the benchmark brackets. Spans are
// opened and closed in benchmark code around calls into the layers' public
// functions; nothing inside the program under test is instrumented.
type spanName uint8

const (
	spOp spanName = iota
	spInform
	spWait
	spRelease
	spEnd
	spTraceRead
	spCompare
	spRender
	spSweepInto
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"op", "client.Inform", "client.Wait", "client.Release", "client.End",
	"trace.Read", "replay.Compare", "render", "delta.SweepInto",
}

// span is one recorded interval. Parent indexes the span that caused it in
// the same recorder (-1 for an op root); spans of one op share Op.
type span struct {
	Name       spanName
	Parent     int32
	Op         uint32
	Start, End int64 // ns since the run's time base
}

// recorder keeps one closed-loop client's spans in memory until the run
// ends. It is owned by that client's goroutine, so recording takes no lock,
// and spans are appended in start order. A nil recorder records nothing, so
// an untraced op runs the same code as a traced one.
type recorder struct {
	spans []span
}

func (r *recorder) begin(name spanName, parent int32, op uint32, now int64) int32 {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Parent: parent, Op: op, Start: now})
	return int32(len(r.spans) - 1)
}

func (r *recorder) end(id int32, now int64) {
	if r != nil {
		r.spans[id].End = now
	}
}

// selfTimes returns, for every span, its duration minus the part of its
// interval covered by its child spans (children clipped to the parent and
// overlapping children counted once). Spans must be in start order with
// parents before their children, as a recorder appends them.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	edge := make([]int64, len(spans)) // how far each span's children have covered it
	for i, s := range spans {
		self[i], edge[i] = s.End-s.Start, s.Start
		if p := s.Parent; p >= 0 {
			lo, hi := max(s.Start, edge[p]), min(s.End, spans[p].End)
			if hi > lo {
				self[p] -= hi - lo
				edge[p] = hi
			}
		}
	}
	return self
}

// spanSummary aggregates one span name across a run.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalUs float64 `json:"total_us"`
	SelfUs  float64 `json:"self_us"`
	P50Us   float64 `json:"p50_us"`
}

// spanStats holds the per-name durations (sorted ascending) and totals of
// every recorder of a run.
type spanStats struct {
	durs  [numSpanNames][]int64
	total [numSpanNames]int64
	self  [numSpanNames]int64
}

func summarize(recs []*recorder) *spanStats {
	st := &spanStats{}
	for _, r := range recs {
		self := selfTimes(r.spans)
		for i, s := range r.spans {
			d := s.End - s.Start
			st.durs[s.Name] = append(st.durs[s.Name], d)
			st.total[s.Name] += d
			st.self[s.Name] += self[i]
		}
	}
	for i := range st.durs {
		slices.Sort(st.durs[i])
	}
	return st
}

func (st *spanStats) p50us(n spanName) float64 { return us(percentile(st.durs[n], 50)) }

func (st *spanStats) summaries() []spanSummary {
	var out []spanSummary
	for n := spanName(0); n < numSpanNames; n++ {
		if len(st.durs[n]) == 0 {
			continue
		}
		out = append(out, spanSummary{
			Name: spanNames[n], Count: len(st.durs[n]),
			TotalUs: us(st.total[n]), SelfUs: us(st.self[n]), P50Us: st.p50us(n),
		})
	}
	return out
}

// spanFileCap bounds the span dump: the aggregate lives in the result file,
// the dump is for reading individual ops, and a full mux-fanin run records
// millions of spans.
const spanFileCap = 10000

// writeSpans dumps the first spanFileCap spans as JSON lines.
func writeSpans(path string, recs []*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	n := 0
	for c, r := range recs {
		for i, s := range r.spans {
			if n == spanFileCap {
				break
			}
			fmt.Fprintf(w, `{"client":%d,"id":%d,"parent":%d,"op":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
				c, i, s.Parent, s.Op, spanNames[s.Name], s.Start, s.End)
			n++
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
