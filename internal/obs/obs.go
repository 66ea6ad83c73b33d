// Package obs is calciomd's zero-dependency observability layer: a metrics
// registry (counters, gauges, fixed-bucket histograms) whose hot-path
// operations are single atomic adds into preallocated storage, a Prometheus
// text-exposition renderer, an HTTP admin handler (/metrics, /healthz,
// /statusz, net/http/pprof), and a sampled structured event log for grant
// lifecycle logging.
//
// The registry is the one metric writer: it renders the series code updates
// and the families its collectors fill at scrape time, in one exposition.
//
// The package is built for instrumenting code that must stay allocation-free
// under load: Counter.Add, Gauge.Set/Add and Histogram.Observe never
// allocate, never lock, and never branch on more than a nil check plus a
// bucket search. All allocation happens at registration time (one series per
// (name, labels) pair, created once) and at render time (scrapes), both off
// the arbitration hot path.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64 metric. The zero value is
// ready to use; methods are safe for concurrent use and allocation-free.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous int64 metric (queue depths, session counts).
// The zero value is ready to use; methods are allocation-free.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the value by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// FloatCounter is a monotonically increasing float64 metric (accumulated
// seconds). Add is a CAS loop — still allocation-free, but meant for
// control-plane accounting rather than per-request hot paths.
type FloatCounter struct{ bits atomic.Uint64 }

// Add accumulates v (v must be >= 0).
func (f *FloatCounter) Add(v float64) {
	for {
		old := f.bits.Load()
		cur := math.Float64frombits(old)
		if f.bits.CompareAndSwap(old, math.Float64bits(cur+v)) {
			return
		}
	}
}

// Value returns the accumulated total.
func (f *FloatCounter) Value() float64 { return math.Float64frombits(f.bits.Load()) }

// DefaultLatencyBuckets are the upper bounds (seconds) used for
// coordination-latency histograms: 10µs to 10s, roughly 1-2.5-5 per decade,
// with an implicit +Inf overflow bucket. wire.Hist summaries in daemon
// stats and offline replay use the same bounds, so live and replayed
// percentiles are comparable bucket for bucket.
var DefaultLatencyBuckets = []float64{
	10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket histogram with atomic, allocation-free
// observation. Buckets are preallocated at construction; Observe is a
// binary search over the (immutable) bounds plus one atomic add into the
// matching bucket and one atomic add into the fixed-point sum.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; bucket i counts v <= bounds[i]
	buckets []atomic.Uint64
	// sum is kept in nanosecond fixed point so Observe stays a plain
	// atomic add (float64 accumulation would need a CAS loop). At 1e-9
	// resolution an int64 holds ~292 years of accumulated latency.
	sumNanos atomic.Int64
}

// NewHistogram builds a histogram over the given ascending upper bounds
// (an implicit +Inf bucket is appended). Panics on empty or unsorted
// bounds — histogram shape is a programming decision, not input.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value. Values at an exact bucket bound land in that
// bucket (le semantics); values above every bound land in the +Inf
// overflow bucket. Negative values clamp into the first bucket. Safe for
// concurrent use; never allocates.
func (h *Histogram) Observe(v float64) {
	// sort.SearchFloat64s is the first index with bounds[i] >= v, which is
	// exactly the le-bucket; len(bounds) means overflow.
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	if v > 0 {
		h.sumNanos.Add(int64(v * 1e9))
	}
}

// HistSnapshot is a point-in-time copy of a histogram's state. Counts has
// one entry per bucket (the last is the +Inf overflow); Count is their
// sum. Concurrent Observes may land between bucket reads — each bucket is
// internally consistent, which is what scraping needs.
type HistSnapshot struct {
	Bounds []float64
	Counts []uint64
	Sum    float64
	Count  uint64
}

// Snapshot copies the histogram state for rendering or merging.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.buckets)),
		Sum:    float64(h.sumNanos.Load()) / 1e9,
	}
	for i := range h.buckets {
		c := h.buckets[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	return s
}

// metric kinds for rendering.
const (
	kindCounter = "counter"
	kindGauge   = "gauge"
	kindHist    = "histogram"
)

// Label is one name=value pair attached to a metric series.
type Label struct{ Key, Value string }

// series is one (family, labels) instance.
type series struct {
	labels string // rendered `{k="v",...}`, or "" for an unlabeled series
	c      *Counter
	g      *Gauge
	f      *FloatCounter
	h      *Histogram
}

// family is one metric name: help text, kind, and its label series.
type family struct {
	name   string
	help   string
	kind   string
	series map[string]*series
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. Registration is idempotent — asking for an existing
// (name, labels) series returns the same instance, so callers can resolve
// their series once at setup and hold the pointer for the hot path.
type Registry struct {
	mu         sync.Mutex
	families   map[string]*family
	collectors []func(*Registry)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// get finds or creates the (name, labels) series and, under the lock, has
// init create the metric it lacks: a scrape copies series under the same
// lock, so it never sees one half made.
func (r *Registry) get(name, help, kind string, labels []Label, init func(*series)) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.families[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %s registered as %s and %s", name, f.kind, kind))
	}
	key := renderLabels(labels)
	s := f.series[key]
	if s == nil {
		s = &series{labels: key}
		f.series[key] = s
	}
	init(s)
	return s
}

// Counter registers (or finds) a counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.get(name, help, kindCounter, labels, func(s *series) {
		if s.c == nil {
			s.c = &Counter{}
		}
	}).c
}

// Gauge registers (or finds) a gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.get(name, help, kindGauge, labels, func(s *series) {
		if s.g == nil {
			s.g = &Gauge{}
		}
	}).g
}

// FloatCounter registers (or finds) a float counter series (rendered as a
// Prometheus counter).
func (r *Registry) FloatCounter(name, help string, labels ...Label) *FloatCounter {
	return r.get(name, help, kindCounter, labels, initFloat).f
}

// FloatGauge registers (or finds) a float series rendered as a Prometheus
// gauge. It only rises, so it is for collectors: one Add on the fresh
// registry a scrape hands them sets it.
func (r *Registry) FloatGauge(name, help string, labels ...Label) *FloatCounter {
	return r.get(name, help, kindGauge, labels, initFloat).f
}

func initFloat(s *series) {
	if s.f == nil {
		s.f = &FloatCounter{}
	}
}

// Histogram registers (or finds) a histogram series over the given bounds.
// An existing series keeps its original bounds.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	return r.get(name, help, kindHist, labels, func(s *series) {
		if s.h == nil {
			s.h = NewHistogram(bounds)
		}
	}).h
}

// Collect adds fn to the registry's collectors. Every scrape calls each
// collector once with a fresh registry, which it fills with the current
// values of its scrape-time families: counts another structure already
// keeps, rendered from there instead of being counted a second time. A
// collector's families must not share a name with one r stores.
func (r *Registry) Collect(fn func(*Registry)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, fn)
}

// famSeries is one family's series, copied for rendering.
type famSeries struct {
	f      *family // name, help and kind never change
	series []series
}

// appendFamilies appends a copy of every family's series to fams. The
// caller holds r.mu, or owns r alone.
func (r *Registry) appendFamilies(fams []famSeries) []famSeries {
	for _, f := range r.families {
		fs := famSeries{f: f, series: make([]series, 0, len(f.series))}
		for _, s := range f.series {
			fs.series = append(fs.series, *s)
		}
		fams = append(fams, fs)
	}
	return fams
}

// WriteTo renders every family, stored and collected, in Prometheus text
// exposition format, deterministically: families sorted by name, series by
// label string. It copies the stored series under the lock, so registration
// may run alongside, and renders outside it: every value it reads is
// atomic. The collectors run outside the lock too, because they may take
// locks under which their owner registers series.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	fams := r.appendFamilies(nil)
	collectors := r.collectors
	r.mu.Unlock()
	scrape := NewRegistry()
	for _, fn := range collectors {
		fn(scrape)
	}
	fams = scrape.appendFamilies(fams)
	sort.Slice(fams, func(i, j int) bool { return fams[i].f.name < fams[j].f.name })

	var b []byte
	for _, fs := range fams {
		f := fs.f
		b = fmt.Appendf(b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
		sort.Slice(fs.series, func(i, j int) bool { return fs.series[i].labels < fs.series[j].labels })
		for i := range fs.series {
			s := &fs.series[i]
			if s.h != nil {
				b = appendHist(b, f.name, s.labels, s.h.Snapshot())
				continue
			}
			b = append(appendSeries(b, f.name, "", s.labels), ' ')
			switch {
			case s.c != nil:
				b = strconv.AppendUint(b, s.c.Value(), 10)
			case s.f != nil:
				b = appendFloat(b, s.f.Value())
			case s.g != nil:
				b = strconv.AppendInt(b, s.g.Value(), 10)
			}
			b = append(b, '\n')
		}
	}
	n, err := w.Write(b)
	return int64(n), err
}

// appendSeries appends a series name, with its suffix, and its labels.
func appendSeries(b []byte, name, suffix, labels string) []byte {
	b = append(b, name...)
	b = append(b, suffix...)
	return append(b, labels...)
}

// appendHist renders one histogram series: cumulative le-buckets, the last
// +Inf, then sum and count. The le label joins the series' own labels.
func appendHist(b []byte, name, labels string, s HistSnapshot) []byte {
	le := `{le="`
	if labels != "" {
		le = labels[:len(labels)-1] + `,le="`
	}
	cum := uint64(0)
	for i, c := range s.Counts {
		cum += c
		b = appendSeries(b, name, "_bucket", le)
		if i < len(s.Bounds) {
			b = appendFloat(b, s.Bounds[i])
		} else {
			b = append(b, "+Inf"...)
		}
		b = append(b, `"} `...)
		b = append(strconv.AppendUint(b, cum, 10), '\n')
	}
	b = append(appendSeries(b, name, "_sum", labels), ' ')
	b = append(appendFloat(b, s.Sum), '\n')
	b = append(appendSeries(b, name, "_count", labels), ' ')
	return append(strconv.AppendUint(b, cum, 10), '\n')
}

// renderLabels renders a label set in the given order (callers pass a fixed
// order, so one series always renders identically).
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(labelEscaper.Replace(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// labelEscaper escapes a label value per the exposition format; a value
// with nothing to escape comes back as it is.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// appendFloat renders a float like Prometheus clients do: shortest exact
// representation, deterministic across runs.
func appendFloat(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}
