// Package obs is the system's zero-dependency observability layer: a
// concurrent-safe metrics registry with Prometheus text-format exposition,
// lightweight trace spans threaded through context.Context, and a per-run
// JSON manifest tying seeds, parameters and effort counters together.
//
// Everything is built to disappear when unused: a nil *Registry hands out
// nil metric handles whose methods are no-ops, and StartSpan on a context
// without a trace returns a nil span whose End is a no-op. Hot paths can
// therefore be instrumented unconditionally; the disabled cost is a nil
// check (guarded by BenchmarkSessionFetchProfile in internal/crawler).
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one metric dimension, e.g. {category="seed"}.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// atomicFloat is a float64 with atomic add, stored as IEEE-754 bits.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		if f.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (f *atomicFloat) Store(v float64) { f.bits.Store(math.Float64bits(v)) }

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// Counter is a monotonically increasing metric. The zero value is ready to
// use; a nil Counter is a no-op, which is how a disabled registry costs
// nothing on hot paths.
type Counter struct {
	v atomicFloat
}

// Inc adds 1.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add increases the counter by v; negative deltas are ignored (counters
// are monotone by definition).
func (c *Counter) Add(v float64) {
	if c == nil || v < 0 {
		return
	}
	c.v.Add(v)
}

// AddDuration adds d in seconds, the Prometheus base unit for time.
func (c *Counter) AddDuration(d time.Duration) { c.Add(d.Seconds()) }

// Value returns the current count.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down (queue depths, in-flight
// requests). A nil Gauge is a no-op.
type Gauge struct {
	v atomicFloat
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add shifts the gauge by v (negative allowed).
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	g.v.Add(v)
}

// Inc adds 1.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// DefLatencyBuckets are the default histogram bounds for request
// latencies, in seconds: 1ms to 10s, roughly logarithmic.
var DefLatencyBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// Histogram is a fixed-bucket distribution. Observations land in the first
// bucket whose upper bound is >= the value; an implicit +Inf bucket catches
// the rest. A nil Histogram is a no-op.
type Histogram struct {
	bounds []float64      // ascending upper bounds, +Inf implicit
	counts []atomic.Int64 // len(bounds)+1; non-cumulative per bucket
	sum    atomicFloat
	count  atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Quantile estimates the q-quantile (q in [0,1]) from the fixed buckets by
// linear interpolation inside the bucket holding the target rank, the same
// estimator Prometheus's histogram_quantile applies. Values in the implicit
// +Inf bucket are reported as the highest finite bound (there is no upper
// edge to interpolate toward). Returns 0 when the histogram is empty or nil.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	counts := make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return bucketQuantile(h.bounds, counts, q)
}

// bucketQuantile is the interpolation kernel shared by the live Histogram
// and HistogramSnapshot: counts is per-bucket (not cumulative), one entry
// longer than bounds for the +Inf bucket.
func bucketQuantile(bounds []float64, counts []int64, q float64) float64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 || len(bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum int64
	for i, c := range counts {
		prev := cum
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= len(bounds) {
			// Target rank lands in +Inf: the best point estimate the fixed
			// buckets allow is the largest finite bound.
			return bounds[len(bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		hi := bounds[i]
		if c == 0 {
			return hi
		}
		return lo + (hi-lo)*(rank-float64(prev))/float64(c)
	}
	return bounds[len(bounds)-1]
}

// metric is one labelled series inside a family.
type metric struct {
	labels string // rendered {k="v",...} or ""
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family is all series sharing one metric name.
type family struct {
	name, help, typ string
	bounds          []float64 // histograms only
	mu              sync.Mutex
	series          map[string]*metric // by rendered label string
}

// Registry holds metric families and renders them in Prometheus text
// format. All methods are safe for concurrent use. A nil *Registry returns
// nil handles from every constructor, making the whole subsystem a no-op.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// renderLabels produces the canonical {k="v",...} form, sorted by key.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel applies the exposition-format escapes for label values.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// fam returns the family, creating it on first use. It panics when the
// name is reused with a different metric type — that is a programming
// error, not a runtime condition.
func (r *Registry) fam(name, help, typ string, bounds []float64) *family {
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil {
		r.mu.Lock()
		if f = r.families[name]; f == nil {
			f = &family{name: name, help: help, typ: typ, bounds: bounds, series: make(map[string]*metric)}
			r.families[name] = f
		}
		r.mu.Unlock()
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.typ, typ))
	}
	return f
}

// Counter returns the counter for name+labels, creating it on first use.
// Subsequent calls with the same name and labels return the same counter.
// Returns nil (a no-op counter) on a nil registry.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.fam(name, help, "counter", nil).get(labels).c
}

// Gauge returns the gauge for name+labels, creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.fam(name, help, "gauge", nil).get(labels).g
}

// Histogram returns the histogram for name+labels, creating it on first
// use with the given bucket upper bounds (nil = DefLatencyBuckets). Bounds
// are fixed by the first registration.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	if bounds == nil {
		bounds = DefLatencyBuckets
	}
	return r.fam(name, help, "histogram", bounds).get(labels).h
}

// get returns the series for the labels, creating it — typed handle
// included — under the family lock, so two goroutines racing to create
// the same series always end up sharing one handle.
func (f *family) get(labels []Label) *metric {
	key := renderLabels(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	m := f.series[key]
	if m == nil {
		m = &metric{labels: key}
		switch f.typ {
		case "counter":
			m.c = &Counter{}
		case "gauge":
			m.g = &Gauge{}
		case "histogram":
			m.h = &Histogram{bounds: f.bounds, counts: make([]atomic.Int64, len(f.bounds)+1)}
		}
		f.series[key] = m
	}
	return m
}

// formatValue renders a sample value the way Prometheus expects: integers
// without a decimal point, everything else in shortest-float form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// mergeLabels splices an le="..." pair into a rendered label string.
func mergeLabels(rendered, le string) string {
	pair := `le="` + le + `"`
	if rendered == "" {
		return "{" + pair + "}"
	}
	return rendered[:len(rendered)-1] + "," + pair + "}"
}

// WritePrometheus renders every family in Prometheus text exposition
// format (version 0.0.4), families and series in sorted order so output is
// stable for golden tests and diffing between scrapes.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.RUnlock()

	var b strings.Builder
	for _, f := range fams {
		f.mu.Lock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		for _, k := range keys {
			m := f.series[k]
			switch f.typ {
			case "counter":
				fmt.Fprintf(&b, "%s%s %s\n", f.name, m.labels, formatValue(m.c.Value()))
			case "gauge":
				fmt.Fprintf(&b, "%s%s %s\n", f.name, m.labels, formatValue(m.g.Value()))
			case "histogram":
				cum := int64(0)
				for i, bound := range m.h.bounds {
					cum += m.h.counts[i].Load()
					le := strconv.FormatFloat(bound, 'g', -1, 64)
					fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, mergeLabels(m.labels, le), cum)
				}
				cum += m.h.counts[len(m.h.bounds)].Load()
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, mergeLabels(m.labels, "+Inf"), cum)
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, m.labels, formatValue(m.h.Sum()))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, m.labels, m.h.Count())
			}
		}
		f.mu.Unlock()
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Handler serves the registry as a /metrics endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// HistogramSnapshot is one histogram series frozen for JSON export. Counts
// are per-bucket (not cumulative) with the +Inf bucket last, so the snapshot
// carries everything Quantile needs.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Sum    float64   `json:"sum"`
	Count  int64     `json:"count"`
}

// Quantile estimates the q-quantile from the snapshot's buckets, same
// estimator as Histogram.Quantile — this is what cmd/runreport runs over a
// manifest's embedded metrics.
//
// An empty snapshot (no observations, or no buckets at all) returns 0,
// not NaN: report columns render as zeros and downstream arithmetic is
// never poisoned. Callers that must distinguish "no data" from "all
// observations were 0" check Count.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	return bucketQuantile(s.Bounds, s.Counts, q)
}

// MetricsSnapshot freezes every series in a registry in JSON-friendly form:
// the machine-readable sibling of the Prometheus text exposition, served by
// osnd at /metrics.json and embedded in run manifests for cmd/runreport.
type MetricsSnapshot struct {
	Counters   map[string]float64           `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every family in the registry. Keys are "name{labels}",
// matching Counters. Returns nil on a nil registry.
func (r *Registry) Snapshot() *MetricsSnapshot {
	if r == nil {
		return nil
	}
	snap := &MetricsSnapshot{
		Counters:   make(map[string]float64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	for _, f := range fams {
		f.mu.Lock()
		for _, m := range f.series {
			key := f.name + m.labels
			switch f.typ {
			case "counter":
				snap.Counters[key] = m.c.Value()
			case "gauge":
				snap.Gauges[key] = m.g.Value()
			case "histogram":
				hs := HistogramSnapshot{
					Bounds: m.h.bounds,
					Counts: make([]int64, len(m.h.counts)),
					Sum:    m.h.Sum(),
					Count:  m.h.Count(),
				}
				for i := range m.h.counts {
					hs.Counts[i] = m.h.counts[i].Load()
				}
				snap.Histograms[key] = hs
			}
		}
		f.mu.Unlock()
	}
	return snap
}

// JSONHandler serves the registry as a /metrics.json endpoint.
func (r *Registry) JSONHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(r.Snapshot())
	})
}

// Counters snapshots every counter series as "name{labels}" → value —
// the form the run manifest embeds so a crawl's effort accounting rides
// along with its parameters.
func (r *Registry) Counters() map[string]float64 {
	if r == nil {
		return nil
	}
	out := make(map[string]float64)
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	for _, f := range fams {
		if f.typ != "counter" {
			continue
		}
		f.mu.Lock()
		for _, m := range f.series {
			out[f.name+m.labels] = m.c.Value()
		}
		f.mu.Unlock()
	}
	return out
}
