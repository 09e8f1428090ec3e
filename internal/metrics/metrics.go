// Package metrics is a small, dependency-free instrumentation library with a
// Prometheus-compatible text exposition. It provides exactly what the
// allocation daemon needs — monotone counters, latency histograms, and
// scrape-time collection callbacks for state that already lives elsewhere
// (store counters, per-shard statistics, journal I/O) — rather than a general
// metrics framework.
//
// All instruments are safe for concurrent use; updates are lock-free atomics
// on the hot path. Families render in registration order, children in
// first-use order, so the exposition is deterministic and diffable.
package metrics

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

// Label is one key="value" pair of a metric child.
type Label struct {
	Key, Value string
}

// Labels is an ordered label set. Order is preserved in the exposition.
type Labels []Label

// L builds a label set from alternating key, value strings: L("path",
// "/v1/stats", "method", "GET"). It panics on an odd count — label sets are
// static call sites, not data.
func L(kv ...string) Labels {
	if len(kv)%2 != 0 {
		panic("metrics: L needs alternating key, value pairs")
	}
	ls := make(Labels, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		ls = append(ls, Label{Key: kv[i], Value: kv[i+1]})
	}
	return ls
}

// String renders the label set in exposition form, without braces.
func (ls Labels) String() string {
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// Counter is a monotone cumulative counter.
type Counter struct {
	n atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.n.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n.Load() }

// Histogram is a cumulative-bucket histogram in the Prometheus style: counts
// per upper bound plus a running sum. Observe is lock-free.
type Histogram struct {
	bounds []float64 // sorted upper bounds, exclusive of +Inf
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	if i < len(h.bounds) {
		h.counts[i].Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// ExpBuckets returns n upper bounds growing geometrically from start by
// factor — the usual latency bucket layout.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// family is one named metric with its children (one per label set).
type family struct {
	name, help, typ string

	mu       sync.Mutex
	order    []string // child keys in first-use order
	counters map[string]*child
	hists    map[string]*histChild

	collect     func(emit func(Labels, float64)) // scrape-time families
	collectHist func() HistogramSnapshot         // scrape-time histograms
}

type child struct {
	labels Labels
	c      Counter
}

type histChild struct {
	labels Labels
	h      *Histogram
}

// Registry holds metric families and renders the exposition.
type Registry struct {
	mu   sync.Mutex
	fams []*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

func (r *Registry) addFamily(f *family) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, existing := range r.fams {
		if existing.name == f.name {
			panic(fmt.Sprintf("metrics: family %q registered twice", f.name))
		}
	}
	r.fams = append(r.fams, f)
	return f
}

// CounterVec declares a counter family; use With to get per-label children.
type CounterVec struct{ f *family }

// NewCounterVec registers a counter family.
func (r *Registry) NewCounterVec(name, help string) *CounterVec {
	return &CounterVec{f: r.addFamily(&family{
		name: name, help: help, typ: "counter",
		counters: make(map[string]*child),
	})}
}

// With returns the counter for the given label set, creating it on first use.
func (v *CounterVec) With(labels Labels) *Counter {
	key := labels.String()
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	c, ok := v.f.counters[key]
	if !ok {
		c = &child{labels: labels}
		v.f.counters[key] = c
		v.f.order = append(v.f.order, key)
	}
	return &c.c
}

// HistogramVec declares a histogram family with fixed bucket bounds.
type HistogramVec struct {
	f      *family
	bounds []float64
}

// NewHistogramVec registers a histogram family. bounds are the finite upper
// bucket bounds, ascending; the +Inf bucket is implicit.
func (r *Registry) NewHistogramVec(name, help string, bounds []float64) *HistogramVec {
	return &HistogramVec{
		f: r.addFamily(&family{
			name: name, help: help, typ: "histogram",
			hists: make(map[string]*histChild),
		}),
		bounds: bounds,
	}
}

// With returns the histogram for the given label set, creating it on first
// use.
func (v *HistogramVec) With(labels Labels) *Histogram {
	key := labels.String()
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	c, ok := v.f.hists[key]
	if !ok {
		c = &histChild{labels: labels, h: &Histogram{
			bounds: v.bounds,
			counts: make([]atomic.Uint64, len(v.bounds)),
		}}
		v.f.hists[key] = c
		v.f.order = append(v.f.order, key)
	}
	return c.h
}

// Collect registers a scrape-time family: fn runs on every WriteText call and
// emits samples for state owned elsewhere. typ is the declared metric type
// ("counter" for monotone upstream counters, "gauge" for point-in-time
// values).
func (r *Registry) Collect(name, help, typ string, fn func(emit func(Labels, float64))) {
	r.addFamily(&family{name: name, help: help, typ: typ, collect: fn})
}

// HistogramSnapshot is a point-in-time cumulative histogram returned by a
// CollectHistogram callback: counts aggregated by some other subsystem that
// already keeps its own buckets.
type HistogramSnapshot struct {
	Bounds    []float64 // finite upper bounds, ascending
	CumCounts []uint64  // cumulative observation counts per bound
	Count     uint64    // total observations (the implicit +Inf cumulative count)
	Sum       float64   // sum of all observed values
}

// CollectHistogram registers a scrape-time histogram family rendered from a
// snapshot callback.
func (r *Registry) CollectHistogram(name, help string, fn func() HistogramSnapshot) {
	r.addFamily(&family{name: name, help: help, typ: "histogram", collectHist: fn})
}

// WriteText renders the registry in the Prometheus text exposition format
// (version 0.0.4): families in registration order, children in first-use
// order, collect callbacks evaluated at call time.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.fams...)
	r.mu.Unlock()
	for _, f := range fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ); err != nil {
			return err
		}
		if err := f.write(w); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) write(w io.Writer) error {
	if f.collectHist != nil {
		return writeHistSnapshot(w, f.name, f.collectHist())
	}
	if f.collect != nil {
		var err error
		f.collect(func(labels Labels, v float64) {
			if err != nil {
				return
			}
			err = writeSample(w, f.name, labels.String(), v)
		})
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, key := range f.order {
		if c, ok := f.counters[key]; ok {
			if err := writeSample(w, f.name, key, float64(c.c.Value())); err != nil {
				return err
			}
		}
		if hc, ok := f.hists[key]; ok {
			if err := writeHistogram(w, f.name, hc.labels, hc.h); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSample(w io.Writer, name, labelStr string, v float64) error {
	if labelStr == "" {
		_, err := fmt.Fprintf(w, "%s %s\n", name, formatValue(v))
		return err
	}
	_, err := fmt.Fprintf(w, "%s{%s} %s\n", name, labelStr, formatValue(v))
	return err
}

func writeHistogram(w io.Writer, name string, labels Labels, h *Histogram) error {
	cum := uint64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		ls := append(append(Labels(nil), labels...), Label{Key: "le", Value: formatValue(bound)})
		if err := writeSample(w, name+"_bucket", ls.String(), float64(cum)); err != nil {
			return err
		}
	}
	total := h.Count()
	ls := append(append(Labels(nil), labels...), Label{Key: "le", Value: "+Inf"})
	if err := writeSample(w, name+"_bucket", ls.String(), float64(total)); err != nil {
		return err
	}
	if err := writeSample(w, name+"_sum", labels.String(), h.Sum()); err != nil {
		return err
	}
	return writeSample(w, name+"_count", labels.String(), float64(total))
}

func writeHistSnapshot(w io.Writer, name string, s HistogramSnapshot) error {
	for i, bound := range s.Bounds {
		cum := uint64(0)
		if i < len(s.CumCounts) {
			cum = s.CumCounts[i]
		}
		ls := Labels{{Key: "le", Value: formatValue(bound)}}
		if err := writeSample(w, name+"_bucket", ls.String(), float64(cum)); err != nil {
			return err
		}
	}
	ls := Labels{{Key: "le", Value: "+Inf"}}
	if err := writeSample(w, name+"_bucket", ls.String(), float64(s.Count)); err != nil {
		return err
	}
	if err := writeSample(w, name+"_sum", "", s.Sum); err != nil {
		return err
	}
	return writeSample(w, name+"_count", "", float64(s.Count))
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
