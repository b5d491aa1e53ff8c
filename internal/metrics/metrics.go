// Package metrics is a dependency-free metrics registry that renders in
// the Prometheus text exposition format (version 0.0.4).
//
// It exists so every stats surface in the index — engine counters,
// ingest/merge progress, per-shard query and append counts, cold-tier
// cache and device activity — can be scraped from one endpoint without
// pulling in the Prometheus client library (the module is intentionally
// dependency-free). Only the small subset of the format the index needs
// is implemented: counters, gauges, and fixed-bucket histograms, with
// optional constant labels per instrument.
//
// Counters and gauges are callback-backed (CounterFunc, GaugeFunc,
// MultiFunc): they sample an existing stats surface at scrape time, which
// is how the registry wires into the index's snapshot accessors without
// duplicating state. The histogram is the one owned instrument: it holds
// its own atomic state, updated on the hot path.
//
// All instruments are safe for concurrent use; WriteTo may run while
// writers are updating instruments and always renders a well-formed
// exposition (individual values are atomically read, the text is
// assembled from one consistent pass over the registry).
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one constant name/value pair attached to an instrument.
type Label struct {
	Key   string
	Value string
}

// Opts names an instrument. Name must match the Prometheus metric-name
// grammar ([a-zA-Z_:][a-zA-Z0-9_:]*); Help is the HELP line text.
type Opts struct {
	Name   string
	Help   string
	Labels []Label
}

// Metric is implemented by every instrument in this package. The methods
// are unexported: the only implementations live here.
type Metric interface {
	opts() Opts
	kind() string // "counter" | "gauge" | "histogram"
	// write appends the instrument's sample lines (without HELP/TYPE)
	// to b, rendered with the given constant labels.
	write(b *strings.Builder, labels []Label)
}

// --- callback-backed instruments ---

// CounterFunc exposes a counter sampled from fn at scrape time. fn must
// be safe to call concurrently and should be monotonically
// non-decreasing.
type CounterFunc struct {
	o  Opts
	fn func() float64
}

// NewCounterFunc returns a callback-backed counter.
func NewCounterFunc(o Opts, fn func() float64) *CounterFunc {
	return &CounterFunc{o: o, fn: fn}
}

func (c *CounterFunc) opts() Opts   { return c.o }
func (c *CounterFunc) kind() string { return "counter" }
func (c *CounterFunc) write(b *strings.Builder, labels []Label) {
	sampleLine(b, c.o.Name, labels, nil, formatFloat(c.fn()))
}

// GaugeFunc exposes a gauge sampled from fn at scrape time. fn must be
// safe to call concurrently.
type GaugeFunc struct {
	o  Opts
	fn func() float64
}

// NewGaugeFunc returns a callback-backed gauge.
func NewGaugeFunc(o Opts, fn func() float64) *GaugeFunc {
	return &GaugeFunc{o: o, fn: fn}
}

func (g *GaugeFunc) opts() Opts   { return g.o }
func (g *GaugeFunc) kind() string { return "gauge" }
func (g *GaugeFunc) write(b *strings.Builder, labels []Label) {
	sampleLine(b, g.o.Name, labels, nil, formatFloat(g.fn()))
}

// LabeledValue is one sample of a multi-sample instrument: a value under
// one variable-label value.
type LabeledValue struct {
	Label string
	Value float64
}

// MultiFunc exposes a whole metric family sampled from one callback at
// scrape time: fn returns any number of samples, each rendered under
// labelKey="<Label>" plus the instrument's constant labels. This is how
// per-tenant families — whose member set is dynamic and unknown at
// registration time — fit a registry of statically registered
// instruments. Samples render sorted by label so expositions are
// deterministic; fn must be safe to call concurrently.
type MultiFunc struct {
	o        Opts
	k        string
	labelKey string
	fn       func() []LabeledValue
}

// NewMultiGaugeFunc returns a callback-backed multi-sample gauge family.
// Panics if labelKey is not a valid label name.
func NewMultiGaugeFunc(o Opts, labelKey string, fn func() []LabeledValue) *MultiFunc {
	return newMultiFunc(o, "gauge", labelKey, fn)
}

// NewMultiCounterFunc returns a callback-backed multi-sample counter
// family; each sample's value should be monotonically non-decreasing.
// Panics if labelKey is not a valid label name.
func NewMultiCounterFunc(o Opts, labelKey string, fn func() []LabeledValue) *MultiFunc {
	return newMultiFunc(o, "counter", labelKey, fn)
}

func newMultiFunc(o Opts, kind, labelKey string, fn func() []LabeledValue) *MultiFunc {
	if !validName(labelKey) {
		panic(fmt.Sprintf("metrics: invalid label name %q on %q", labelKey, o.Name))
	}
	return &MultiFunc{o: o, k: kind, labelKey: labelKey, fn: fn}
}

func (m *MultiFunc) opts() Opts   { return m.o }
func (m *MultiFunc) kind() string { return m.k }
func (m *MultiFunc) write(b *strings.Builder, labels []Label) {
	vs := append([]LabeledValue(nil), m.fn()...)
	sort.Slice(vs, func(i, j int) bool { return vs[i].Label < vs[j].Label })
	for _, v := range vs {
		sampleLine(b, m.o.Name, labels,
			[]Label{{Key: m.labelKey, Value: v.Label}}, formatFloat(v.Value))
	}
}

// --- histogram ---

// LatencyBuckets are the fixed bucket upper bounds (seconds) used for
// all query-latency histograms: 100µs to 10s, roughly 2.5x apart. On the
// paper's workloads exact queries land in the 100µs–100ms decades; the
// tail buckets catch cold-tier and saturated-pool outliers.
var LatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket histogram. Buckets are cumulative in the
// rendered text (per the exposition format); internally each bucket
// holds only its own count so Observe is one atomic add.
type Histogram struct {
	o       Opts
	upper   []float64 // ascending; +Inf bucket is implicit
	counts  []atomic.Uint64
	sumBits atomic.Uint64
	count   atomic.Uint64
}

// NewHistogram returns a histogram with the given ascending bucket upper
// bounds (the +Inf bucket is implicit). Panics if buckets is empty or
// not strictly ascending.
func NewHistogram(o Opts, buckets []float64) *Histogram {
	if len(buckets) == 0 {
		panic("metrics: histogram needs at least one bucket")
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic("metrics: histogram buckets must be strictly ascending")
		}
	}
	h := &Histogram{o: o, upper: append([]float64(nil), buckets...)}
	h.counts = make([]atomic.Uint64, len(buckets)+1)
	return h
}

// Observe records one value (for latency histograms, in seconds).
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.upper, v) // first upper >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

func (h *Histogram) opts() Opts   { return h.o }
func (h *Histogram) kind() string { return "histogram" }
func (h *Histogram) write(b *strings.Builder, labels []Label) {
	var cum uint64
	for i, up := range h.upper {
		cum += h.counts[i].Load()
		sampleLine(b, h.o.Name+"_bucket", labels,
			[]Label{{Key: "le", Value: formatFloat(up)}},
			strconv.FormatUint(cum, 10))
	}
	cum += h.counts[len(h.upper)].Load()
	sampleLine(b, h.o.Name+"_bucket", labels,
		[]Label{{Key: "le", Value: "+Inf"}},
		strconv.FormatUint(cum, 10))
	sampleLine(b, h.o.Name+"_sum", labels, nil,
		formatFloat(math.Float64frombits(h.sumBits.Load())))
	sampleLine(b, h.o.Name+"_count", labels, nil,
		strconv.FormatUint(h.count.Load(), 10))
}

// labeled is a registration-time view of an instrument with extra
// constant labels appended — how a sharding layer registers one shard's
// instruments under a shard="i" label without the shard knowing its
// number. The underlying instrument still owns the values.
type labeled struct {
	Metric
	o Opts
}

func (l labeled) opts() Opts { return l.o }

// WithLabels returns a view of m with extra constant labels appended.
func WithLabels(m Metric, extra ...Label) Metric {
	o := m.opts()
	o.Labels = append(append([]Label(nil), o.Labels...), extra...)
	return labeled{Metric: m, o: o}
}

// --- registry ---

// Registry holds registered instruments and renders them as one
// Prometheus text exposition. Families (instruments sharing a name) are
// emitted sorted by name; within a family, samples keep registration
// order. Safe for concurrent registration and rendering.
type Registry struct {
	mu      sync.Mutex
	metrics []Metric
	// kinds maps family name -> kind, to reject type-conflicting
	// registrations; series maps name+labels -> true to reject exact
	// duplicates.
	kinds  map[string]string
	series map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{kinds: make(map[string]string), series: make(map[string]bool)}
}

// MustRegister adds instruments to the registry. It panics on an invalid
// metric name, a family re-registered with a different type, or an exact
// duplicate (same name and label set) — all are programming errors.
func (r *Registry) MustRegister(ms ...Metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range ms {
		o := m.opts()
		if !validName(o.Name) {
			panic(fmt.Sprintf("metrics: invalid metric name %q", o.Name))
		}
		for _, l := range o.Labels {
			if !validName(l.Key) {
				panic(fmt.Sprintf("metrics: invalid label name %q on %q", l.Key, o.Name))
			}
		}
		if k, ok := r.kinds[o.Name]; ok && k != m.kind() {
			panic(fmt.Sprintf("metrics: %q registered as both %s and %s", o.Name, k, m.kind()))
		}
		key := seriesKey(o)
		if r.series[key] {
			panic(fmt.Sprintf("metrics: duplicate registration of %s", key))
		}
		r.kinds[o.Name] = m.kind()
		r.series[key] = true
		r.metrics = append(r.metrics, m)
	}
}

// Text renders the full exposition as a string.
func (r *Registry) Text() string {
	r.mu.Lock()
	ms := append([]Metric(nil), r.metrics...)
	r.mu.Unlock()

	// Group into families preserving registration order within each.
	order := make([]string, 0, len(ms))
	fams := make(map[string][]Metric, len(ms))
	for _, m := range ms {
		name := m.opts().Name
		if _, ok := fams[name]; !ok {
			order = append(order, name)
		}
		fams[name] = append(fams[name], m)
	}
	sort.Strings(order)

	var b strings.Builder
	for _, name := range order {
		fam := fams[name]
		help := fam[0].opts().Help
		if help != "" {
			b.WriteString("# HELP ")
			b.WriteString(name)
			b.WriteByte(' ')
			b.WriteString(escapeHelp(help))
			b.WriteByte('\n')
		}
		b.WriteString("# TYPE ")
		b.WriteString(name)
		b.WriteByte(' ')
		b.WriteString(fam[0].kind())
		b.WriteByte('\n')
		for _, m := range fam {
			m.write(&b, m.opts().Labels)
		}
	}
	return b.String()
}

// WriteTo renders the exposition to w.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	n, err := io.WriteString(w, r.Text())
	return int64(n), err
}

// Handler returns an http.Handler serving the exposition with the
// standard text-format content type.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = r.WriteTo(w)
	})
}

// --- rendering helpers ---

func sampleLine(b *strings.Builder, name string, labels, extra []Label, value string) {
	b.WriteString(name)
	if len(labels)+len(extra) > 0 {
		b.WriteByte('{')
		first := true
		for _, set := range [][]Label{labels, extra} {
			for _, l := range set {
				if !first {
					b.WriteByte(',')
				}
				first = false
				b.WriteString(l.Key)
				b.WriteString(`="`)
				b.WriteString(escapeLabel(l.Value))
				b.WriteByte('"')
			}
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		alpha := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

func seriesKey(o Opts) string {
	var b strings.Builder
	sampleLine(&b, o.Name, o.Labels, nil, "")
	return strings.TrimRight(b.String(), " \n")
}
