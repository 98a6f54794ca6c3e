package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// atomicFloat is a float64 updated with CAS on its bit pattern.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Load() float64   { return math.Float64frombits(f.bits.Load()) }
func (f *atomicFloat) Store(v float64) { f.bits.Store(math.Float64bits(v)) }

// Add folds v into the float with a CAS loop (lock-free).
func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Label is one name/value dimension baked into a metric at creation
// time, so the hot-path update needs no label hashing.
type Label struct{ Key, Value string }

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Collector is anything the registry can export: Counter, GaugeFunc or
// Histogram.
type Collector interface{ metricKind() string }

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use, so it can live as a struct field (e.g. the overload
// limiter's shed ledger) and be adopted into a Registry later.
type Counter struct{ v atomic.Uint64 }

// NewCounter returns a standalone counter (register it with
// Registry.Register to export it).
func NewCounter() *Counter { return &Counter{} }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (*Counter) metricKind() string { return "counter" }

// GaugeFunc exports a value computed at scrape time — the adoption path
// for state that already lives elsewhere (limiter occupancy, breaker
// state, cluster virtual time). Fn must be safe for concurrent use.
type GaugeFunc struct{ Fn func() float64 }

func (*GaugeFunc) metricKind() string { return "gauge" }

// Histogram is a fixed-bucket histogram with atomic bucket counters:
// one atomic increment per bucket, one per total count and a CAS-add on
// the sum per Observe — no mutex anywhere on the update path. Bounds
// are upper bucket edges (ascending); an implicit +Inf bucket catches
// the overflow.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	count  atomic.Uint64
	sum    atomicFloat
}

// NewHistogram builds a histogram over the given ascending upper bucket
// bounds. The slice is copied.
func NewHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// LatencyBucketsMS is the default latency binning: 0.05 ms to ~26 s in
// 20 doubling buckets, covering fabric round trips through the
// failure-detection timeout.
func LatencyBucketsMS() []float64 {
	b := make([]float64, 20)
	v := 0.05
	for i := range b {
		b[i] = v
		v *= 2
	}
	return b
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

func (*Histogram) metricKind() string { return "histogram" }

// HistogramSnapshot is a point-in-time copy of a histogram's state.
// Concurrent writers may land between bucket reads, so the bucket sum
// can trail Count by in-flight observations.
type HistogramSnapshot struct {
	Bounds []float64 // upper bucket edges (no +Inf)
	Counts []uint64  // len(Bounds)+1
	Count  uint64
	Sum    float64
}

// Snapshot copies the histogram's counters.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.sum.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// entry is one registered metric with its identity.
type entry struct {
	name   string
	help   string
	labels []Label
	m      Collector
}

// Registry is the scrape surface: a named set of collectors exported in
// Prometheus text format. Creation and scraping lock a mutex; updates
// go straight to the collectors' atomics, so the hot path never touches
// the registry at all once a handle is resolved.
type Registry struct {
	mu      sync.Mutex
	index   map[string]*entry
	ordered []*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]*entry)}
}

func key(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte(0xff)
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

// Register adopts an existing collector under name+labels. If the same
// name+labels is already registered, the existing collector is returned
// unchanged (create-or-get semantics, so re-registering is idempotent);
// a kind mismatch panics — that is a programming error, not a runtime
// condition.
func (r *Registry) Register(name, help string, m Collector, labels ...Label) Collector {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := key(name, labels)
	if e, ok := r.index[k]; ok {
		if e.m.metricKind() != m.metricKind() {
			panic(fmt.Sprintf("obs: %s re-registered as %s (was %s)", name, m.metricKind(), e.m.metricKind()))
		}
		return e.m
	}
	e := &entry{name: name, help: help, labels: append([]Label(nil), labels...), m: m}
	r.index[k] = e
	r.ordered = append(r.ordered, e)
	return m
}

// Counter creates (or returns the existing) counter under name+labels.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.Register(name, help, NewCounter(), labels...).(*Counter)
}

// GaugeFunc registers a scrape-time callback gauge under name+labels.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.Register(name, help, &GaugeFunc{Fn: fn}, labels...)
}

// Histogram creates (or returns the existing) histogram under
// name+labels with the given bucket bounds.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	return r.Register(name, help, NewHistogram(bounds), labels...).(*Histogram)
}

func formatLabels(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	parts := make([]string, len(all))
	for i, l := range all {
		v := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace(l.Value)
		parts[i] = l.Key + `="` + v + `"`
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	default:
		return fmtFloat(v)
	}
}

func fmtFloat(v float64) string { return fmt.Sprintf("%g", v) }

// WritePrometheus renders every registered metric in the Prometheus
// text exposition format, grouped by family and sorted by name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	entries := append([]*entry(nil), r.ordered...)
	r.mu.Unlock()

	byName := make(map[string][]*entry, len(entries))
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if _, ok := byName[e.name]; !ok {
			names = append(names, e.name)
		}
		byName[e.name] = append(byName[e.name], e)
	}
	sort.Strings(names)

	for _, name := range names {
		fam := byName[name]
		if fam[0].help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, fam[0].help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, fam[0].m.metricKind()); err != nil {
			return err
		}
		for _, e := range fam {
			if err := writeEntry(w, e); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeEntry(w io.Writer, e *entry) error {
	switch m := e.m.(type) {
	case *Counter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", e.name, formatLabels(e.labels), m.Value())
		return err
	case *GaugeFunc:
		_, err := fmt.Fprintf(w, "%s%s %s\n", e.name, formatLabels(e.labels), formatValue(m.Fn()))
		return err
	case *Histogram:
		s := m.Snapshot()
		cum := uint64(0)
		for i, c := range s.Counts {
			cum += c
			le := "+Inf"
			if i < len(s.Bounds) {
				le = fmtFloat(s.Bounds[i])
			}
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
				e.name, formatLabels(e.labels, L("le", le)), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", e.name, formatLabels(e.labels), formatValue(s.Sum)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", e.name, formatLabels(e.labels), s.Count)
		return err
	default:
		return fmt.Errorf("obs: unknown collector %T", e.m)
	}
}
