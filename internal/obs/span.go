package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
)

// Span is one timed phase of a query: predict fan-out, Algorithm 1
// budget determination, search fan-out, merge, or an ISN-side serve.
// Times are int64 microseconds so the same type carries wall-clock
// spans (UnixMicro) from the live transport and virtual-time spans
// (ms*1000) from the simulated twin. ISN is -1 when the span is not
// tied to a particular ISN.
type Span struct {
	Trace    uint64            `json:"trace"`
	ID       uint64            `json:"id"`
	Parent   uint64            `json:"parent,omitempty"`
	Name     string            `json:"name"`
	ISN      int               `json:"isn"`
	StartUS  int64             `json:"start_us"`
	DurUS    int64             `json:"dur_us"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Decision *DecisionRecord   `json:"decision,omitempty"`
}

// Trace is one completed query's span tree, flattened; the root span is
// the one with Parent == 0.
type Trace struct {
	ID          uint64 `json:"id"`
	StartUnixUS int64  `json:"start_unix_us"`
	Spans       []Span `json:"spans"`
	// DroppedSpans counts grafted spans the builder's span cap refused —
	// a trace that hit the bound under failover+hedge fan-out is still
	// complete on the aggregator side, just missing some server-side
	// children.
	DroppedSpans int `json:"dropped_spans,omitempty"`
}

// Find returns the first span with the given name, or nil.
func (t *Trace) Find(name string) *Span {
	for i := range t.Spans {
		if t.Spans[i].Name == name {
			return &t.Spans[i]
		}
	}
	return nil
}

// Root returns the root span (Parent == 0), or nil.
func (t *Trace) Root() *Span {
	for i := range t.Spans {
		if t.Spans[i].Parent == 0 {
			return &t.Spans[i]
		}
	}
	return nil
}

// DecisionRecord is the Algorithm 1 audit trail attached to a query's
// budget span: what the predictors claimed, what budget T came out,
// which ISN's boosted latency set it, and who got boosted, downclocked
// or dropped. Everything needed to replay the decision by hand.
type DecisionRecord struct {
	BudgetMS    float64 `json:"budget_ms"`
	BudgetISN   int     `json:"budget_isn"` // ISN whose L^boosted set T; -1 if none
	Selected    []int   `json:"selected,omitempty"`
	Boosted     []int   `json:"boosted,omitempty"`
	Downclocked []int   `json:"downclocked,omitempty"`
	Dropped     []int   `json:"dropped,omitempty"`
	// Truncated lists ISNs whose execution missed the budget but still
	// answered with a truncated anytime result (filled in after the
	// search legs complete, not by Algorithm 1 itself).
	Truncated      []int          `json:"truncated,omitempty"`
	Missing        []int          `json:"missing,omitempty"` // ISNs with no prediction (degraded)
	DegradedMode   string         `json:"degraded_mode,omitempty"`
	DegradedReason string         `json:"degraded_reason,omitempty"`
	Reports        []ReportRecord `json:"reports,omitempty"`
}

// MarkTruncated folds one anytime leg that hit its budget into the
// record: isn joins Truncated, and its report carries the leg's score
// bound. The search legs, not Algorithm 1, discover truncation, so both
// serving paths call this after the fact. No-op on a nil record.
func (d *DecisionRecord) MarkTruncated(isn int, scoreBound float64) {
	if d == nil {
		return
	}
	d.Truncated = append(d.Truncated, isn)
	if r := d.Report(isn); r != nil {
		r.Truncated, r.ScoreBound = true, scoreBound
	}
}

// Report returns isn's report, or nil (also on a nil record).
func (d *DecisionRecord) Report(isn int) *ReportRecord {
	if d == nil {
		return nil
	}
	for i := range d.Reports {
		if d.Reports[i].ISN == isn {
			return &d.Reports[i]
		}
	}
	return nil
}

// ReportRecord is one ISN's predictor inputs and Algorithm 1 outcome.
type ReportRecord struct {
	ISN int `json:"isn"`
	// Replica is which copy of the shard served the prediction leg
	// (replica row index; always 0 on unreplicated fleets).
	Replica       int     `json:"replica,omitempty"`
	QK            int     `json:"q_k"`
	QK2           int     `json:"q_k2"`
	HasK          bool    `json:"has_k"`
	HasK2         bool    `json:"has_k2"`
	LCurrentMS    float64 `json:"l_current_ms"`
	LBoostedMS    float64 `json:"l_boosted_ms"`
	PredLatencyMS float64 `json:"pred_latency_ms"` // operational: margined cycles + queue backlog
	PredServiceMS float64 `json:"pred_service_ms"` // raw (unmargined) service time at assigned freq
	FreqGHz       float64 `json:"freq_ghz"`
	Boosted       bool    `json:"boosted"`
	Downclocked   bool    `json:"downclocked"`
	Cut           bool    `json:"cut"`
	// Truncated and ScoreBound describe an anytime leg that hit its
	// budget: the answer is exact-but-partial, and no unseen document on
	// the ISN scores above ScoreBound.
	Truncated  bool    `json:"truncated,omitempty"`
	ScoreBound float64 `json:"score_bound,omitempty"`
}

// DefaultMaxSpans is the per-trace cap on grafted (server-side) spans.
// The builder's own spans are structurally bounded by the query's
// fan-out, but grafted serve-spans arrive one batch per attempt — under
// failover+hedge churn a single hot trace could otherwise grow a ring
// entry without bound.
const DefaultMaxSpans = 512

// droppedSpans counts cap-refused grafts process-wide; NewObserver
// registers it as cottage_trace_spans_dropped_total.
var droppedSpans Counter

// TraceBuilder accumulates one query's spans. All methods are safe on a
// nil receiver (no-ops), so call sites need no Obs-enabled branching.
// Span appends take one short mutex acquisition — the builder is per
// query, so contention is bounded by that query's own fan-out.
type TraceBuilder struct {
	mu      sync.Mutex
	trace   uint64
	start   int64
	max     int
	dropped int
	spans   []Span
}

// NewTraceBuilder opens a trace. startUnixUS is informational (the ring
// buffer's notion of when the query ran); span times are independent.
func NewTraceBuilder(startUnixUS int64) *TraceBuilder {
	return &TraceBuilder{trace: NewID(), start: startUnixUS, max: DefaultMaxSpans}
}

// TraceID returns the trace's ID, or 0 on a nil builder.
func (b *TraceBuilder) TraceID() uint64 {
	if b == nil {
		return 0
	}
	return b.trace
}

// StartSpan opens a span under the given parent span ID (0 = root) at
// startUS. Returns nil on a nil builder.
func (b *TraceBuilder) StartSpan(name string, parent uint64, startUS int64) *ActiveSpan {
	if b == nil {
		return nil
	}
	return &ActiveSpan{
		b: b,
		s: Span{Trace: b.trace, ID: NewID(), Parent: parent, Name: name, ISN: -1, StartUS: startUS},
	}
}

// AddSpans grafts externally recorded spans (e.g. the server-side spans
// an RPC response carried back) into the trace. Spans from a different
// trace are re-homed: that happens when a hedged retry re-sent the
// request and the server echoed stale IDs. Grafts beyond the builder's
// span cap are dropped and counted (Trace.DroppedSpans and the
// process-wide cottage_trace_spans_dropped_total) — the builder's own
// spans are never capped, so the aggregator-side tree stays intact.
func (b *TraceBuilder) AddSpans(spans []Span) {
	if b == nil || len(spans) == 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, s := range spans {
		if len(b.spans) >= b.max {
			b.dropped++
			droppedSpans.Inc()
			continue
		}
		s.Trace = b.trace
		b.spans = append(b.spans, s)
	}
}

// Finish seals the trace, sorting spans by start time (stable wrt
// insertion for equal starts).
func (b *TraceBuilder) Finish() *Trace {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	spans := append([]Span(nil), b.spans...)
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].StartUS < spans[j].StartUS })
	return &Trace{ID: b.trace, StartUnixUS: b.start, Spans: spans, DroppedSpans: b.dropped}
}

// ActiveSpan is an open span. All methods are nil-safe no-ops.
type ActiveSpan struct {
	b *TraceBuilder
	s Span
}

// ID returns the span's ID, or 0 on nil.
func (a *ActiveSpan) ID() uint64 {
	if a == nil {
		return 0
	}
	return a.s.ID
}

// Context returns the propagation envelope for RPCs issued under this
// span. The zero SpanContext (from a nil span) disables server-side
// recording.
func (a *ActiveSpan) Context() SpanContext {
	if a == nil {
		return SpanContext{}
	}
	return SpanContext{Trace: a.s.Trace, Parent: a.s.ID}
}

// SetAttr annotates the span.
func (a *ActiveSpan) SetAttr(key, value string) {
	if a == nil {
		return
	}
	if a.s.Attrs == nil {
		a.s.Attrs = make(map[string]string)
	}
	a.s.Attrs[key] = value
}

// SetISN ties the span to an ISN.
func (a *ActiveSpan) SetISN(isn int) {
	if a == nil {
		return
	}
	a.s.ISN = isn
}

// SetDecision attaches the Algorithm 1 decision record.
func (a *ActiveSpan) SetDecision(d *DecisionRecord) {
	if a == nil {
		return
	}
	a.s.Decision = d
}

// End closes the span at endUS and appends it to the trace.
func (a *ActiveSpan) End(endUS int64) {
	if a == nil {
		return
	}
	a.s.DurUS = endUS - a.s.StartUS
	if a.s.DurUS < 0 {
		a.s.DurUS = 0
	}
	a.b.mu.Lock()
	a.b.spans = append(a.b.spans, a.s)
	a.b.mu.Unlock()
}

// Recorder is a fixed-size ring buffer of recently completed traces.
type Recorder struct {
	mu    sync.Mutex
	ring  []*Trace
	next  int
	total uint64
}

// NewRecorder returns a ring holding the last size traces (min 1).
func NewRecorder(size int) *Recorder {
	if size < 1 {
		size = 1
	}
	return &Recorder{ring: make([]*Trace, size)}
}

// Add records a completed trace (nil is ignored).
func (r *Recorder) Add(t *Trace) {
	if r == nil || t == nil {
		return
	}
	r.mu.Lock()
	r.ring[r.next] = t
	r.next = (r.next + 1) % len(r.ring)
	r.total++
	r.mu.Unlock()
}

// Recent returns up to n traces, newest first. n <= 0 means all held.
func (r *Recorder) Recent(n int) []*Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if n <= 0 || n > len(r.ring) {
		n = len(r.ring)
	}
	out := make([]*Trace, 0, n)
	for i := 0; i < len(r.ring) && len(out) < n; i++ {
		idx := (r.next - 1 - i + 2*len(r.ring)) % len(r.ring)
		if t := r.ring[idx]; t != nil {
			out = append(out, t)
		}
	}
	return out
}

// Total returns how many traces have ever been added.
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// WriteJSONL streams the held traces oldest-first, one JSON object per
// line — the export format for offline analysis.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	if r == nil {
		return nil
	}
	recent := r.Recent(0)
	enc := json.NewEncoder(w)
	for i := len(recent) - 1; i >= 0; i-- {
		if err := enc.Encode(recent[i]); err != nil {
			return err
		}
	}
	return nil
}
