// Package slo implements multi-window burn-rate monitoring over
// service-level objectives — the SRE alerting pattern: an objective
// grants an error budget (the allowed bad fraction, e.g. 1% of queries
// over the latency target), and the burn rate is how many times faster
// than budget the service is consuming it. Alerting on the burn rate
// over TWO windows at once — a fast window for responsiveness and a
// slow window for evidence — pages quickly on hard outages without
// flapping on single slow queries.
//
// The clock is injectable as a float64 millisecond timestamp, so the
// same monitor runs on wall time (the live aggregator) and on the
// simulated twin's virtual clock — burn-rate behaviour is testable
// deterministically.
package slo

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"cottage/internal/obs"
)

// State is an objective's alert level.
type State int32

const (
	StateOK   State = iota
	StateWarn       // both windows burning faster than budget
	StatePage       // both windows burning faster than pageBurn× budget
)

// String returns the state's label.
func (s State) String() string {
	switch s {
	case StateWarn:
		return "warn"
	case StatePage:
		return "page"
	default:
		return "ok"
	}
}

// Config parameterizes a Monitor. Zero values take the defaults noted.
type Config struct {
	// FastWindowMS / SlowWindowMS are the two burn-rate windows
	// (defaults: 60 s and 720 s). The fast window notices a breach
	// quickly; the slow window keeps one bad burst from paging.
	FastWindowMS float64
	SlowWindowMS float64
	// NowMS supplies the clock in milliseconds. Defaults to wall time;
	// the twin passes its virtual clock.
	NowMS func() float64
}

// The burn-rate thresholds and the windows' resolution. Burn 1 means
// the error budget is being consumed exactly as fast as it accrues.
const (
	warnBurn float64 = 1
	pageBurn float64 = 8
	// buckets is how many buckets each sliding window has.
	buckets = 24
)

func (c *Config) fill() {
	if c.FastWindowMS <= 0 {
		c.FastWindowMS = 60_000
	}
	if c.SlowWindowMS <= 0 {
		c.SlowWindowMS = 720_000
	}
	if c.NowMS == nil {
		c.NowMS = func() float64 { return float64(time.Now().UnixNano()) / 1e6 }
	}
}

// Monitor owns a set of objectives sharing one clock and one set of
// burn thresholds.
type Monitor struct {
	cfg Config

	mu     sync.Mutex
	objs   []*Objective
	onPage func(*Objective)
}

// New builds a monitor.
func New(cfg Config) *Monitor {
	cfg.fill()
	return &Monitor{cfg: cfg}
}

// OnPage installs a callback fired (outside any lock) whenever an
// objective transitions into StatePage — the hook that triggers flight
// recorder dumps and pprof captures.
func (m *Monitor) OnPage(fn func(*Objective)) {
	m.mu.Lock()
	m.onPage = fn
	m.mu.Unlock()
}

// Objective creates (or returns the existing) objective under name.
// target is the error budget: the tolerated bad fraction (e.g. 0.01
// for a 99% objective). Create objectives before Register.
func (m *Monitor) Objective(name string, target float64) *Objective {
	if target <= 0 {
		target = 0.001
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, o := range m.objs {
		if o.name == name {
			return o
		}
	}
	o := &Objective{
		name:   name,
		target: target,
		m:      m,
		fast:   newWindow(m.cfg.FastWindowMS),
		slow:   newWindow(m.cfg.SlowWindowMS),
	}
	m.objs = append(m.objs, o)
	return o
}

// Objectives returns the monitor's objectives in creation order.
func (m *Monitor) Objectives() []*Objective {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]*Objective(nil), m.objs...)
}

// Register exports every objective's burn rates and alert state as
// scrape-time gauges plus a page counter. Objectives created after
// Register are not exported.
func (m *Monitor) Register(reg *obs.Registry) {
	if m == nil || reg == nil {
		return
	}
	for _, o := range m.Objectives() {
		o := o
		reg.GaugeFunc("cottage_slo_burn",
			"Error-budget burn rate per objective and window.",
			func() float64 { f, _ := o.Burn(); return f },
			obs.L("objective", o.name), obs.L("window", "fast"))
		reg.GaugeFunc("cottage_slo_burn",
			"Error-budget burn rate per objective and window.",
			func() float64 { _, s := o.Burn(); return s },
			obs.L("objective", o.name), obs.L("window", "slow"))
		reg.GaugeFunc("cottage_slo_alert",
			"Alert state per objective (0=ok, 1=warn, 2=page).",
			func() float64 { return float64(o.State()) },
			obs.L("objective", o.name))
		reg.Register("cottage_slo_pages_total",
			"Transitions into the page state, per objective.",
			&o.pages, obs.L("objective", o.name))
	}
}

// window is a bucketed sliding counter of good/bad events.
type window struct {
	bucketMS float64
	buckets  []bucket
	cur      int64 // absolute bucket index currently mapped to cur%len
	started  bool
}

type bucket struct{ good, bad uint64 }

func newWindow(widthMS float64) window {
	return window{bucketMS: widthMS / buckets, buckets: make([]bucket, buckets)}
}

// rotate advances the window to nowMS, zeroing buckets that fell out.
func (w *window) rotate(nowMS float64) {
	idx := int64(nowMS / w.bucketMS)
	if !w.started {
		w.started = true
		w.cur = idx
		return
	}
	if idx <= w.cur {
		return // same bucket, or a clock that stood still
	}
	steps := idx - w.cur
	if steps > int64(len(w.buckets)) {
		steps = int64(len(w.buckets))
	}
	for i := int64(1); i <= steps; i++ {
		w.buckets[(w.cur+i)%int64(len(w.buckets))] = bucket{}
	}
	w.cur = idx
}

func (w *window) add(nowMS float64, good bool) {
	w.rotate(nowMS)
	b := &w.buckets[w.cur%int64(len(w.buckets))]
	if good {
		b.good++
	} else {
		b.bad++
	}
}

// badFrac returns the window's bad fraction, 0 when it holds no events.
func (w *window) badFrac(nowMS float64) float64 {
	w.rotate(nowMS)
	var good, bad uint64
	for _, b := range w.buckets {
		good += b.good
		bad += b.bad
	}
	total := good + bad
	if total == 0 {
		return 0
	}
	return float64(bad) / float64(total)
}

// Objective is one monitored SLO.
type Objective struct {
	name   string
	target float64
	m      *Monitor

	mu         sync.Mutex
	fast, slow window
	state      State

	pages obs.Counter // exported; transitions into page
}

// Name returns the objective's label.
func (o *Objective) Name() string { return o.name }

// Observe records one event's outcome and re-evaluates the alert
// state. Nil-safe. The page callback, if any, fires outside the locks.
func (o *Objective) Observe(good bool) {
	if o == nil {
		return
	}
	now := o.m.cfg.NowMS()
	o.mu.Lock()
	o.fast.add(now, good)
	o.slow.add(now, good)
	fastBurn, slowBurn := o.fast.badFrac(now)/o.target, o.slow.badFrac(now)/o.target
	next := StateOK
	switch {
	case fastBurn >= pageBurn && slowBurn >= pageBurn:
		next = StatePage
	case fastBurn >= warnBurn && slowBurn >= warnBurn:
		next = StateWarn
	}
	paged := next == StatePage && o.state != StatePage
	if paged {
		o.pages.Inc()
	}
	o.state = next
	o.mu.Unlock()
	if paged {
		o.m.mu.Lock()
		fn := o.m.onPage
		o.m.mu.Unlock()
		if fn != nil {
			fn(o)
		}
	}
}

// Burn returns the current fast/slow burn rates.
func (o *Objective) Burn() (fast, slow float64) {
	if o == nil {
		return 0, 0
	}
	now := o.m.cfg.NowMS()
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.fast.badFrac(now) / o.target, o.slow.badFrac(now) / o.target
}

// State returns the objective's current alert state.
func (o *Objective) State() State {
	if o == nil {
		return StateOK
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.state
}

// Pages returns how many times the objective transitioned into page.
func (o *Objective) Pages() uint64 {
	if o == nil {
		return 0
	}
	return o.pages.Value()
}

// Snapshot is an objective's point-in-time JSON view.
type Snapshot struct {
	Name     string  `json:"name"`
	Target   float64 `json:"target"`
	State    string  `json:"state"`
	FastBurn float64 `json:"fast_burn"`
	SlowBurn float64 `json:"slow_burn"`
	Pages    uint64  `json:"pages"`
}

// Snapshot captures the objective's current state.
func (o *Objective) Snapshot() Snapshot {
	f, s := o.Burn()
	return Snapshot{
		Name:     o.name,
		Target:   o.target,
		State:    o.State().String(),
		FastBurn: f,
		SlowBurn: s,
		Pages:    o.Pages(),
	}
}

// Handler serves every objective's snapshot as JSON — the /debug/slo
// endpoint.
func Handler(m *Monitor) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		objs := m.Objectives()
		snaps := make([]Snapshot, len(objs))
		for i, o := range objs {
			snaps[i] = o.Snapshot()
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(snaps)
	})
}

// QuerySLO bundles the per-query objectives a serving path feeds: the
// latency target and a quality objective (the P@10 proxy — a query
// degraded by failed or truncated shards spends quality budget). All
// methods are nil-safe, so call sites need no SLO-enabled branching.
type QuerySLO struct {
	// LatencyMS is the per-query latency target backing Latency.
	LatencyMS float64

	Latency *Objective
	Quality *Objective
}

// ObserveQuery feeds one completed query: its end-to-end latency and
// whether its result was degraded (failed, truncated or shed shards —
// the quality proxy).
func (q *QuerySLO) ObserveQuery(latencyMS float64, degraded bool) {
	if q == nil {
		return
	}
	if q.Latency != nil {
		q.Latency.Observe(latencyMS <= q.LatencyMS)
	}
	if q.Quality != nil {
		q.Quality.Observe(!degraded)
	}
}
