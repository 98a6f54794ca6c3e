package overload

import (
	"sync"
	"time"

	"cottage/internal/obs"
)

// waiter is a queued admission request. ready receives exactly one
// value: nil when a slot is granted, ErrOverloaded when the waiter is
// shed (deadline exceeded at grant time, or the limiter closed).
type waiter struct {
	ready    chan error
	enqueued time.Time
	maxWait  time.Duration // 0 = no deadline
}

// Limiter is a bounded admission queue in front of a concurrency cap.
// At most `limit` requests run concurrently; up to `queueCap` more wait
// in FIFO order. Anything beyond that — and any queued request whose
// wait has already exceeded its deadline by the time a slot frees — is
// shed with ErrOverloaded.
//
// With EnableAIMD the cap adapts TCP-style: each full window of
// successful completions adds one slot (additive increase); every shed
// halves the cap (multiplicative decrease). The queue keeps latency
// bounded either way; AIMD only tunes how much concurrency the server
// believes it can sustain.
type Limiter struct {
	mu       sync.Mutex
	clock    Clock
	limit    int
	queueCap int
	inflight int
	queue    []*waiter
	closed   bool

	// AIMD state. aimd=false keeps the cap fixed; the cap never falls
	// below 1.
	aimd      bool
	maxLimit  int
	successes int

	// Counters. Atomic so a metrics scrape never takes mu; still only
	// incremented under mu, so they stay consistent with the occupancy
	// fields they describe.
	admitted obs.Counter
	shed     obs.Counter
	// waitHist, when Register attached one, records every admitted
	// request's queue wait (0 for fast-path admissions) — the live
	// counterpart of the anatomy report's admission-queue phase.
	waitHist *obs.Histogram
}

// LimiterStats is a snapshot of a Limiter's counters and occupancy.
type LimiterStats struct {
	Limit    int    // current concurrency cap
	Inflight int    // requests holding a slot
	Queued   int    // requests waiting for a slot
	Admitted uint64 // total requests granted a slot
	Shed     uint64 // total requests rejected with ErrOverloaded
}

// NewLimiter builds a limiter admitting maxInflight concurrent requests
// with a queue of queueDepth behind it. clock may be nil for the system
// clock.
func NewLimiter(maxInflight, queueDepth int, clock Clock) *Limiter {
	if maxInflight < 1 {
		maxInflight = 1
	}
	if queueDepth < 0 {
		queueDepth = 0
	}
	if clock == nil {
		clock = System
	}
	return &Limiter{clock: clock, limit: maxInflight, queueCap: queueDepth}
}

// EnableAIMD turns on adaptive sizing of the concurrency cap, clamped
// to [1, max]. The current cap is clamped into range immediately.
func (l *Limiter) EnableAIMD(max int) {
	if max < 1 {
		max = 1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.aimd = true
	l.maxLimit = max
	if l.limit < 1 {
		l.limit = 1
	}
	if l.limit > max {
		l.limit = max
	}
}

// Acquire blocks until a slot is granted or the request is shed.
// maxWait bounds how long the request may sit queued before it is no
// longer worth serving (deadline-aware shedding); 0 means no deadline.
// Returns nil on admission — the caller must Release() — or
// ErrOverloaded when shed.
func (l *Limiter) Acquire(maxWait time.Duration) error {
	l.mu.Lock()
	if l.closed {
		l.shed.Inc()
		l.mu.Unlock()
		return ErrOverloaded
	}
	if l.inflight < l.limit && len(l.queue) == 0 {
		l.inflight++
		l.admitted.Inc()
		if h := l.waitHist; h != nil {
			h.Observe(0)
		}
		l.mu.Unlock()
		return nil
	}
	if len(l.queue) >= l.queueCap {
		l.shed.Inc()
		l.decreaseLocked()
		l.mu.Unlock()
		return ErrOverloaded
	}
	w := &waiter{ready: make(chan error, 1), enqueued: l.clock.Now(), maxWait: maxWait}
	l.queue = append(l.queue, w)
	l.mu.Unlock()
	return <-w.ready
}

// Release frees a slot acquired with Acquire and hands it to the next
// viable waiter.
func (l *Limiter) Release() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.inflight > 0 {
		l.inflight--
	}
	l.increaseLocked()
	l.grantLocked()
}

// grantLocked pops queued waiters while slots are free, shedding any
// whose queue wait already exceeds its deadline — by the time a slot
// opened, serving them would blow their budget anyway (Eq. 2's point:
// queue wait is latency). Called with mu held.
func (l *Limiter) grantLocked() {
	now := l.clock.Now()
	for len(l.queue) > 0 && l.inflight < l.limit {
		w := l.queue[0]
		l.queue = l.queue[1:]
		if w.maxWait > 0 && now.Sub(w.enqueued) > w.maxWait {
			l.shed.Inc()
			l.decreaseLocked()
			w.ready <- ErrOverloaded
			continue
		}
		l.inflight++
		l.admitted.Inc()
		if h := l.waitHist; h != nil {
			h.Observe(float64(now.Sub(w.enqueued).Microseconds()) / 1000)
		}
		w.ready <- nil
	}
}

// increaseLocked is AIMD additive increase: one full cap's worth of
// completions earns one extra slot.
func (l *Limiter) increaseLocked() {
	if !l.aimd {
		return
	}
	l.successes++
	if l.successes >= l.limit && l.limit < l.maxLimit {
		l.limit++
		l.successes = 0
	}
}

// decreaseLocked is AIMD multiplicative decrease on a shed.
func (l *Limiter) decreaseLocked() {
	if !l.aimd {
		return
	}
	l.limit /= 2
	if l.limit < 1 {
		l.limit = 1
	}
	l.successes = 0
}

// Close sheds every queued waiter with ErrOverloaded and makes all
// future Acquire calls fail immediately. In-flight requests are
// unaffected; their Release calls still work. Used by Server.Shutdown
// so drain only waits on work actually running, never on the queue.
func (l *Limiter) Close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	for _, w := range l.queue {
		l.shed.Inc()
		w.ready <- ErrOverloaded
	}
	l.queue = nil
}

// Pending reports current occupancy — in-flight plus queued. This is
// the queue-depth figure KindPredict responses report to the aggregator
// for the Eq. 2 equivalent-latency correction.
func (l *Limiter) Pending() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inflight + len(l.queue)
}

// Stats snapshots the limiter's counters.
func (l *Limiter) Stats() LimiterStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return LimiterStats{
		Limit:    l.limit,
		Inflight: l.inflight,
		Queued:   len(l.queue),
		Admitted: l.admitted.Value(),
		Shed:     l.shed.Value(),
	}
}

// Register exposes the limiter on a metrics registry: the admitted/shed
// counters are adopted in place (Stats and the registry read the same
// atomics) and the occupancy figures become scrape-time gauges. The
// gauges take mu once per scrape; updates never touch the registry.
func (l *Limiter) Register(reg *obs.Registry, labels ...obs.Label) {
	if reg == nil {
		return
	}
	reg.Register("cottage_limiter_admitted_total",
		"Requests granted an admission slot.", &l.admitted, labels...)
	reg.Register("cottage_limiter_shed_total",
		"Requests rejected with ErrOverloaded.", &l.shed, labels...)
	l.waitHist = reg.Histogram("cottage_admission_wait_ms",
		"Admission-queue wait per admitted request (0 = fast path).",
		obs.LatencyBucketsMS(), labels...)
	reg.GaugeFunc("cottage_limiter_inflight",
		"Requests currently holding a slot.", func() float64 {
			l.mu.Lock()
			defer l.mu.Unlock()
			return float64(l.inflight)
		}, labels...)
	reg.GaugeFunc("cottage_limiter_queued",
		"Requests waiting for a slot.", func() float64 {
			l.mu.Lock()
			defer l.mu.Unlock()
			return float64(len(l.queue))
		}, labels...)
	reg.GaugeFunc("cottage_limiter_limit",
		"Current concurrency cap (adaptive under AIMD).", func() float64 {
			l.mu.Lock()
			defer l.mu.Unlock()
			return float64(l.limit)
		}, labels...)
}
