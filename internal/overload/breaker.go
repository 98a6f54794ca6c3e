package overload

import (
	"sync"
	"time"

	"cottage/internal/obs"
)

// State is a circuit breaker's position.
type State int

const (
	// Closed: traffic flows; failures are counted.
	Closed State = iota
	// Open: traffic is blocked until the cooldown elapses.
	Open
	// HalfOpen: cooldown elapsed; exactly one probe is in flight.
	HalfOpen
)

func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// Breaker is a per-ISN circuit breaker. It opens after `threshold`
// consecutive transport failures, blocks traffic for `cooldown`, then
// admits a single probe (half-open). A successful probe closes the
// breaker; a failed one reopens it for another cooldown.
//
// Overload rejections must NOT be fed to OnFailure — a shedding ISN is
// healthy, just busy. Only transport-level failures (dial errors,
// timeouts, broken connections) count.
type Breaker struct {
	mu          sync.Mutex
	clock       Clock
	threshold   int
	cooldown    time.Duration
	state       State
	consecutive int
	openedAt    time.Time
	probing     bool // a half-open probe is in flight

	// transitions counts state changes (closed→open, open→half-open,
	// half-open→closed, half-open→open, …) — the ledger a registry
	// adopts via Register.
	transitions obs.Counter
}

// NewBreaker builds a breaker that opens after threshold consecutive
// failures and retries after cooldown. clock may be nil for the system
// clock.
func NewBreaker(threshold int, cooldown time.Duration, clock Clock) *Breaker {
	if threshold < 1 {
		threshold = 1
	}
	if clock == nil {
		clock = System
	}
	return &Breaker{clock: clock, threshold: threshold, cooldown: cooldown}
}

// Allow reports whether a request may be sent now. In the open state it
// transitions to half-open once the cooldown has elapsed and admits
// exactly one probe; concurrent callers are refused until that probe
// reports back via OnSuccess or OnFailure.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true
	case Open:
		if b.clock.Now().Sub(b.openedAt) >= b.cooldown {
			b.state = HalfOpen
			b.probing = true
			b.transitions.Inc()
			return true
		}
		return false
	case HalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
	return false
}

// OnSuccess records a successful call: the breaker closes and the
// failure count resets.
func (b *Breaker) OnSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != Closed {
		b.transitions.Inc()
	}
	b.state = Closed
	b.consecutive = 0
	b.probing = false
}

// OnFailure records a transport failure. In the closed state it opens
// the breaker once the consecutive-failure threshold is reached; in
// half-open it reopens immediately for another cooldown.
func (b *Breaker) OnFailure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case HalfOpen:
		b.state = Open
		b.openedAt = b.clock.Now()
		b.probing = false
		b.transitions.Inc()
	case Closed:
		b.consecutive++
		if b.consecutive >= b.threshold {
			b.state = Open
			b.openedAt = b.clock.Now()
			b.transitions.Inc()
		}
	case Open:
		// Already open; refresh nothing — cooldown runs from openedAt.
	}
}

// State returns the breaker's current position without side effects.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// LastOpened returns when the breaker last entered the open state (zero
// if it never opened). The health prober uses it as the start of the
// outage when computing revival latency.
func (b *Breaker) LastOpened() time.Time {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.openedAt
}

// Register exposes the breaker on a metrics registry: the transition
// counter is adopted in place and the state becomes a scrape-time gauge
// (0 closed, 1 open, 2 half-open).
func (b *Breaker) Register(reg *obs.Registry, labels ...obs.Label) {
	if reg == nil {
		return
	}
	reg.Register("cottage_breaker_transitions_total",
		"Circuit-breaker state transitions.", &b.transitions, labels...)
	reg.GaugeFunc("cottage_breaker_state",
		"Circuit-breaker state: 0 closed, 1 open, 2 half-open.",
		func() float64 { return float64(b.State()) }, labels...)
}
