// Package faults provides a deterministic, seedable fault injector for
// the partition-aggregate tier. Production fleets lose ISNs constantly —
// crashed processes, dropped connections, corrupted frames, stragglers
// stuck behind a GC pause or a noisy neighbour — and the tail-tolerance
// literature (Kraus et al.'s tail-tolerant search, Mackenzie et al.'s
// early termination) treats them as the common case, not the exception.
// This package gives both substrates one switchboard for such faults:
//
//   - the simulated cluster (internal/cluster) reads per-ISN crash flags
//     and virtual-time slowdowns from an Injector so harness sweeps can
//     replay a trace at any availability level, and
//   - the real TCP transport (internal/rpc) wraps its listeners with
//     WrapListener, which drops, delays or corrupts frames on the wire so
//     retry/hedging logic is exercised against real sockets.
//
// Every decision is drawn from a per-ISN SplitMix64 stream derived from
// the injector's seed, so a given (seed, plan, call sequence) replays the
// exact same fault schedule regardless of what other ISNs are doing.
package faults

import (
	"fmt"
	"sync"

	"cottage/internal/xrand"
)

// Kind labels one injected fault.
type Kind int

const (
	// None: the request proceeds unharmed.
	None Kind = iota
	// Crash: the ISN is down; connections die immediately and the
	// simulated node does no work.
	Crash
	// Drop: the connection is severed mid-request (client sees a broken
	// stream and must reconnect).
	Drop
	// Corrupt: the reply bytes are flipped on the wire (the decoder must
	// surface an error, never panic).
	Corrupt
	// Slow: the request is delayed (fixed and/or stochastic slowdown).
	Slow
	// PredictTimeout: only the prediction round is dropped; search still
	// works. Models an overloaded predictor sidecar.
	PredictTimeout
)

// String implements fmt.Stringer for diagnostics.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Crash:
		return "crash"
	case Drop:
		return "drop"
	case Corrupt:
		return "corrupt"
	case Slow:
		return "slow"
	case PredictTimeout:
		return "predict-timeout"
	}
	return fmt.Sprintf("faults.Kind(%d)", int(k))
}

// Plan is one ISN's standing fault profile. The zero value injects
// nothing. Probabilities are per-request in [0, 1]; delays compose with
// whichever probabilistic fault fires (a slow ISN can also drop).
type Plan struct {
	// Crashed marks the ISN dead until Revive. Deterministic, not drawn.
	Crashed bool
	// DropProb severs the connection on a request with this probability.
	DropProb float64
	// CorruptProb flips bytes in the reply with this probability.
	CorruptProb float64
	// PredictDropProb drops only prediction requests with this
	// probability (the failure mode degraded-mode Algorithm 1 handles).
	PredictDropProb float64
	// SlowMS delays every request by this many milliseconds.
	SlowMS float64
	// SlowJitterMS adds a uniform [0, SlowJitterMS) extra delay.
	SlowJitterMS float64
}

// Decision is the injector's verdict for one request.
type Decision struct {
	Kind Kind
	// DelayMS is the extra latency to impose before serving (also set
	// alongside Drop/Corrupt when the plan has a slowdown, so a straggler
	// drops late rather than instantly).
	DelayMS float64
}

// Injector holds per-ISN plans and deals deterministic fault decisions.
// It is safe for concurrent use.
type Injector struct {
	mu    sync.Mutex
	seed  uint64
	plans map[int]Plan
	rngs  map[int]*xrand.RNG
	// counts[k] is how many decisions of kind k have been dealt, a cheap
	// ledger for tests and harness reports.
	counts map[Kind]int
}

// NewInjector returns an injector whose decision streams derive from
// seed. Two injectors with the same seed and plans deal identical
// per-ISN fault schedules.
func NewInjector(seed uint64) *Injector {
	return &Injector{
		seed:   seed,
		plans:  make(map[int]Plan),
		rngs:   make(map[int]*xrand.RNG),
		counts: make(map[Kind]int),
	}
}

// rng returns ISN isn's private decision stream, creating it on first
// use. Streams are keyed by ISN id, so concurrent traffic on other ISNs
// never perturbs this one's schedule.
func (in *Injector) rng(isn int) *xrand.RNG {
	r, ok := in.rngs[isn]
	if !ok {
		r = xrand.New(in.seed).SplitName(fmt.Sprintf("isn-%d", isn))
		in.rngs[isn] = r
	}
	return r
}

// SetPlan installs (or replaces) an ISN's fault profile.
func (in *Injector) SetPlan(isn int, p Plan) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.plans[isn] = p
}

// Crash marks an ISN dead; Revive undoes it.
func (in *Injector) Crash(isn int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	p := in.plans[isn]
	p.Crashed = true
	in.plans[isn] = p
}

// Revive clears an ISN's crash flag, keeping the rest of its plan.
func (in *Injector) Revive(isn int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	p := in.plans[isn]
	p.Crashed = false
	in.plans[isn] = p
}

// Crashed reports whether an ISN is currently marked dead.
func (in *Injector) Crashed(isn int) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.plans[isn].Crashed
}

// Counts returns a copy of the per-kind decision ledger.
func (in *Injector) Counts() map[Kind]int {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[Kind]int, len(in.counts))
	for k, v := range in.counts {
		out[k] = v
	}
	return out
}

// record tallies a decision under the lock.
func (in *Injector) record(k Kind) {
	in.counts[k]++
}

// delayMS draws the plan's slowdown for one request (fixed + jitter).
func delayMS(p Plan, r *xrand.RNG) float64 {
	d := p.SlowMS
	if p.SlowJitterMS > 0 {
		d += r.Float64() * p.SlowJitterMS
	}
	return d
}

// OnRequest deals the fault decision for one search/ping request at ISN
// isn. The order of probabilistic checks is fixed (crash > drop >
// corrupt > slow) so schedules replay exactly.
func (in *Injector) OnRequest(isn int) Decision {
	in.mu.Lock()
	defer in.mu.Unlock()
	p := in.plans[isn]
	r := in.rng(isn)
	if p.Crashed {
		in.record(Crash)
		return Decision{Kind: Crash}
	}
	d := Decision{DelayMS: delayMS(p, r)}
	switch {
	case p.DropProb > 0 && r.Float64() < p.DropProb:
		d.Kind = Drop
	case p.CorruptProb > 0 && r.Float64() < p.CorruptProb:
		d.Kind = Corrupt
	case d.DelayMS > 0:
		d.Kind = Slow
	}
	in.record(d.Kind)
	return d
}

// OnPredict deals the fault decision for one prediction request. It
// layers PredictDropProb on top of the request-level faults: a crashed
// or dropping ISN fails predictions too.
func (in *Injector) OnPredict(isn int) Decision {
	in.mu.Lock()
	defer in.mu.Unlock()
	p := in.plans[isn]
	r := in.rng(isn)
	if p.Crashed {
		in.record(Crash)
		return Decision{Kind: Crash}
	}
	d := Decision{DelayMS: delayMS(p, r)}
	switch {
	case p.PredictDropProb > 0 && r.Float64() < p.PredictDropProb:
		d.Kind = PredictTimeout
	case p.DropProb > 0 && r.Float64() < p.DropProb:
		d.Kind = Drop
	case d.DelayMS > 0:
		d.Kind = Slow
	}
	in.record(d.Kind)
	return d
}

// PickVictims deterministically samples n distinct ISNs out of total —
// the harness uses it so an availability sweep fails the same nodes at
// every scale and on every machine. It panics if n > total.
func PickVictims(seed uint64, n, total int) []int {
	if n > total {
		panic(fmt.Sprintf("faults: cannot pick %d victims from %d ISNs", n, total))
	}
	r := xrand.New(seed).SplitName("victims")
	perm := make([]int, total)
	for i := range perm {
		perm[i] = i
	}
	// Fisher-Yates over the prefix we need.
	for i := 0; i < n; i++ {
		j := i + r.Intn(total-i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	out := append([]int(nil), perm[:n]...)
	return out
}
