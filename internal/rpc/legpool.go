package rpc

import (
	"slices"
	"sync"
	"time"
)

// Fan-out legs run one per goroutine — a leg spends its life blocked in
// a socket round trip, so the legs of a round must overlap — but not on
// a *fresh* goroutine each: a new goroutine starts on a minimal stack
// and the call chain under Client.call outgrows it, so every leg of
// every query paid a stack copy (runtime.newstack, 8 % of the
// benchmark's CPU). legPool keeps finished legs' goroutines parked, with
// their grown stacks, and hands the next leg to one of them.

// legIdle is how long a parked leg goroutine waits for work before it
// checks whether it has been idle and exits. A goroutine therefore
// outlives its last leg by between one and two legIdle.
const legIdle = 500 * time.Millisecond

// leg is one unit of fan-out work: fn(q, i), then q.wg.Done(). fn is a
// method expression and q is shared by the whole round, so dispatching
// a leg allocates nothing.
type leg struct {
	fn func(q *fanout, i int)
	q  *fanout
	i  int
}

// legPool is a grow-on-demand free list of parked goroutines. The zero
// value is ready to use. It never blocks a dispatch and never caps the
// fan-out: with no goroutine parked it starts one.
type legPool struct {
	mu     sync.Mutex
	parked []*legRunner // last in, first out: the warmest stack goes next
}

// legRunner is one pooled goroutine's mailbox. The buffer of one lets a
// dispatcher hand over a leg without waiting for the runner, which may
// have re-parked itself but not yet reached its receive.
type legRunner struct {
	work chan leg
}

// run executes l on a parked goroutine, or on a new one if none is
// parked.
func (p *legPool) run(l leg) {
	p.mu.Lock()
	var r *legRunner
	if n := len(p.parked); n > 0 {
		r = p.parked[n-1]
		p.parked = p.parked[:n-1]
	}
	p.mu.Unlock()
	if r == nil {
		r = &legRunner{work: make(chan leg, 1)}
		go r.loop(p)
	}
	r.work <- l
}

// park returns r to the free list.
func (p *legPool) park(r *legRunner) {
	p.mu.Lock()
	p.parked = append(p.parked, r)
	p.mu.Unlock()
}

// retire removes r from the free list, reporting false when a
// dispatcher got to it first (a leg is then already in r's mailbox).
func (p *legPool) retire(r *legRunner) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	i := slices.Index(p.parked, r)
	if i < 0 {
		return false
	}
	p.parked = slices.Delete(p.parked, i, i+1)
	return true
}

// loop runs legs until the runner has sat parked for a whole legIdle
// period. It parks *before* signalling the leg done: by the time the
// query goroutine wakes from the round's Wait, every runner of that
// round is back on the free list, so the next round — and the next
// query — starts no goroutine.
func (r *legRunner) loop(p *legPool) {
	idle := time.NewTimer(legIdle)
	defer idle.Stop()
	var ran, ranAtTick uint64
	for {
		select {
		case l := <-r.work:
			l.fn(l.q, l.i)
			ran++
			p.park(r)
			l.q.wg.Done()
		case <-idle.C:
			if ran == ranAtTick && p.retire(r) {
				return
			}
			ranAtTick = ran
			idle.Reset(legIdle)
		}
	}
}
