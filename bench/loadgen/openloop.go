package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cottage/internal/xrand"
)

// poissonSchedule returns the due times, as offsets from the phase's
// start, of a Poisson arrival process of rate qps over duration d. It
// is a pure function of its arguments: the same seed gives the same
// schedule.
func poissonSchedule(seed uint64, qps float64, d time.Duration) []time.Duration {
	rng := xrand.New(seed).SplitName("open-loop")
	var sched []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / qps
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return sched
		}
		sched = append(sched, due)
	}
}

// arrival is the outcome of one scheduled operation.
type arrival struct {
	// latency runs from the operation's due time — not from when the
	// dispatcher got round to starting it — to its completion, or to the
	// end of the drain if it never completed.
	latency time.Duration
	// late is how far behind its due time the dispatcher started it.
	late time.Duration
	done bool
}

type openResult struct {
	arrivals   []arrival
	backlogMax int // most operations in flight at any dispatch
}

// runOpen starts op(i) in its own goroutine at sched[i] after now, never
// waiting for earlier operations, then gives those still running drain
// to finish; one still running after that is reported as not done and
// left to end on its own (a query's client time-out bounds it). One
// goroutine dispatches; the schedule bounds how many operations can ever
// be in flight.
func runOpen(sched []time.Duration, drain time.Duration, op func(i int)) openResult {
	ends := make([]atomic.Int64, len(sched)) // completion, ns after t0; 0 = still running
	out := openResult{arrivals: make([]arrival, len(sched))}
	var inflight atomic.Int64
	var wg sync.WaitGroup
	// The dispatcher waits in nanosleep on a thread of its own:
	// time.Sleep on an otherwise idle runtime wakes through epoll, whose
	// millisecond granularity would start every other query half a
	// millisecond late and charge that to the program.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := time.Now()
	for i, due := range sched {
		if wait := due - time.Since(t0); wait > 0 {
			ts := syscall.NsecToTimespec(int64(wait))
			_ = syscall.Nanosleep(&ts, nil) // an early wake-up only makes the query less late
		}
		out.arrivals[i].late = time.Since(t0) - due
		if n := int(inflight.Add(1)); n > out.backlogMax {
			out.backlogMax = n
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			op(i)
			ends[i].Store(int64(time.Since(t0)) | 1) // never 0
			inflight.Add(-1)
		}()
	}
	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(drain):
	}
	cutoff := time.Since(t0)
	for i, due := range sched {
		if end := ends[i].Load(); end != 0 {
			out.arrivals[i].latency = time.Duration(end) - due
			out.arrivals[i].done = true
		} else {
			out.arrivals[i].latency = cutoff - due
		}
	}
	return out
}
