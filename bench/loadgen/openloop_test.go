package main

import (
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"cottage/internal/stats"
)

func TestPoissonScheduleIsAFunctionOfTheSeed(t *testing.T) {
	a := poissonSchedule(7, 1000, 2*time.Second)
	b := poissonSchedule(7, 1000, 2*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	if c := poissonSchedule(8, 1000, 2*time.Second); reflect.DeepEqual(a, c) {
		t.Fatal("two seeds gave the same schedule")
	}
	// About rate × duration arrivals (±5σ), in order, inside the phase.
	if n := float64(len(a)); math.Abs(n-2000) > 5*math.Sqrt(2000) {
		t.Errorf("%v arrivals at 1000/s over 2 s", n)
	}
	for i, due := range a {
		if due < 0 || due >= 2*time.Second || (i > 0 && due < a[i-1]) {
			t.Fatalf("arrival %d due at %v", i, due)
		}
	}
	// Exponential gaps: the standard deviation of the gaps is their mean.
	gaps := make([]float64, len(a)-1)
	for i := range gaps {
		gaps[i] = float64(a[i+1] - a[i])
	}
	if cv := stats.StdDev(gaps) / stats.Mean(gaps); cv < 0.9 || cv > 1.1 {
		t.Errorf("gap coefficient of variation %v, want about 1", cv)
	}
}

// A server stalled for 50 ms must inflate the latency of the queries
// scheduled behind it: they are timed from when they were due, not from
// when the server got to them. A closed loop would have sent them late
// and measured nothing.
func TestOpenLoopChargesAStallToTheQueriesBehindIt(t *testing.T) {
	const (
		gap     = 2 * time.Millisecond
		stall   = 50 * time.Millisecond
		stalled = 10
	)
	sched := make([]time.Duration, 40)
	for i := range sched {
		sched[i] = time.Duration(i) * gap
	}
	var server sync.Mutex // one request at a time, like a single connection
	service := make([]time.Duration, len(sched))
	out := runOpen(sched, time.Second, func(i int) {
		server.Lock()
		defer server.Unlock()
		start := time.Now()
		if i == stalled {
			time.Sleep(stall)
		}
		service[i] = time.Since(start)
	})

	for i, a := range out.arrivals {
		if !a.done {
			t.Fatalf("operation %d never completed", i)
		}
	}
	// Every query due while the server was stalled waited for the rest of
	// the stall: the one due a gap after the stall began waited for nearly
	// all of it, though its own service took no time.
	behind := out.arrivals[stalled+1]
	if behind.latency < stall-2*gap {
		t.Errorf("the query behind the stall was charged %v, want about %v", behind.latency, stall-gap)
	}
	if service[stalled+1] > stall/5 {
		t.Errorf("its service alone took %v; the test is not measuring queueing", service[stalled+1])
	}
	// ... and so did everything due inside the stall, each a gap less.
	for i := stalled + 1; i < stalled+int(stall/gap)-2; i++ {
		want := stall - time.Duration(i-stalled)*gap
		if got := out.arrivals[i].latency; got < want-gap {
			t.Errorf("query %d, due %v into the stall, was charged %v, want at least %v",
				i, time.Duration(i-stalled)*gap, got, want-gap)
		}
	}
	// Before the stall nothing queued.
	for i := 0; i < stalled; i++ {
		if got := out.arrivals[i].latency; got > stall/2 {
			t.Errorf("query %d, ahead of the stall, was charged %v", i, got)
		}
	}
	if out.backlogMax < int(stall/gap)-4 {
		t.Errorf("backlog peaked at %d, want about %d", out.backlogMax, int(stall/gap))
	}
}

// An operation still running when the drain ends is reported as not
// done, charged up to the cut-off.
func TestOpenLoopReportsWhatNeverCompleted(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	out := runOpen([]time.Duration{0, time.Millisecond}, 20*time.Millisecond, func(i int) {
		if i == 1 {
			<-release
		}
	})
	if !out.arrivals[0].done || out.arrivals[1].done {
		t.Fatalf("done flags %v, %v; want true, false", out.arrivals[0].done, out.arrivals[1].done)
	}
	if out.arrivals[1].latency < 15*time.Millisecond {
		t.Errorf("the lost operation was charged only %v", out.arrivals[1].latency)
	}
}
