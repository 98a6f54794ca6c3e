package main

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cottage/internal/baselines"
	"cottage/internal/core"
	"cottage/internal/engine"
	"cottage/internal/rpc"
	"cottage/internal/stats"
)

// numWindows is how many windows every phase is cut into. Each timing
// metric is computed per window and the quietest window is reported (see
// quietest).
const numWindows = 5

// higherIsBetter names the per-window metrics whose best window is the
// largest.
var higherIsBetter = map[string]bool{"qps_closed": true, "twin_qps": true}

// Shares of the run's -seconds given to each phase; the rest is slack
// for the open loop's drain and the untimed checks.
const (
	serialShare = 0.30
	closedShare = 0.15
	openShare   = 0.30
	twinShare   = 0.15
)

// drainTimeout is how long the open loop waits for queries still in
// flight after its last arrival; whatever is still out then is lost.
const drainTimeout = 2 * time.Second

// usage is a snapshot of what the process has consumed so far.
type usage struct {
	cpu     time.Duration // user + system
	mallocs uint64
	bytes   uint64
	gcs     uint32
	pauseNS uint64
	heap    uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	var u usage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u.mallocs, u.bytes, u.gcs, u.pauseNS, u.heap = ms.Mallocs, ms.TotalAlloc, ms.NumGC, ms.PauseTotalNs, ms.HeapAlloc
	return u
}

// sample is one query's record: which trace query it was, how long it
// took, and the answer, kept until the window ends so that checking it
// costs the measured window nothing.
type sample struct {
	qi  int
	lat time.Duration
	res rpc.Result
	err error
}

// measured is everything the untraced run reports, by metric name.
type measured map[string]float64

// runner drives one fleet through the measured phases.
type runner struct {
	f     *fleet
	ck    *checker
	nproc int
	seed  uint64
	next  atomic.Int64 // trace cursor shared by all phases
	// windows holds, per metric measured once per window, its value in
	// every window so far.
	windows map[string][]float64
	samples []sample // the serial window's records, reused
	// serialMeanUS is each serial window's mean latency: the base the
	// traced run's overhead is taken against.
	serialMeanUS []float64
	// Sums over the serial windows, and the heap after the last.
	gcs       uint32
	gcPauseNS uint64
	heap      uint64
	// Pooled over the open windows.
	openMS, lateUS        []float64
	sloMisses, backlogMax int
	// twinFirst is the first twin replay's result; twinOK is false once
	// a later replay differs from it.
	twinFirst *engine.RunResult
	twinOK    bool
	// Work the traced pass saw the ISNs report, and how many queries it
	// traced.
	docsScored, postings, tracedQueries int
}

func newRunner(f *fleet, t *truth, seed uint64) *runner {
	return &runner{f: f, ck: newChecker(t, f.w.shards, f.w.exhaustive),
		nproc: runtime.GOMAXPROCS(0), seed: seed, twinOK: true, windows: map[string][]float64{}}
}

// nextQuery hands out trace indices round-robin.
func (r *runner) nextQuery() int {
	return int((r.next.Add(1) - 1) % int64(len(r.f.queries)))
}

// one runs a single query and times it.
func (r *runner) one(qi int) sample {
	start := time.Now()
	res, err := r.f.search(r.f.queries[qi].Terms)
	return sample{qi: qi, lat: time.Since(start), res: res, err: err}
}

func (r *runner) check(samples []sample) {
	for i := range samples {
		r.ck.observe(samples[i].qi, &samples[i].res, samples[i].err)
	}
}

// window records one window's value of a metric.
func (r *runner) window(name string, v float64) {
	r.windows[name] = append(r.windows[name], v)
}

func windowLen(seconds, share float64) time.Duration {
	return time.Duration(seconds * share / numWindows * float64(time.Second))
}

// rounds runs numWindows rounds of one serial, one closed, one open and
// one twin window each; their windows together take seconds. Rounds
// interleave the phases so that a neighbour's busy spell, which lasts
// many seconds on a shared box, lands on some windows of every metric
// instead of on every window of some.
func (r *runner) rounds(seconds float64, evs []*engine.Evaluated) {
	openWindow := windowLen(seconds, openShare)
	sched := poissonSchedule(r.seed, r.f.w.rateQPS, numWindows*openWindow)
	for round := 0; round < numWindows; round++ {
		r.serial(windowLen(seconds, serialShare))
		r.closed(windowLen(seconds, closedShare))
		lo, hi := time.Duration(round)*openWindow, time.Duration(round+1)*openWindow
		var slice []time.Duration
		for _, due := range sched {
			if due >= lo && due < hi {
				slice = append(slice, due-lo)
			}
		}
		r.open(slice)
		r.twin(windowLen(seconds, twinShare), evs)
		// The replays leave garbage the live path never would; collect it
		// here, untimed, or the next serial window's CPU time would pay
		// for a collection the twin caused.
		runtime.GC()
	}
}

// finish answers, untimed, whatever trace queries the rounds did not
// reach — quality and decision metrics are means over the whole trace —
// and returns every metric the rounds produced.
func (r *runner) finish() measured {
	for _, qi := range r.ck.unseen() {
		s := r.one(qi)
		r.ck.observe(qi, &s.res, s.err)
	}
	m := measured{}
	for name, perWindow := range r.windows {
		m[name] = quietest(perWindow, higherIsBetter[name])
	}
	m["p_at_10"], m["isn_frac"], _ = r.ck.quality()
	sum := engine.Summarize(*r.twinFirst)
	m["twin_lat_ms"] = sum.MeanLatency
	m["twin_power_w"] = sum.AvgPowerW
	m["proc.gc_count"] = float64(r.gcs)
	m["proc.gc_pause_ms"] = float64(r.gcPauseNS) / 1e6
	m["proc.heap_mb"] = float64(r.heap) / (1 << 20)
	m["loadgen.open_p90_ms"] = stats.Percentile(r.openMS, 90)
	m["loadgen.open_p99_ms"] = stats.Percentile(r.openMS, 99)
	m["loadgen.open_p999_ms"] = stats.Percentile(r.openMS, 99.9)
	m["loadgen.slo_miss_frac"] = float64(r.sloMisses) / float64(len(r.openMS))
	m["loadgen.late_us"] = stats.Mean(r.lateUS)
	m["loadgen.backlog_max"] = float64(r.backlogMax)
	m["loadgen.dropped_frac"] = float64(r.ck.dropped) / float64(r.ck.attempted)
	return m
}

// serial is a window of one closed-loop client: latency percentiles,
// and the process's CPU time and heap allocations per query.
func (r *runner) serial(window time.Duration) {
	r.samples = r.samples[:0]
	u0 := readUsage()
	for start := time.Now(); time.Since(start) < window; {
		r.samples = append(r.samples, r.one(r.nextQuery()))
	}
	u1 := readUsage()
	n := float64(len(r.samples))
	lats := make([]float64, len(r.samples))
	for i, s := range r.samples {
		lats[i] = float64(s.lat) / float64(time.Millisecond)
	}
	r.window("lat_p50_ms", stats.Percentile(lats, 50))
	r.window("lat_p95_ms", stats.Percentile(lats, 95))
	r.window("loadgen.lat_p99_ms", stats.Percentile(lats, 99))
	r.window("cpu_us_per_query", float64((u1.cpu-u0.cpu).Microseconds())/n)
	r.window("allocs_per_query", float64(u1.mallocs-u0.mallocs)/n)
	r.window("proc.bytes_per_query", float64(u1.bytes-u0.bytes)/n)
	r.serialMeanUS = append(r.serialMeanUS, stats.Mean(lats)*1000)
	r.gcs += u1.gcs - u0.gcs
	r.gcPauseNS += u1.pauseNS - u0.pauseNS
	r.heap = u1.heap
	r.check(r.samples)
}

// closed is a window of nproc closed-loop clients: throughput.
func (r *runner) closed(window time.Duration) {
	perClient := make([][]sample, r.nproc)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < r.nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < window {
				perClient[c] = append(perClient[c], r.one(r.nextQuery()))
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	n := 0
	for _, s := range perClient {
		n += len(s)
		r.check(s)
	}
	r.window("qps_closed", float64(n)/elapsed.Seconds())
}

// open is a window of the Poisson open loop at the workload's fixed
// rate: every query is timed from the moment it was due, so a stall
// delays — and is charged to — every query scheduled behind it.
func (r *runner) open(sched []time.Duration) {
	qis := make([]int, len(sched))
	for i := range qis {
		qis[i] = r.nextQuery()
	}
	results := make([]sample, len(sched))
	out := runOpen(sched, drainTimeout, func(i int) {
		results[i] = r.one(qis[i])
	})

	lats := make([]float64, len(sched))
	for i, o := range out.arrivals {
		if o.done {
			r.ck.observe(qis[i], &results[i].res, results[i].err)
		} else {
			r.ck.lost()
		}
		lats[i] = float64(o.latency) / float64(time.Millisecond)
		r.lateUS = append(r.lateUS, float64(o.late)/float64(time.Microsecond))
		// Late, lost, failed or short of a shard: all miss the limit.
		if !o.done || results[i].err != nil || len(results[i].res.Failed) > 0 || lats[i] > r.f.w.sloMS {
			r.sloMisses++
		}
	}
	r.window("open_p50_ms", stats.Percentile(lats, 50))
	r.openMS = append(r.openMS, lats...)
	r.backlogMax = max(r.backlogMax, out.backlogMax)
}

// twin is a window of replays of the evaluated trace through the
// virtual-time engine under the workload's policy, as many as fit:
// replay throughput in wall time. The model's own outputs must be
// identical on every replay.
func (r *runner) twin(window time.Duration, evs []*engine.Evaluated) {
	var results []engine.RunResult
	start := time.Now()
	for len(results) == 0 || time.Since(start) < window {
		results = append(results, r.f.eng.Run(r.policy(), evs))
	}
	r.window("twin_qps", float64(len(results)*len(evs))/time.Since(start).Seconds())
	if r.twinFirst == nil {
		r.twinFirst = &results[0]
	}
	for i := range results {
		if !reflect.DeepEqual(*r.twinFirst, results[i]) {
			r.twinOK = false
		}
	}
}

func (r *runner) policy() engine.Policy {
	if r.f.w.exhaustive {
		return baselines.Exhaustive{}
	}
	return core.NewCottage()
}

// verdict is the output check's result: correct when every completed
// answer matched the ground truth, quality is above its floor and the
// twin replayed deterministically.
func (r *runner) verdict(pAt10 float64) (bool, string) {
	switch {
	case r.ck.wrong > 0:
		return false, fmt.Sprintf("%d answers differ from the ground truth; first: %s", r.ck.wrong, r.ck.firstWrong)
	case pAt10 < minPAt10:
		return false, fmt.Sprintf("p_at_10 %.4f below the %.2f floor", pAt10, minPAt10)
	case !r.twinOK:
		return false, "twin replays of one trace differ"
	}
	return true, ""
}
