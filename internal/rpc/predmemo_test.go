package rpc

import (
	"context"
	"fmt"
	"math"
	"net"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"cottage/internal/cluster"
	"cottage/internal/core"
	"cottage/internal/faults"
	"cottage/internal/index"
	"cottage/internal/obs"
	"cottage/internal/obs/slo"
	"cottage/internal/overload"
	"cottage/internal/predict"
	"cottage/internal/search"
	"cottage/internal/trace"
)

// reset empties the memo: the next query of every term set asks all its
// shards again. Serving never needs it, because slots invalidate
// themselves (see usable), but a test that changes what the ISNs would
// answer behind healthy connections does.
func (m *predMemo) reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.lru.Reset()
}

// memoFixture is distributedFixture trained once for this file's tests.
// They run one after the other and each serves every shard from one
// Server at a time, so sharing the predictors' scratch is safe.
var memoFixture struct {
	once   sync.Once
	shards []*index.Shard
	fleet  *predict.Fleet
	qs     []trace.Query
}

// isn is one running server that a test can take down for good:
// listener, connections and handlers.
type isn struct {
	srv  *Server
	addr string
	done chan struct{}
}

// startISN serves srv on l; the test's cleanup takes it down if the test
// has not.
func startISN(tb testing.TB, l net.Listener, srv *Server) *isn {
	tb.Helper()
	p := &isn{srv: srv, addr: l.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		_ = srv.Serve(l) // nil once Shutdown closes l
	}()
	tb.Cleanup(func() {
		if err := p.kill(); err != nil {
			tb.Errorf("server shutdown: %v", err)
		}
	})
	return p
}

// kill stops the server, drops its connections and waits for its
// handlers; idempotent.
func (p *isn) kill() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := p.srv.Shutdown(ctx) // a timeout force-closes what is left
	<-p.done
	return err
}

// memoFleet starts one ISN per fixture shard and returns them with the
// trace. customize, if given, may adjust a Server before it serves and
// returns the listener to serve on (l, or l wrapped).
func memoFleet(tb testing.TB, customize func(i int, srv *Server, l net.Listener) net.Listener) ([]*isn, []trace.Query) {
	tb.Helper()
	if testing.Short() {
		tb.Skip("trains predictors")
	}
	f := &memoFixture
	f.once.Do(func() { f.shards, f.fleet, f.qs = distributedFixture(tb) })
	isns := make([]*isn, len(f.shards))
	for i, sh := range f.shards {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		srv := &Server{Shard: sh, Pred: f.fleet.Predictors[i], Strategy: search.StrategyMaxScore}
		if customize != nil {
			l = customize(i, srv, l)
		}
		isns[i] = startISN(tb, l, srv)
	}
	return isns, f.qs
}

// clonePredictor returns a decoded copy of p with inference scratch of
// its own, for a second user of the same model.
func clonePredictor(tb testing.TB, p *predict.ISNPredictor) *predict.ISNPredictor {
	tb.Helper()
	c, err := predict.DecodeISNPredictor(p.Append(nil))
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// dialFleet connects a fresh set of clients to isns.
func dialFleet(tb testing.TB, isns []*isn) []*Client {
	tb.Helper()
	clients := make([]*Client, len(isns))
	for i, p := range isns {
		c, err := Dial(p.addr)
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { c.Close() })
		c.SetTimeout(5 * time.Second)
		clients[i] = c
	}
	return clients
}

func mustCottage(tb testing.TB, agg *Aggregator, terms []string) Result {
	tb.Helper()
	res, err := agg.SearchCottage(terms)
	if err != nil {
		tb.Fatalf("SearchCottage(%v): %v", terms, err)
	}
	return res
}

// decision is one query's Result and the shards Algorithm 1 cut, read
// from the query's decision record.
type decision struct {
	Result
	cut []int
}

// decide runs SearchCottage on agg, which needs an observer and no other
// query in flight: the cut comes from agg's newest trace.
func decide(tb testing.TB, agg *Aggregator, terms []string) decision {
	tb.Helper()
	res := mustCottage(tb, agg, terms)
	return decision{res, newestTrace(tb, agg).Find("budget").Decision.Dropped}
}

// sameDecision compares what the memo must not change: Algorithm 1's
// outcome always, and the hits whenever no leg missed its budget (a leg
// timing out on a loaded box is the machine's doing, not the memo's).
func sameDecision(got, want decision) error {
	if !reflect.DeepEqual(got.Selected, want.Selected) || !slices.Equal(got.cut, want.cut) ||
		math.Float64bits(got.BudgetMS) != math.Float64bits(want.BudgetMS) {
		return fmt.Errorf("selected %v cut %v budget %v, want %v %v %v",
			got.Selected, got.cut, got.BudgetMS, want.Selected, want.cut, want.BudgetMS)
	}
	if len(got.Failed)+len(want.Failed) == 0 && !reflect.DeepEqual(got.Hits, want.Hits) {
		return fmt.Errorf("hits %v, want %v", got.Hits, want.Hits)
	}
	return nil
}

// selectingQuery returns a fixture query that, asked fresh, matches
// shard s and has it searched.
func selectingQuery(tb testing.TB, agg *Aggregator, qs []trace.Query, s int) []string {
	tb.Helper()
	for _, q := range qs {
		agg.predMemo().reset()
		if res := mustCottage(tb, agg, q.Terms); slices.Contains(res.Selected, s) && len(res.Failed) == 0 {
			agg.predMemo().reset()
			return q.Terms
		}
	}
	tb.Fatalf("no fixture query selects shard %d", s)
	return nil
}

// TestMemoEquivalence: an aggregator that remembers and one that forgets
// before every query give the same decisions and hits over the fixture
// trace — in trace order, with every query's terms reversed, and with
// GOMAXPROCS clients at once — while the remembering one skips whole
// predict rounds.
func TestMemoEquivalence(t *testing.T) {
	isns, qs := memoFleet(t, nil)
	remembering := NewAggregator(dialFleet(t, isns), 10)
	forgetting := NewAggregator(dialFleet(t, isns), 10)
	shards := len(isns)
	remembering.Obs = obs.NewObserver(shards, 1)
	forgetting.Obs = obs.NewObserver(shards, 1)

	want := make([]decision, len(qs))
	for i, q := range qs {
		forgetting.predMemo().reset()
		want[i] = decide(t, forgetting, q.Terms)
		if len(want[i].Predicted) != shards {
			t.Fatalf("query %d: a forgotten memo asked %v, want all %d shards", i, want[i].Predicted, shards)
		}
	}
	if st := forgetting.Stats(); st.MemoHits+st.MemoPartial != 0 || st.MemoMisses != uint64(len(qs)) {
		t.Fatalf("forgetting aggregator: %+v, want %d misses and nothing else", st, len(qs))
	}

	for i, q := range qs {
		if err := sameDecision(decide(t, remembering, q.Terms), want[i]); err != nil {
			t.Fatalf("first pass, query %d %v: %v", i, q.Terms, err)
		}
	}
	whole, _ := trace.RepeatRate(qs)
	repeats := uint64(math.Round(whole * float64(len(qs))))
	if st := remembering.Stats(); st.MemoHits != repeats || st.MemoPartial != 0 {
		t.Fatalf("first pass: %+v, want the trace's own %d repeats as hits and the rest misses", st, repeats)
	}

	// Term order: the decision is the original order's, bit for bit. The
	// hits are compared with a fresh answer to the same reversed terms —
	// an ISN sums a document's per-term scores in query order, so their
	// last bits follow the order asked, memo or no memo.
	for i, q := range qs {
		rev := slices.Clone(q.Terms)
		slices.Reverse(rev)
		res := decide(t, remembering, rev)
		if len(res.Predicted) != 0 {
			t.Fatalf("second pass, query %d %v: asked %v, want a full hit", i, rev, res.Predicted)
		}
		forgetting.predMemo().reset()
		if err := sameDecision(res, decide(t, forgetting, rev)); err != nil {
			t.Fatalf("second pass, query %d %v: %v", i, rev, err)
		}
		res.Hits = want[i].Hits
		if err := sameDecision(res, want[i]); err != nil {
			t.Fatalf("second pass, query %d %v against %v: %v", i, rev, q.Terms, err)
		}
	}

	// Concurrent queries cannot tell their traces apart, so this pass
	// checks the Result only; the passes above pinned every query's cut.
	nproc := max(2, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for w := 0; w < nproc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := range qs {
				i := (n + w*7) % len(qs)
				res, err := remembering.SearchCottage(qs[i].Terms)
				if err == nil {
					err = sameDecision(decision{res, want[i].cut}, want[i])
				}
				if err != nil {
					t.Errorf("client %d, query %d: %v", w, i, err)
					return
				}
				// Some clients keep knocking entries out from under the others.
				if w == 0 && n%10 == 9 {
					remembering.predMemo().reset()
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestMemoReasksRestartedShard: when the process behind an address is
// replaced — here by one serving a different shard — the client's epoch
// moves with the reconnect and exactly that shard is asked again; the
// rest of the query still comes out of the memo.
func TestMemoReasksRestartedShard(t *testing.T) {
	isns, qs := memoFleet(t, nil)
	clients := dialFleet(t, isns)
	for _, c := range clients {
		c.SetRetryPolicy(RetryPolicy{Max: 3})
	}
	agg := NewAggregator(clients, 10)
	agg.Obs = obs.NewObserver(len(isns), 1)
	terms := selectingQuery(t, agg, qs, 2)

	if res := mustCottage(t, agg, terms); len(res.Predicted) != len(isns) {
		t.Fatalf("cold query asked %v", res.Predicted)
	}
	if res := mustCottage(t, agg, terms); len(res.Predicted) != 0 {
		t.Fatalf("repeat asked %v, want a full hit", res.Predicted)
	}

	if err := isns[2].kill(); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", isns[2].addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", isns[2].addr, err)
	}
	// The new process serves shard 0's data. It answers in the same fan-out
	// as ISN 0, so it needs inference scratch of its own: a decoded copy.
	f := &memoFixture
	swapped := startISN(t, l, &Server{Shard: f.shards[0], Pred: clonePredictor(t, f.fleet.Predictors[0]), Strategy: search.StrategyMaxScore})
	// Something has to touch the dead connection for anyone to know: here
	// the ping a prober would send (a search leg would do as well).
	if err := clients[2].Ping(); err != nil {
		t.Fatalf("ping through the restart: %v", err)
	}

	res := mustCottage(t, agg, terms)
	if !reflect.DeepEqual(res.Predicted, []int{2}) {
		t.Fatalf("after the restart asked %v, want [2]", res.Predicted)
	}
	if st := agg.Stats(); st.MemoPartial != 1 {
		t.Fatalf("stats %+v, want one partial hit", st)
	}
	again := decide(t, agg, terms)
	if len(again.Predicted) != 0 {
		t.Fatalf("the new process's answer was not remembered: asked %v", again.Predicted)
	}
	// What is remembered for shard 2 is the new process's answer: a fresh
	// aggregator over the same fleet decides the same.
	fresh := NewAggregator(dialFleet(t, append(slices.Clone(isns[:2]), swapped, isns[3])), 10)
	fresh.Obs = obs.NewObserver(len(isns), 1)
	if err := sameDecision(again, decide(t, fresh, terms)); err != nil {
		t.Fatalf("memo after restart vs fresh aggregator: %v", err)
	}
}

// TestMemoBypassedForUnhealthyReplica: a remembered prediction is not
// used for a replica whose breaker is open, whose connection is broken or
// whose copy is quarantined. That shard takes its live leg, fails it, and
// degraded-mode Algorithm 1 (either policy) sees exactly what it would
// with nothing remembered; a readmitted replica is asked again.
func TestMemoBypassedForUnhealthyReplica(t *testing.T) {
	const sick = 1
	cases := []struct {
		name   string
		sicken func(t *testing.T, agg *Aggregator, p *isn)
	}{
		{"breaker-open", func(t *testing.T, agg *Aggregator, _ *isn) {
			agg.Breakers[sick].OnFailure()
			if st := agg.Breakers[sick].State(); st != overload.Open {
				t.Fatalf("breaker %v, want open", st)
			}
		}},
		{"broken", func(t *testing.T, agg *Aggregator, p *isn) {
			if err := p.kill(); err != nil {
				t.Fatal(err)
			}
			if err := agg.Clients[sick].Ping(); err == nil || !agg.Clients[sick].Broken() {
				t.Fatalf("ping to a dead ISN: err %v, broken %v", err, agg.Clients[sick].Broken())
			}
		}},
		{"quarantined", func(t *testing.T, agg *Aggregator, _ *isn) {
			agg.noteCorrupt(sick)
		}},
	}
	for _, tc := range cases {
		for _, mode := range []core.DegradedMode{core.DegradedExclude, core.DegradedConservative} {
			t.Run(tc.name+"/"+mode.String(), func(t *testing.T) {
				isns, qs := memoFleet(t, nil)
				agg := NewAggregator(dialFleet(t, isns), 10)
				agg.Obs = obs.NewObserver(len(isns), 1)
				agg.EnableBreakers(1, time.Hour)
				agg.Degraded = mode
				terms := selectingQuery(t, agg, qs, sick)
				mustCottage(t, agg, terms)
				if res := mustCottage(t, agg, terms); len(res.Predicted) != 0 {
					t.Fatalf("repeat asked %v, want a full hit", res.Predicted)
				}

				tc.sicken(t, agg, isns[sick])
				got := decide(t, agg, terms)
				if !reflect.DeepEqual(got.Predicted, []int{sick}) {
					t.Fatalf("asked %v, want only the sick shard [%d]", got.Predicted, sick)
				}
				if !slices.Contains(got.Failed, sick) {
					t.Fatalf("sick shard not in Failed %v: its prediction was not treated as missing", got.Failed)
				}
				agg.predMemo().reset()
				want := decide(t, agg, terms)
				if !reflect.DeepEqual(got.Failed, want.Failed) {
					t.Fatalf("failed %v, want %v", got.Failed, want.Failed)
				}
				if err := sameDecision(got, want); err != nil {
					t.Fatalf("with the memo vs without: %v", err)
				}

				if tc.name != "quarantined" {
					return
				}
				// Repair done, replica readmitted — on the same connection. The
				// copy behind it may have been swapped, so it is asked again.
				agg.readmitClient(sick)
				if res := mustCottage(t, agg, terms); !reflect.DeepEqual(res.Predicted, []int{sick}) || len(res.Failed) != 0 {
					t.Fatalf("after readmit asked %v (failed %v), want [%d] and no failure", res.Predicted, res.Failed, sick)
				}
				if res := mustCottage(t, agg, terms); len(res.Predicted) != 0 {
					t.Fatalf("readmitted replica's answer not remembered: asked %v", res.Predicted)
				}
			})
		}
	}
}

// newestTrace returns the trace of the last query agg finished.
func newestTrace(tb testing.TB, agg *Aggregator) *obs.Trace {
	tb.Helper()
	trs := agg.Obs.Traces.Recent(1)
	if len(trs) == 0 {
		tb.Fatal("no trace recorded")
	}
	return trs[0]
}

// backlogMS reads from the last query's trace the Eq. 2 backlog
// Algorithm 1 was given for shard s.
func backlogMS(tb testing.TB, agg *Aggregator, s int) float64 {
	tb.Helper()
	tr := newestTrace(tb, agg)
	for _, r := range tr.Find("budget").Decision.Reports {
		if r.ISN == s {
			return r.PredLatencyMS - r.PredServiceMS
		}
	}
	tb.Fatalf("no report for shard %d in trace %#x", s, tr.ID)
	return 0
}

// TestMemoKeepsEq2Live: every reply carries the ISN's load, a hit applies
// the latest one, and an ISN that reported a queue is asked live until it
// reports an empty one — so with the memo, Eq. 2 lags by at most the one
// query whose search reply brought the news.
func TestMemoKeepsEq2Live(t *testing.T) {
	const busy = 0
	lim := overload.NewLimiter(4, 8, nil)
	isns, qs := memoFleet(t, func(i int, srv *Server, l net.Listener) net.Listener {
		if i == busy {
			srv.Limit = lim
		}
		return l
	})
	clients := dialFleet(t, isns)
	agg := NewAggregator(clients, 10)
	agg.Obs = obs.NewObserver(len(clients), 64)
	terms := selectingQuery(t, agg, qs, busy)

	mustCottage(t, agg, terms)
	res := mustCottage(t, agg, terms)
	if len(res.Predicted) != 0 || backlogMS(t, agg, busy) != 0 {
		t.Fatalf("idle repeat: asked %v, backlog %v; want a hit with none", res.Predicted, backlogMS(t, agg, busy))
	}

	// Two requests take slots at the ISN. The aggregator cannot know
	// until a reply says so: this query is still a hit, and its search
	// reply carries the news.
	for i := 0; i < 2; i++ {
		if err := lim.Acquire(0); err != nil {
			t.Fatal(err)
		}
	}
	if res = mustCottage(t, agg, terms); len(res.Predicted) != 0 || !slices.Contains(res.Selected, busy) {
		t.Fatalf("query before the news: asked %v, searched %v", res.Predicted, res.Selected)
	}
	if load := clients[busy].lastLoad(); load.Depth != 2 || load.AvgServiceUS <= 0 {
		t.Fatalf("search reply carried %+v, want depth 2 and a service time", load)
	}

	// From here the busy ISN is asked live, and its own figures go into Eq. 2.
	res = mustCottage(t, agg, terms)
	if !reflect.DeepEqual(res.Predicted, []int{busy}) {
		t.Fatalf("asked %v, want the queued ISN [%d] only", res.Predicted, busy)
	}
	if b := backlogMS(t, agg, busy); b <= 0 {
		t.Fatalf("queued ISN asked live got backlog %v, want 2 x its service time", b)
	}

	// The queue drains. The ISN's last word was "2 queued", so it is asked
	// once more, answers "empty", and only then does the memo serve again —
	// applying what that last reply carried.
	lim.Release()
	lim.Release()
	if res = mustCottage(t, agg, terms); !reflect.DeepEqual(res.Predicted, []int{busy}) {
		t.Fatalf("after the drain asked %v, want [%d] once more", res.Predicted, busy)
	}
	load := clients[busy].lastLoad()
	res = mustCottage(t, agg, terms)
	if len(res.Predicted) != 0 {
		t.Fatalf("ISN reported %+v yet was asked again: %v", load, res.Predicted)
	}
	if got, want := backlogMS(t, agg, busy), core.QueueBacklogMS(load.Depth, float64(load.AvgServiceUS)/1000); got != want {
		t.Fatalf("hit applied backlog %v, its last reply carried %v (%+v)", got, want, load)
	}
}

// TestPredictiveHedgeReadsMemoisedPrediction: predictive hedging flags a
// search leg by its predicted LCurrent, and a remembered prediction flags
// it just the same. Replies are slowed so that a flagged leg's duplicate
// always goes out before its primary answers.
func TestPredictiveHedgeReadsMemoisedPrediction(t *testing.T) {
	in := faults.NewInjector(19)
	isns, qs := memoFleet(t, func(i int, _ *Server, l net.Listener) net.Listener {
		in.SetPlan(i, faults.Plan{SlowMS: 15})
		return faults.WrapListener(l, in, i)
	})
	agg := NewAggregator(dialFleet(t, isns), 10)
	terms := selectingQuery(t, agg, qs[:10], 0)
	agg.Hedge = cluster.Hedge{Predictive: true, ThresholdMS: 1e-9} // every leg with a prediction is "slow"

	cold := mustCottage(t, agg, terms)
	hedges := agg.Stats().Hedges
	if len(cold.Predicted) != len(isns) || hedges != uint64(len(cold.Selected)) {
		t.Fatalf("cold query: asked %v, %d hedges for %d searched shards", cold.Predicted, hedges, len(cold.Selected))
	}
	warm := mustCottage(t, agg, terms)
	if len(warm.Predicted) != 0 {
		t.Fatalf("repeat asked %v", warm.Predicted)
	}
	if got := agg.Stats().Hedges - hedges; got != uint64(len(warm.Selected)) {
		t.Fatalf("hit: %d hedges for %d searched shards: the legs did not see the remembered LCurrent", got, len(warm.Selected))
	}
}

// TestMemoIsBounded: the memo never holds more than predMemoCapacity
// predictions, however many shards share it out, and says so when it
// drops an entry.
func TestMemoIsBounded(t *testing.T) {
	for _, shards := range []int{16, 100, 1000} {
		m := newPredMemo(shards)
		fit := predMemoCapacity / shards // queries that fit
		n, evictions := fit+3, 0
		for i := 0; i < n; i++ {
			if m.put(fmt.Sprintf("q%d", i), make([]memoSlot, shards)) {
				evictions++
			}
			if stored := m.entries() * shards; stored > predMemoCapacity {
				t.Fatalf("%d shards: %d predictions stored after %d puts, bound %d", shards, stored, i+1, predMemoCapacity)
			}
		}
		if m.entries() != fit || evictions != 3 {
			t.Fatalf("%d shards: %d entries and %d evictions after %d puts, want %d and 3", shards, m.entries(), evictions, n, fit)
		}
		if m.get("q2") != nil || m.get("q3") == nil {
			t.Fatalf("%d shards: eviction did not go oldest-first", shards)
		}
		m.reset()
		if m.entries() != 0 {
			t.Fatalf("%d shards: %d entries after reset", shards, m.entries())
		}
	}
}

// TestEveryExitIsObserved: the exits that used to leave early — no ISN
// selected, every prediction failed, every shard failed — reach the
// latency histogram, the trace ring and the burn-rate monitor like any
// other query; an outright failure counts as degraded and over the
// latency limit no matter how quickly it failed.
func TestEveryExitIsObserved(t *testing.T) {
	isns, _ := memoFleet(t, nil)
	newAgg := func() *Aggregator {
		agg := NewAggregator(dialFleet(t, isns), 10)
		agg.Obs = obs.NewObserver(len(isns), 16)
		mon := slo.New(slo.Config{})
		agg.SLO = &slo.QuerySLO{
			LatencyMS: 60_000, // nothing that completes misses this
			Latency:   mon.Objective("latency", 0.01),
			Quality:   mon.Objective("quality", 0.01),
		}
		return agg
	}
	burning := func(o *slo.Objective) bool { fast, _ := o.Burn(); return fast > 0 }
	latencies := func(agg *Aggregator, mode string) uint64 {
		h := agg.Obs.Reg.Histogram("cottage_agg_query_ms", "", obs.LatencyBucketsMS(), obs.L("mode", mode))
		return h.Snapshot().Count
	}
	empty, deadCottage, deadExhaustive := newAgg(), newAgg(), newAgg()

	res := mustCottage(t, empty, []string{"no-shard-has-this-term"})
	if len(res.Selected) != 0 || empty.Obs.Traces.Total() != 1 {
		t.Fatalf("unmatched query: selected %v, %d traces", res.Selected, empty.Obs.Traces.Total())
	}
	if n := latencies(empty, "cottage"); n != 1 {
		t.Fatalf("no-ISN-selected exit: %d latency observations, want 1", n)
	}
	if burning(empty.SLO.Latency) || burning(empty.SLO.Quality) {
		t.Fatal("an answered, empty query burned error budget")
	}

	for _, p := range isns {
		if err := p.kill(); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		mode   string
		agg    *Aggregator
		search func([]string) (Result, error)
	}{
		{"cottage", deadCottage, deadCottage.SearchCottage},
		{"exhaustive", deadExhaustive, deadExhaustive.SearchExhaustive},
	} {
		if _, err := tc.search([]string{"ga"}); err == nil {
			t.Fatalf("%s: query over a dead fleet succeeded", tc.mode)
		}
		if n := latencies(tc.agg, tc.mode); n != 1 {
			t.Errorf("%s: %d latency observations of the failed query, want 1", tc.mode, n)
		}
		if q := tc.agg.SLO; !burning(q.Latency) || !burning(q.Quality) {
			t.Errorf("%s: failed query not seen by the SLO monitor (latency %v, quality %v)",
				tc.mode, burning(q.Latency), burning(q.Quality))
		}
		traces := tc.agg.Obs.Traces.Recent(0)
		if len(traces) != 1 || traces[0].Root().Attrs["error"] == "" {
			t.Errorf("%s: failed query left %d traces, want one with an error on its root", tc.mode, len(traces))
		}
	}
}
