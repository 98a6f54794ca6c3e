package rpc

import (
	"net"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"cottage/internal/index"
	"cottage/internal/predict"
	"cottage/internal/qcache"
	"cottage/internal/race"
	"cottage/internal/search"
	"cottage/internal/trace"
)

// loopbackISN serves sh on loopback and dials it. Unlike startServer it
// shuts the server down and waits for its handlers (startISN), so a test
// that counts goroutines starts and ends clean.
func loopbackISN(tb testing.TB, sh *index.Shard, pred *predict.ISNPredictor) *Client {
	tb.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	p := startISN(tb, l, &Server{Shard: sh, Pred: pred, Strategy: search.StrategyMaxScore})
	c, err := Dial(p.addr)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	return c
}

// roundTripFixture is one trained ISN behind a loopback connection and
// a query that matches its shard.
func roundTripFixture(tb testing.TB) (*Client, []string) {
	tb.Helper()
	shards, fleet, qs := distributedFixture(tb)
	c := loopbackISN(tb, shards[0], fleet.Predictors[0])
	for _, q := range qs {
		if pred, _, err := c.PredictLoad(q.Terms); err == nil && pred.Matched {
			return c, q.Terms
		}
	}
	tb.Fatal("no query matches shard 0")
	return nil, nil
}

// TestRoundTripAllocs gates what one steady-state round trip allocates,
// client and server together (AllocsPerRun counts the whole process, and
// the server runs in it). The client side allocates nothing; the
// constants are what the server has to own: for a ping its Response, for
// a predict that plus the decoded terms (a []string and the one string
// backing them). The predictor itself allocates nothing per call. The
// query ceilings are whole queries over the four-ISN fixture, as
// measured when they were set: a Cottage query whose predictions are
// all remembered, and an exhaustive one. Every search leg's failover
// loop runs inside them.
func TestRoundTripAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("trains predictors")
	}
	const pingAllocs, predictAllocs = 1, 3
	const cottageHitAllocs, exhaustiveAllocs = 22, 31
	c, terms := roundTripFixture(t)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(200, func() { _ = c.Ping() }); got > pingAllocs {
		t.Errorf("Ping round trip: %v allocs, want <= %d", got, pingAllocs)
	}
	if got := testing.AllocsPerRun(200, func() { _, _, _ = c.PredictLoad(terms) }); got > predictAllocs {
		t.Errorf("PredictLoad round trip: %v allocs, want <= %d", got, predictAllocs)
	}

	if race.Enabled {
		return // a query's pooled buffers allocate when the race runtime drops Pool.Put items
	}
	agg, queries := cottageFixture(t)
	terms = queries[0]
	mustCottage(t, agg, terms)
	if got := testing.AllocsPerRun(100, func() { mustCottage(t, agg, terms) }); got > cottageHitAllocs {
		t.Errorf("memo-hit SearchCottage: %v allocs, want <= %d", got, cottageHitAllocs)
	}
	if got := testing.AllocsPerRun(100, func() {
		if _, err := agg.SearchExhaustive(terms); err != nil {
			t.Fatal(err)
		}
	}); got > exhaustiveAllocs {
		t.Errorf("SearchExhaustive: %v allocs, want <= %d", got, exhaustiveAllocs)
	}
}

// TestLegGoroutinesReused: per-shard legs run on parked goroutines, so a
// stream of queries never holds more of them than one round has legs and
// starts none once the pool is warm, and the parked ones exit on their own
// once the aggregator goes quiet.
func TestLegGoroutinesReused(t *testing.T) {
	if testing.Short() {
		t.Skip("trains predictors")
	}
	shards, fleet, qs := distributedFixture(t)
	// stable reads the goroutine count once it has held still for a while.
	stable := func(hold time.Duration) int {
		n := runtime.NumGoroutine()
		for held := time.Now(); time.Since(held) < hold; time.Sleep(legIdle / 10) {
			if m := runtime.NumGoroutine(); m != n {
				n, held = m, time.Now()
			}
		}
		return n
	}
	// Earlier tests' aggregators leave parked legs that retire on their
	// own; wait until the count has held still for longer than that takes.
	stable(2*legIdle + legIdle/5)
	clients := make([]*Client, len(shards))
	for i, sh := range shards {
		clients[i] = loopbackISN(t, sh, fleet.Predictors[i])
		// A reply proves the server accepted the connection: its handler
		// goroutine exists before the fixture is counted.
		if err := clients[i].Ping(); err != nil {
			t.Fatal(err)
		}
	}
	// The fixture: one handler per ISN connection and one accept loop per
	// server, besides the test's own goroutines. Leg goroutines come on top,
	// at most one per shard: a round has that many legs. How many the first
	// query leaves depends on how far its legs overlapped — on a contended
	// machine one runner may finish and park before the next leg is handed
	// out, and a later round then grows the pool — so what is pinned is the
	// ceiling, not the count after the first query.
	fixture := stable(legIdle / 5)
	ceiling := fixture + len(shards)
	// settled reads the goroutine count once it is within limit, or after
	// a bound if it does not get there. One reading is not enough: a leg
	// that overran its deadline (race detector, contended cores) costs its
	// connection, and for a moment the ISN's handlers for the old and the
	// new connection both exist. The bound is well under legIdle, the
	// least a leg goroutine lives, so a leaked one is still caught.
	settled := func(limit int) int {
		n := runtime.NumGoroutine()
		for bound := time.Now().Add(legIdle / 5); n > limit && time.Now().Before(bound); n = runtime.NumGoroutine() {
			time.Sleep(time.Millisecond)
		}
		return n
	}
	agg := NewAggregator(clients, 10)
	query := func(q trace.Query) {
		t.Helper()
		if _, err := agg.SearchCottage(q.Terms); err != nil {
			t.Fatal(err)
		}
	}
	query(qs[0])
	peak := settled(ceiling)
	if peak <= fixture {
		t.Fatalf("%d goroutines after the first query, %d before: no leg goroutine was kept", peak, fixture)
	}
	// The pool may grow over the first lap of the trace, whose queries are
	// new to the prediction memo and so each run a predict round as wide
	// as the fleet. After it no round is wider than one already run, and a
	// reading above the peak is a goroutine started for a query.
	for i := 1; i < 200; i++ {
		query(qs[i%len(qs)])
		limit := ceiling
		if i >= len(qs) {
			limit = peak
		}
		n := settled(limit)
		if n > ceiling {
			t.Fatalf("query %d: %d goroutines, want at most %d (%d fixture + one leg per shard)", i, n, ceiling, fixture)
		}
		if n > limit {
			t.Fatalf("query %d: %d goroutines, %d at the first lap's peak: the pool grew after warming", i, n, peak)
		}
		peak = max(peak, n)
	}

	// Idle: every parked leg goroutine retires within two legIdle, and
	// the fixture is what is left.
	deadline := time.Now().Add(10 * legIdle)
	for runtime.NumGoroutine() > fixture {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after an idle period, want %d: parked legs outlived it", runtime.NumGoroutine(), fixture)
		}
		time.Sleep(legIdle / 10)
	}
	agg.legs.mu.Lock()
	parked := len(agg.legs.parked)
	agg.legs.mu.Unlock()
	if parked != 0 {
		t.Fatalf("%d runners still on the free list after they all exited", parked)
	}

	// And the pool comes back: the next query runs and re-warms it.
	query(qs[1])
	if n := settled(peak); n <= fixture || n > peak {
		t.Fatalf("%d goroutines after re-warming, want %d to %d", n, fixture+1, peak)
	}
}

// TestConcurrentQueriesShareLegPool runs many queries at once through
// one aggregator: dispatchers pop runners while others park and retire
// them, and every query still gets its own legs' answers.
func TestConcurrentQueriesShareLegPool(t *testing.T) {
	if testing.Short() {
		t.Skip("trains predictors")
	}
	shards, fleet, qs := distributedFixture(t)
	clients := make([]*Client, len(shards))
	for i, sh := range shards {
		clients[i] = loopbackISN(t, sh, fleet.Predictors[i])
	}
	agg := NewAggregator(clients, 10)
	qs = qs[:20]
	want := make([]Result, len(qs))
	for i, q := range qs {
		var err error
		if want[i], err = agg.SearchExhaustive(q.Terms); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < 60; n++ {
				i := (w + n) % len(qs)
				got, err := agg.SearchExhaustive(qs[i].Terms)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got.Hits, want[i].Hits) || !reflect.DeepEqual(got.Selected, want[i].Selected) {
					t.Errorf("query %d under concurrency: hits or shards differ from the sequential answer", i)
					return
				}
				if n%30 == 29 {
					time.Sleep(legIdle + legIdle/4) // let runners retire mid-traffic
				}
			}
		}(w)
	}
	wg.Wait()
}

func benchmarkRoundTrip(b *testing.B, call func(c *Client, terms []string) error) {
	c, terms := roundTripFixture(b)
	if err := call(c, terms); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := call(c, terms); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRoundTrip* time one exchange with an ISN over loopback TCP,
// client and server in this process: the per-message term of a query's
// latency (16 predict + ~10 search exchanges per Cottage query).
func BenchmarkRoundTripPing(b *testing.B) {
	benchmarkRoundTrip(b, func(c *Client, _ []string) error { return c.Ping() })
}

func BenchmarkRoundTripPredict(b *testing.B) {
	benchmarkRoundTrip(b, func(c *Client, terms []string) error {
		_, _, err := c.PredictLoad(terms)
		return err
	})
}

func BenchmarkRoundTripSearch(b *testing.B) {
	benchmarkRoundTrip(b, func(c *Client, terms []string) error {
		_, err := c.Search(terms, 10, 0)
		return err
	})
}

// cottageFixture is an aggregator over the trained four-ISN fleet on
// loopback connections, and the fixture queries that select at least one
// ISN.
func cottageFixture(tb testing.TB) (*Aggregator, [][]string) {
	tb.Helper()
	isns, qs := memoFleet(tb, nil)
	agg := NewAggregator(dialFleet(tb, isns), 10)
	var queries [][]string
	for _, q := range qs {
		if res := mustCottage(tb, agg, q.Terms); len(res.Selected) > 0 {
			queries = append(queries, q.Terms)
		}
	}
	if len(queries) == 0 {
		tb.Fatal("no fixture query selects an ISN")
	}
	return agg, queries
}

// BenchmarkSearchCottageMemo* time a whole Cottage query over loopback
// TCP on the four-ISN fixture, the same queries round-robin. Hit: every
// prediction is remembered, so a query is Algorithm 1, the search
// fan-out and the merge. Miss: nothing is (the memo is emptied before
// each query), so it is the full protocol plus the memo's own
// bookkeeping — the number to hold against SearchCottage before the memo
// existed.
func BenchmarkSearchCottageMemoHit(b *testing.B) {
	benchmarkSearchCottage(b, false)
}

func BenchmarkSearchCottageMemoMiss(b *testing.B) {
	benchmarkSearchCottage(b, true)
}

func benchmarkSearchCottage(b *testing.B, forget bool) {
	agg, queries := cottageFixture(b)
	before := agg.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if forget {
			agg.predMemo().reset()
		}
		if _, err := agg.SearchCottage(queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := agg.Stats()
	if hits, misses := st.MemoHits-before.MemoHits, st.MemoMisses-before.MemoMisses; forget && hits != 0 || !forget && misses != 0 {
		b.Fatalf("forget=%v: %d hits and %d misses in the timed loop", forget, hits, misses)
	}
}

// TestMemoAllocs: a full hit allocates less than a miss, and looking a
// query up allocates nothing at all — no per-shard cost hides in it.
func TestMemoAllocs(t *testing.T) {
	agg, queries := cottageFixture(t)
	terms := queries[0]
	search := func() {
		if _, err := agg.SearchCottage(terms); err != nil {
			t.Fatal(err)
		}
	}
	hit := testing.AllocsPerRun(100, search)
	miss := testing.AllocsPerRun(100, func() {
		agg.predMemo().reset()
		search()
	})
	if hit >= miss {
		t.Errorf("a memo hit allocates %v per query, a miss %v: want fewer", hit, miss)
	}

	search() // remembered again
	q := &fanout{a: agg, terms: terms, preds: make([]predSlot, agg.Shards())}
	key := qcache.Key(terms)
	if got := testing.AllocsPerRun(100, func() {
		if ask, _ := agg.recallPredictions(q, key); ask != nil {
			t.Fatalf("lookup of a remembered query wants to ask %v", ask)
		}
	}); got != 0 {
		t.Errorf("memo lookup allocates %v per query, want 0", got)
	}
}
