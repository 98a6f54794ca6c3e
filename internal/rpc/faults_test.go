package rpc

import (
	"net"
	"sync"
	"testing"
	"time"

	"cottage/internal/faults"
	"cottage/internal/index"
	"cottage/internal/predict"
	"cottage/internal/search"
)

// startFaultyServer is startServer with the transport wrapped by the
// fault injector: server-side response writes pass through the
// injector's per-ISN plan.
func startFaultyServer(tb testing.TB, sh *index.Shard, pred *predict.ISNPredictor, in *faults.Injector, isn int) (addr string, stop func()) {
	tb.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	srv := &Server{Shard: sh, Pred: pred, Strategy: search.StrategyMaxScore, Faults: in, FaultISN: isn}
	go srv.Serve(faults.WrapListener(l, in, isn))
	return l.Addr().String(), func() { l.Close() }
}

// TestRetryUnderFaults drives the client's retry/backoff machinery
// through injected transport faults, table-driven over fault plans and
// policies.
func TestRetryUnderFaults(t *testing.T) {
	sh := buildShard(t, 41)
	want := search.MaxScore(sh, []string{"ga", "gb"}, 5)
	fast := RetryPolicy{Max: 6}

	cases := []struct {
		name    string
		plan    faults.Plan
		policy  RetryPolicy
		healMS  int // clear the plan after this long (0 = never)
		calls   int
		wantErr bool
		// retry-count predicate, described by retriesDesc
		retriesOK   func(uint64) bool
		retriesDesc string
	}{
		{
			name: "clean", policy: fast, calls: 20,
			retriesOK: func(r uint64) bool { return r == 0 }, retriesDesc: "0",
		},
		{
			name: "drop-all-no-retry", plan: faults.Plan{DropProb: 1},
			policy: RetryPolicy{Max: 0}, calls: 1, wantErr: true,
			retriesOK: func(r uint64) bool { return r == 0 }, retriesDesc: "0",
		},
		{
			name: "drop-all-retries-exhausted", plan: faults.Plan{DropProb: 1},
			policy: RetryPolicy{Max: 3}, calls: 1, wantErr: true,
			retriesOK: func(r uint64) bool { return r == 3 }, retriesDesc: "exactly Max=3",
		},
		{
			name: "drop-all-heals", plan: faults.Plan{DropProb: 1},
			policy: fast, healMS: 5, calls: 1,
			retriesOK: func(r uint64) bool { return r >= 1 }, retriesDesc: ">=1",
		},
		{
			name: "corrupt-all-heals", plan: faults.Plan{CorruptProb: 1},
			policy: fast, healMS: 5, calls: 1,
			retriesOK: func(r uint64) bool { return r >= 1 }, retriesDesc: ">=1",
		},
		{
			name: "slow-within-timeout", plan: faults.Plan{SlowMS: 5},
			policy: fast, calls: 3,
			retriesOK: func(r uint64) bool { return r == 0 }, retriesDesc: "0",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := faults.NewInjector(7)
			in.SetPlan(0, tc.plan)
			addr, stop := startFaultyServer(t, sh, nil, in, 0)
			defer stop()
			c, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			c.SetTimeout(2 * time.Second)
			c.SetRetryPolicy(tc.policy)
			if tc.healMS > 0 {
				timer := time.AfterFunc(time.Duration(tc.healMS)*time.Millisecond,
					func() { in.SetPlan(0, faults.Plan{}) })
				defer timer.Stop()
			}

			var lastErr error
			var lastRes search.Result
			for i := 0; i < tc.calls; i++ {
				lastRes, lastErr = c.Search([]string{"ga", "gb"}, 5, 0)
				if lastErr != nil {
					break
				}
			}
			if tc.wantErr {
				if lastErr == nil {
					t.Fatal("expected failure, got success")
				}
				if !IsTransient(lastErr) {
					t.Fatalf("fault should surface as transient, got %v", lastErr)
				}
			} else {
				if lastErr != nil {
					t.Fatalf("unexpected error: %v", lastErr)
				}
				// Whatever the transport did, the payload must be intact.
				if len(lastRes.Hits) != len(want.Hits) {
					t.Fatalf("got %d hits, want %d", len(lastRes.Hits), len(want.Hits))
				}
				for i := range lastRes.Hits {
					if lastRes.Hits[i].Doc != want.Hits[i].Doc {
						t.Fatalf("hit %d corrupted end-to-end", i)
					}
				}
			}
			if r := c.Retries(); !tc.retriesOK(r) {
				t.Fatalf("retries = %d, want %s", r, tc.retriesDesc)
			}
		})
	}
}

// TestCrashedISNIsDegradedNotFatal: a crashed ISN defeats every retry
// (each reconnect is cut off), so the client errors out — but the
// aggregator turns that into a degraded result, and revival restores
// full service. This is the permanently-dead-node contract.
func TestCrashedISNIsDegradedNotFatal(t *testing.T) {
	shA, shB := buildShard(t, 42), buildShard(t, 43)
	in := faults.NewInjector(9)
	addrA, stopA := startFaultyServer(t, shA, nil, in, 0)
	defer stopA()
	addrB, stopB := startFaultyServer(t, shB, nil, in, 1)
	defer stopB()

	clients := make([]*Client, 2)
	for i, addr := range []string{addrA, addrB} {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.SetTimeout(2 * time.Second)
		c.SetRetryPolicy(RetryPolicy{Max: 2})
		clients[i] = c
	}
	in.Crash(1)

	// Direct call: retries cannot resurrect a dead process.
	if _, err := clients[1].Search([]string{"ga"}, 5, 0); err == nil {
		t.Fatal("search against crashed ISN succeeded")
	}
	if clients[1].Retries() == 0 {
		t.Fatal("client gave up without retrying")
	}

	// Aggregated call: the query survives, degraded.
	agg := NewAggregator(clients, 10)
	res, err := agg.SearchExhaustive([]string{"ga"})
	if err != nil {
		t.Fatalf("one dead ISN failed the whole query: %v", err)
	}
	if len(res.Failed) != 1 || res.Failed[0] != 1 {
		t.Fatalf("Failed = %v, want [1]", res.Failed)
	}
	if len(res.Hits) == 0 {
		t.Fatal("surviving ISN contributed nothing")
	}

	// Revival restores both the node and the previously-broken client.
	in.Revive(1)
	full, err := agg.SearchExhaustive([]string{"ga"})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Failed) != 0 || len(full.Selected) != 2 {
		t.Fatalf("post-revival query still degraded: %+v", full.Failed)
	}
}

// TestHedgeWinsOverStuckPrimary: the primary connection is wedged (a
// listener that accepts and goes silent), so the hedge — a fresh dial to
// the real server — must deliver the result.
func TestHedgeWinsOverStuckPrimary(t *testing.T) {
	sh := buildShard(t, 44)
	addr, stop := startServer(t, sh, nil)
	defer stop()

	hang, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hang.Close()
	var hmu sync.Mutex
	var held []net.Conn
	go func() {
		for {
			c, err := hang.Accept()
			if err != nil {
				return
			}
			hmu.Lock()
			held = append(held, c)
			hmu.Unlock()
		}
	}()
	defer func() {
		hmu.Lock()
		for _, c := range held {
			c.Close()
		}
		hmu.Unlock()
	}()

	// Dial the healthy server (so Addr() is right), then wedge the live
	// connection by pointing it at the silent listener — the shape of a
	// half-dead middlebox or a stalled accept queue.
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetTimeout(2 * time.Second)
	stuck, err := net.Dial("tcp", hang.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c.conn.Close()
	c.attach(stuck)

	agg := NewAggregator([]*Client{c}, 5)
	agg.Hedge.AfterMS = 20
	res, err := agg.SearchExhaustive([]string{"ga"})
	if err != nil {
		t.Fatalf("hedge did not rescue the stuck primary: %v", err)
	}
	if len(res.Hits) == 0 {
		t.Fatal("hedged query returned nothing")
	}
	st := agg.Stats()
	if st.Hedges != 1 || st.HedgeWins != 1 {
		t.Fatalf("stats = %+v, want 1 hedge, 1 win", st)
	}
}

// TestHedgeCancelledWhenPrimaryWins: a uniformly slow (but live) ISN
// means the primary, with its head start, answers first; the hedge must
// be issued, lose, and be cancelled.
func TestHedgeCancelledWhenPrimaryWins(t *testing.T) {
	sh := buildShard(t, 45)
	in := faults.NewInjector(11)
	in.SetPlan(0, faults.Plan{SlowMS: 40})
	addr, stop := startFaultyServer(t, sh, nil, in, 0)
	defer stop()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetTimeout(5 * time.Second)

	agg := NewAggregator([]*Client{c}, 5)
	agg.Hedge.AfterMS = 30
	res, err := agg.SearchExhaustive([]string{"ga"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) == 0 {
		t.Fatal("no hits from slow ISN")
	}
	st := agg.Stats()
	if st.Hedges != 1 {
		t.Fatalf("hedge not issued: %+v", st)
	}
	if st.HedgeWins != 0 || st.HedgesCancelled != 1 {
		t.Fatalf("primary had a 30ms head start and equal slowdown, want cancelled hedge: %+v", st)
	}
}

// TestCottageFaultTolerance exercises the full protocol against injected
// faults on a trained deployment: prediction timeouts flow into the
// degraded-mode budget, and killing an ISN mid-flight degrades rather
// than fails the query.
func TestCottageFaultTolerance(t *testing.T) {
	if testing.Short() {
		t.Skip("trains predictors")
	}
	shards, fleet, qs := distributedFixture(t)
	in := faults.NewInjector(13)
	clients := make([]*Client, len(shards))
	stops := make([]func(), len(shards))
	for i, sh := range shards {
		addr, stop := startFaultyServer(t, sh, fleet.Predictors[i], in, i)
		stops[i] = stop
		defer stop()
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.SetTimeout(2 * time.Second)
		c.SetRetryPolicy(RetryPolicy{Max: 2})
		clients[i] = c
	}
	agg := NewAggregator(clients, 10)

	terms := func() []string {
		for _, q := range qs {
			r, err := agg.SearchExhaustive(q.Terms)
			if err == nil && len(r.Hits) > 0 {
				return q.Terms
			}
		}
		t.Fatal("no query matches the fixture corpus")
		return nil
	}()

	// Healthy baseline.
	base, err := agg.SearchCottage(terms)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Failed) != 0 {
		t.Fatalf("healthy run reported failures: %v", base.Failed)
	}

	// Prediction timeouts on ISN 1: the budget is determined degraded
	// (conservative policy), the query survives. The fault only fires on
	// a predict request, and the baseline just left this query's
	// predictions in the memo — behind a connection that stays healthy —
	// so forget them to make the aggregator ask.
	agg.Degraded = 1 // core.DegradedConservative
	in.SetPlan(1, faults.Plan{PredictDropProb: 1})
	agg.predMemo().reset()
	deg, err := agg.SearchCottage(terms)
	if err != nil {
		t.Fatalf("prediction timeout failed the query: %v", err)
	}
	found := false
	for _, isn := range deg.Failed {
		if isn == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("ISN 1's prediction timeout not recorded: Failed=%v", deg.Failed)
	}
	if in.Counts()[faults.PredictTimeout] == 0 {
		t.Fatal("injector never fired a prediction timeout")
	}
	in.SetPlan(1, faults.Plan{})

	// Kill ISN 0 mid-flight (process gone, port closed): degraded result,
	// not an error. A death is only noticed by talking to the ISN, which a
	// remembered prediction that cuts the shard would never do; forget,
	// so the predict round finds it.
	stops[0]()
	clients[0].Close()
	agg.predMemo().reset()
	part, err := agg.SearchCottage(terms)
	if err != nil {
		t.Fatalf("one dead ISN failed SearchCottage: %v", err)
	}
	foundDead := false
	for _, isn := range part.Failed {
		if isn == 0 {
			foundDead = true
		}
	}
	if !foundDead {
		t.Fatalf("dead ISN 0 not in Failed: %v", part.Failed)
	}
	if len(part.Selected)+len(part.Cut) == 0 {
		t.Fatal("no surviving ISN was considered")
	}
}

// TestOfflineISNDegradesThenRecovers covers ISNs that are already dead
// when the aggregator starts: rpc.Offline defers the dial to the
// reconnect/retry path, so the fleet degrades around the hole and heals
// once a server appears at the address.
func TestOfflineISNDegradesThenRecovers(t *testing.T) {
	sh0 := buildShard(t, 1)
	sh1 := buildShard(t, 2)
	addr0, stop0 := startServer(t, sh0, nil)
	defer stop0()

	// Reserve an address with nothing listening behind it.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr1 := l.Addr().String()
	l.Close()

	c0, err := Dial(addr0)
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	c1 := Offline(addr1)
	defer c1.Close()
	for _, c := range []*Client{c0, c1} {
		c.SetTimeout(2 * time.Second)
		c.SetRetryPolicy(RetryPolicy{Max: 2})
	}

	agg := NewAggregator([]*Client{c0, c1}, 10)
	res, err := agg.SearchExhaustive([]string{"ga", "gb"})
	if err != nil {
		t.Fatalf("offline ISN must degrade the query, not fail it: %v", err)
	}
	if len(res.Failed) != 1 || res.Failed[0] != 1 {
		t.Fatalf("Failed = %v, want [1]", res.Failed)
	}
	if len(res.Hits) == 0 {
		t.Fatal("no hits from the healthy ISN")
	}
	if c1.Retries() == 0 {
		t.Fatal("offline client never attempted a redial")
	}

	// A server comes up on the reserved address; the next query heals
	// with no client surgery.
	l2, err := net.Listen("tcp", addr1)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr1, err)
	}
	defer l2.Close()
	srv := &Server{Shard: sh1, Strategy: search.StrategyMaxScore}
	go srv.Serve(l2)
	res, err = agg.SearchExhaustive([]string{"ga", "gb"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 0 {
		t.Fatalf("after restart Failed = %v, want none", res.Failed)
	}
}
