package rpc

import (
	"net"
	"sync"
	"testing"
	"time"

	"cottage/internal/faults"
	"cottage/internal/index"
	"cottage/internal/obs"
	"cottage/internal/overload"
	"cottage/internal/predict"
)

// replicatedFleet starts R fault-injected servers per shard (row-major:
// clients[r*shards+s] is shard s's replica r, each replica pair serving
// the same index) and returns the dialed clients plus per-client stop
// functions. The injector ISN is the client index, so plans target one
// replica, not one shard. Each replica row past the first serves a copy
// of preds[s]: a predictor's inference scratch belongs to one server.
func replicatedFleet(t *testing.T, shards []*index.Shard, preds []*predict.ISNPredictor, r int, in *faults.Injector) (clients []*Client, stops []func()) {
	t.Helper()
	n := len(shards) * r
	clients = make([]*Client, n)
	stops = make([]func(), n)
	for row := 0; row < r; row++ {
		for s := range shards {
			ci := row*len(shards) + s
			var p *predict.ISNPredictor
			if preds != nil {
				p = preds[s]
				if row > 0 {
					p = clonePredictor(t, p)
				}
			}
			addr, stop := startFaultyServer(t, shards[s], p, in, ci)
			stops[ci] = stop
			t.Cleanup(stop)
			c, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			c.SetTimeout(2 * time.Second)
			c.SetRetryPolicy(RetryPolicy{Max: 1})
			clients[ci] = c
		}
	}
	return clients, stops
}

// rowGroups builds the row-major client grouping: groups[s] lists shard
// s's client indices across the replica rows.
func rowGroups(shards, r int) [][]int {
	groups := make([][]int, shards)
	for s := 0; s < shards; s++ {
		for row := 0; row < r; row++ {
			groups[s] = append(groups[s], row*shards+s)
		}
	}
	return groups
}

// TestReplicaGroupFailover: with 2 shards × 2 replicas, a replica that
// severs every stream costs a mid-query failover — not a degraded
// shard. Only when the whole group is gone does the shard land in
// Result.Failed.
func TestReplicaGroupFailover(t *testing.T) {
	shards := []*index.Shard{buildShard(t, 61), buildShard(t, 62)}
	in := faults.NewInjector(17)
	clients, _ := replicatedFleet(t, shards, nil, 2, in)
	agg := NewAggregator(clients, 10)
	if err := agg.EnableReplicaGroups(rowGroups(2, 2)); err != nil {
		t.Fatal(err)
	}

	// Healthy baseline: two logical shards, no failures.
	base, err := agg.SearchExhaustive([]string{"ga", "gb"})
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Failed) != 0 || len(base.Selected) != 2 {
		t.Fatalf("healthy run degraded: %+v", base)
	}
	if agg.Stats().FailoversSearch != 0 {
		t.Fatalf("healthy run burned failovers: %+v", agg.Stats())
	}

	// Shard 0's unused replica (client 2, ranked first as the only
	// no-data candidate) starts dropping every stream: the leg must fail
	// over to its sibling and the query must stay whole.
	in.SetPlan(2, faults.Plan{DropProb: 1})
	res, err := agg.SearchExhaustive([]string{"ga", "gb"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 0 {
		t.Fatalf("failover did not absorb a single-replica fault: Failed=%v", res.Failed)
	}
	if len(res.Hits) == 0 {
		t.Fatal("failover run returned nothing")
	}
	if st := agg.Stats(); st.FailoversSearch == 0 {
		t.Fatalf("single-replica fault served without a failover: %+v", st)
	}

	// Kill shard 0's other replica too (client 0): group-wide loss is the
	// only thing that degrades the shard.
	in.SetPlan(0, faults.Plan{DropProb: 1})
	part, err := agg.SearchExhaustive([]string{"ga", "gb"})
	if err != nil {
		t.Fatalf("one dead shard failed the query: %v", err)
	}
	if len(part.Failed) != 1 || part.Failed[0] != 0 {
		t.Fatalf("Failed = %v, want [0]", part.Failed)
	}
	if len(part.Hits) == 0 {
		t.Fatal("surviving shard contributed nothing")
	}
}

// TestReplicaGroupPredictFailover: the prediction leg fails over inside
// a replica group as the search leg does. With shard 0's first-ranked
// replica severing every stream, a Cottage query still hears shard 0's
// prediction, from the sibling, and Algorithm 1's record says so.
func TestReplicaGroupPredictFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("trains predictors")
	}
	shards, fleet, qs := distributedFixture(t)
	in := faults.NewInjector(23)
	clients, _ := replicatedFleet(t, shards, fleet.Predictors, 2, in)
	agg := NewAggregator(clients, 10)
	agg.Obs = obs.NewObserver(len(clients), 16)
	if err := agg.EnableReplicaGroups(rowGroups(len(shards), 2)); err != nil {
		t.Fatal(err)
	}
	terms := selectingQuery(t, agg, qs, 0)
	if st := agg.Stats(); st.FailoversPredict != 0 {
		t.Fatalf("healthy fleet burned predict failovers: %+v", st)
	}

	ranked := agg.rankShard(0, nil, nil)
	in.SetPlan(ranked[0], faults.Plan{DropProb: 1})
	res := mustCottage(t, agg, terms)
	if len(res.Failed) != 0 {
		t.Fatalf("failover did not absorb a single-replica fault: Failed=%v", res.Failed)
	}
	if st := agg.Stats(); st.FailoversPredict == 0 {
		t.Fatalf("prediction served past a dead replica without a failover: %+v", st)
	}
	want := agg.replicaRow(0, ranked[1])
	r := newestTrace(t, agg).Find("budget").Decision.Report(0)
	if r == nil {
		t.Fatal("no report for shard 0 in the decision record")
	}
	if r.Replica != want {
		t.Fatalf("shard 0 predicted by replica row %d, want the sibling's row %d", r.Replica, want)
	}
}

// TestProbeKeepsBreakerIdentity pins the prober/breaker interplay for
// replica groups: breakers are per address, so a probe success on one
// replica must close that replica's breaker and no other — the sibling
// sharing its shard stays open until its own probe succeeds.
func TestProbeKeepsBreakerIdentity(t *testing.T) {
	sh := buildShard(t, 63)
	addr0, stop0 := startServer(t, sh, nil)
	addr1, stop1 := startServer(t, sh, nil)
	defer stop1()
	c0, err := Dial(addr0)
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	c1, err := Dial(addr1)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	for _, c := range []*Client{c0, c1} {
		c.SetTimeout(time.Second)
		c.SetRetryPolicy(RetryPolicy{Max: 0})
	}

	agg := NewAggregator([]*Client{c0, c1}, 10)
	if err := agg.EnableReplicaGroups([][]int{{0, 1}}); err != nil {
		t.Fatal(err)
	}
	// Hour-long cooldown: only an explicit probe success may close a
	// breaker during the test.
	agg.EnableBreakers(1, time.Hour)
	agg.Breakers[0].OnFailure()
	agg.Breakers[1].OnFailure()
	if agg.Breakers[0].State() != overload.Open || agg.Breakers[1].State() != overload.Open {
		t.Fatal("breakers not tripped")
	}

	// Replica 0's process is gone; replica 1 is fine. The prober must
	// revive exactly the replica whose probe succeeds.
	stop0()
	c0.Close()
	agg.StartProber(2 * time.Millisecond)
	defer agg.StopProber()
	deadline := time.Now().Add(2 * time.Second)
	for agg.Breakers[1].State() != overload.Closed {
		if time.Now().After(deadline) {
			t.Fatal("probe never closed the live replica's breaker")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := agg.Breakers[0].State(); got != overload.Open {
		t.Fatalf("sibling's probe success moved replica 0's breaker to %v, want Open", got)
	}

	// And the selector routes accordingly: the leg lands on replica 1
	// without an error and without spending a failover (the open breaker
	// is ranked, but the closed one is tried first).
	res, err := agg.SearchExhaustive([]string{"ga"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 0 || len(res.Hits) == 0 {
		t.Fatalf("closed-breaker replica did not carry the shard: %+v", res)
	}
}

// TestHedgeFailoverCompose races hedging and failover on one leg. The
// shard's first-ranked replica has a wedged connection: the hedge (a
// fresh dial to the same address) must rescue the attempt, the wedged
// primary's late failure must be discarded — not turned into a second
// failover — and every loser is cancelled exactly once. Run under
// -race, this is the exactly-once cancellation contract.
func TestHedgeFailoverCompose(t *testing.T) {
	sh := buildShard(t, 64)
	addr0, stop0 := startServer(t, sh, nil)
	defer stop0()
	addr1, stop1 := startServer(t, sh, nil)
	defer stop1()
	c0, err := Dial(addr0)
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	c1, err := Dial(addr1)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()

	// Wedge replica 0's live connection on a silent listener (Addr()
	// still points at the healthy server, so the hedge's fresh dial
	// works). Short timeout: the wedged primary fails while the test is
	// still watching the counters.
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
	stuck, err := net.Dial("tcp", hang.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c0.SetTimeout(300 * time.Millisecond)
	c0.SetRetryPolicy(RetryPolicy{Max: 0})
	c0.conn.Close()
	c0.attach(stuck)
	c1.SetTimeout(time.Second)

	agg := NewAggregator([]*Client{c0, c1}, 10)
	if err := agg.EnableReplicaGroups([][]int{{0, 1}}); err != nil {
		t.Fatal(err)
	}
	agg.Hedge.AfterMS = 20

	res, err := agg.SearchExhaustive([]string{"ga"})
	if err != nil {
		t.Fatalf("hedge did not rescue the wedged replica: %v", err)
	}
	if len(res.Hits) == 0 || len(res.Failed) != 0 {
		t.Fatalf("hedged leg degraded: %+v", res)
	}
	st := agg.Stats()
	if st.Hedges != 1 || st.HedgeWins != 1 {
		t.Fatalf("want exactly one winning hedge, got %+v", st)
	}
	if st.FailoversSearch != 0 {
		t.Fatalf("hedge win must not also burn a failover: %+v", st)
	}

	// Let the wedged primary's in-flight call time out and fail: its late
	// loss belongs to an already-answered leg and must not move any
	// counter (no double-count, no retroactive failover).
	time.Sleep(400 * time.Millisecond)
	late := agg.Stats()
	if late.FailoversSearch != 0 || late.HedgeWins != st.HedgeWins || late.Hedges != st.Hedges {
		t.Fatalf("late primary failure moved counters: before=%+v after=%+v", st, late)
	}

	// Now replica 0 is cleanly broken (timed-out conn): the selector
	// ranks the healthy sibling first and the next query serves from
	// replica 1 — with no stale hedge outcome from the first query
	// leaking into this one's counters.
	res2, err := agg.SearchExhaustive([]string{"ga"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Failed) != 0 || len(res2.Hits) == 0 {
		t.Fatalf("failover run degraded: %+v", res2)
	}
	st2 := agg.Stats()
	if st2.HedgeWins != 1 {
		t.Fatalf("second query re-counted a hedge win: %+v", st2)
	}
}
