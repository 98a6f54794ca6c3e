package rpc

import (
	"net"
	"testing"
	"time"

	"cottage/internal/obs"
	"cottage/internal/overload"
	"cottage/internal/search"
)

// TestSearchAnytimeOverWire: an anytime search with a generous deadline
// must come back complete and bitwise-identical to a local evaluation;
// the termination certificate must survive the wire either way.
func TestSearchAnytimeOverWire(t *testing.T) {
	sh := buildShard(t, 9)
	addr, stop := startServer(t, sh, nil)
	defer stop()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	terms := []string{"ga", "gb"}
	r, _, err := c.searchCall(obs.SpanContext{}, terms, 10, 5*time.Second, true)
	if err != nil {
		t.Fatal(err)
	}
	if r.Terminated {
		t.Error("5s deadline on a 500-doc shard should not truncate")
	}
	want := search.Anytime(sh, terms, 10, nil)
	if len(r.Hits) != len(want.Hits) {
		t.Fatalf("remote %d hits, local %d", len(r.Hits), len(want.Hits))
	}
	for i := range r.Hits {
		if r.Hits[i].Doc != want.Hits[i].Doc || r.Hits[i].Score != want.Hits[i].Score {
			t.Fatalf("hit %d differs over the wire", i)
		}
	}
	if r.ScoreBound != want.ScoreBound {
		t.Errorf("ScoreBound %v lost over the wire (local %v)", r.ScoreBound, want.ScoreBound)
	}

	// A truncated answer (whenever the 1us deadline fires mid-shard) must
	// still carry exact hits and a bound covering the full evaluation.
	r, _, err = c.searchCall(obs.SpanContext{}, terms, 10, time.Microsecond, true)
	if err != nil {
		t.Fatal(err)
	}
	if r.Terminated {
		if r.ScoreBound < want.ScoreBound {
			t.Errorf("truncated bound %v below exact k-th %v", r.ScoreBound, want.ScoreBound)
		}
		for _, h := range r.Hits {
			found := false
			for _, w := range want.Hits {
				if w.Doc == h.Doc && w.Score == h.Score {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("truncated hit %v not among the exact top-K", h)
			}
		}
	}
}

// TestSearchAnytimeWithoutDeadlineFallsBack: Anytime requests without a
// deadline take the ordinary strategy path — no certificate fields set.
func TestSearchAnytimeWithoutDeadlineFallsBack(t *testing.T) {
	sh := buildShard(t, 9)
	addr, stop := startServer(t, sh, nil)
	defer stop()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r, _, err := c.searchCall(obs.SpanContext{}, []string{"ga"}, 5, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if r.Terminated || r.ScoreBound != 0 {
		t.Errorf("deadline-free anytime call set certificate fields: %v %v", r.Terminated, r.ScoreBound)
	}
	if len(r.Hits) == 0 {
		t.Error("no hits")
	}
}

// TestTruncatedLegScoresQualityNotLatency: an anytime leg cut at the
// budget took the budget, not the query's cost, so predictor accuracy
// scores its quality call and not its latency. Every searched shard's
// only admission slot is held (on a limiter whose clock stands still, so
// it never sheds) while a repeat of the query queues past its budget:
// its legs come back truncated.
func TestTruncatedLegScoresQualityNotLatency(t *testing.T) {
	isns, qs := memoFleet(t, func(_ int, srv *Server, l net.Listener) net.Listener {
		srv.Limit = overload.NewLimiter(1, 4, overload.NewManualClock(time.Unix(0, 0)))
		return l
	})
	agg := NewAggregator(dialFleet(t, isns), 10)
	agg.Anytime = true
	agg.Obs = obs.NewObserver(len(isns), 16)
	var first Result
	var terms []string
	for _, q := range qs {
		if r := mustCottage(t, agg, q.Terms); len(r.Selected) > 0 && len(r.Failed)+len(r.Truncated) == 0 {
			first, terms = r, q.Terms
			break
		}
	}
	if terms == nil {
		t.Fatal("no fixture query searched a shard cleanly")
	}
	before := agg.Obs.Acc.Snapshot()

	for _, s := range first.Selected {
		if err := isns[s].srv.Limit.Acquire(0); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan Result, 1)
	go func() {
		res, err := agg.SearchCottage(terms)
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	for _, s := range first.Selected {
		for wait := time.Now(); isns[s].srv.Limit.Stats().Queued == 0 && time.Since(wait) < 2*time.Second; {
			time.Sleep(time.Millisecond)
		}
	}
	time.Sleep(time.Duration(2*first.BudgetMS*float64(time.Millisecond)) + 5*time.Millisecond)
	for _, s := range first.Selected {
		isns[s].srv.Limit.Release()
	}
	res := <-done
	if len(res.Truncated) == 0 {
		t.Fatalf("repeat searched %v, truncated none (failed %v)", res.Selected, res.Failed)
	}
	after := agg.Obs.Acc.Snapshot()
	for _, s := range res.Truncated {
		if after[s].LatSamples != before[s].LatSamples || after[s].QualSamples != before[s].QualSamples+1 {
			t.Errorf("truncated shard %d: latency samples %d -> %d, quality samples %d -> %d; want latency unchanged, quality +1",
				s, before[s].LatSamples, after[s].LatSamples, before[s].QualSamples, after[s].QualSamples)
		}
	}
}
