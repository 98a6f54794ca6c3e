package rpc

import (
	"net"
	"testing"
	"time"

	"cottage/internal/cluster"
	"cottage/internal/index"
	"cottage/internal/obs"
	"cottage/internal/predict"
	"cottage/internal/search"
	"cottage/internal/textgen"
	"cottage/internal/trace"
	"cottage/internal/xrand"
)

// startServer launches a Server for one shard on a random port.
func startServer(tb testing.TB, sh *index.Shard, pred *predict.ISNPredictor) (addr string, stop func()) {
	tb.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	srv := &Server{Shard: sh, Pred: pred, Strategy: search.StrategyMaxScore}
	go srv.Serve(l)
	return l.Addr().String(), func() { l.Close() }
}

func buildShard(tb testing.TB, seed uint64) *index.Shard {
	tb.Helper()
	b := index.NewBuilder(0, index.DefaultBM25(), 10)
	rng := xrand.New(seed)
	vocab := []string{"ga", "gb", "gc", "gd", "ge", "gf", "gg", "gh"}
	zipf := xrand.NewZipf(rng, 1.0, len(vocab))
	for d := 0; d < 500; d++ {
		terms := map[string]int{}
		n := 15 + rng.Intn(40)
		for i := 0; i < n; i++ {
			terms[vocab[zipf.Draw()]]++
		}
		b.Add(int64(d), terms, n)
	}
	return b.Finalize()
}

func TestPingAndSearch(t *testing.T) {
	sh := buildShard(t, 1)
	addr, stop := startServer(t, sh, nil)
	defer stop()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	r, err := c.Search([]string{"ga", "gb"}, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := search.MaxScore(sh, []string{"ga", "gb"}, 10)
	if len(r.Hits) != len(want.Hits) {
		t.Fatalf("remote %d hits, local %d", len(r.Hits), len(want.Hits))
	}
	for i := range r.Hits {
		if r.Hits[i].Doc != want.Hits[i].Doc || r.Hits[i].Score != want.Hits[i].Score {
			t.Fatalf("hit %d differs over the wire", i)
		}
	}
	if r.Stats.DocsScored != want.Stats.DocsScored {
		t.Error("stats lost over the wire")
	}
}

func TestPredictWithoutModel(t *testing.T) {
	sh := buildShard(t, 2)
	addr, stop := startServer(t, sh, nil)
	defer stop()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.PredictLoad([]string{"ga"}); err == nil {
		t.Fatal("predict should fail with no model loaded")
	}
	// The connection must survive the application-level error.
	if err := c.Ping(); err != nil {
		t.Fatalf("connection broken after error: %v", err)
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Fatal("expected dial failure")
	}
}

func TestConcurrentClients(t *testing.T) {
	sh := buildShard(t, 3)
	addr, stop := startServer(t, sh, nil)
	defer stop()
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			c, err := Dial(addr)
			if err != nil {
				done <- err
				return
			}
			defer c.Close()
			for i := 0; i < 25; i++ {
				if _, err := c.Search([]string{"ga"}, 5, 0); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// distributedFixture builds a small trained multi-ISN deployment.
func distributedFixture(tb testing.TB) ([]*index.Shard, *predict.Fleet, []trace.Query) {
	tb.Helper()
	ccfg := textgen.DefaultConfig()
	ccfg.NumDocs = 2400
	ccfg.VocabSize = 3000
	ccfg.NumTopics = 12
	ccfg.TopicTermCount = 100
	corpus := textgen.Generate(ccfg)
	alloc := corpus.AllocateTopical(4, 2, 0.15, 3)
	shards := make([]*index.Shard, len(alloc))
	for si, ids := range alloc {
		b := index.NewBuilder(si, index.DefaultBM25(), 10)
		for _, id := range ids {
			d := &corpus.Docs[id]
			terms := make(map[string]int, len(d.Terms))
			for tid, tf := range d.Terms {
				terms[corpus.Vocab[tid]] = tf
			}
			b.Add(int64(id), terms, d.Length)
		}
		shards[si] = b.Finalize()
	}
	qs := trace.Generate(corpus, trace.Config{Kind: trace.Wikipedia, Seed: 5, NumQueries: 260, QPS: 50})
	ds := predict.Harvest(shards, qs[:200], 10, search.StrategyMaxScore, cluster.DefaultCostModel())
	cfg := predict.DefaultConfig(10)
	cfg.QualitySteps = 150
	cfg.LatencySteps = 80
	fleet, err := predict.Train(ds, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return shards, fleet, qs[200:]
}

func TestAggregatorEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("trains predictors")
	}
	shards, fleet, qs := distributedFixture(t)
	clients := make([]*Client, len(shards))
	for i, sh := range shards {
		addr, stop := startServer(t, sh, fleet.Predictors[i])
		defer stop()
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
	}
	agg := NewAggregator(clients, 10)
	agg.Obs = obs.NewObserver(len(clients), 4)

	overlapSum, n := 0.0, 0
	for _, q := range qs[:40] {
		exh, err := agg.SearchExhaustive(q.Terms)
		if err != nil {
			t.Fatal(err)
		}
		cot, err := agg.SearchCottage(q.Terms)
		if err != nil {
			t.Fatal(err)
		}
		if len(exh.Hits) == 0 {
			continue
		}
		overlapSum += float64(search.CountIn(cot.Hits, exh.Hits)) / float64(len(exh.Hits))
		n++
		if d := newestTrace(t, agg).Find("budget").Decision; len(d.Selected)+len(d.Dropped) > len(shards) {
			t.Fatalf("selected+cut exceeds cluster: %v %v", d.Selected, d.Dropped)
		}
		if cot.Elapsed <= 0 {
			t.Fatal("no elapsed time measured")
		}
	}
	if n == 0 {
		t.Fatal("no query produced results")
	}
	if avg := overlapSum / float64(n); avg < 0.6 {
		t.Errorf("wire-protocol Cottage quality %.3f too low", avg)
	}
}

func TestClientSearchDeadlinePasses(t *testing.T) {
	sh := buildShard(t, 4)
	addr, stop := startServer(t, sh, nil)
	defer stop()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A generous deadline must not interfere.
	if _, err := c.Search([]string{"ga"}, 5, time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestReservedKindOverWire: a request of the retired phrase verb (kind 3)
// is refused as a bad request, and the connection serves the next call.
func TestReservedKindOverWire(t *testing.T) {
	addr, stop := startServer(t, buildShard(t, 9), nil)
	defer stop()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var resp Response
	if err := c.call(&Request{Kind: 3, Terms: []string{"ga", "gb"}, K: 5}, &resp); err == nil {
		t.Fatal("kind 3 was served")
	}
	if resp.Code != CodeBadRequest {
		t.Fatalf("kind 3 answered with code %d, want CodeBadRequest", resp.Code)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("connection broken after kind 3: %v", err)
	}
}

// TestDegradedResultsOnISNFailure injects a mid-run ISN failure: the
// aggregator must return degraded (partial) results from the surviving
// nodes instead of failing the query.
func TestDegradedResultsOnISNFailure(t *testing.T) {
	shA := buildShard(t, 21)
	shB := buildShard(t, 22)
	addrA, stopA := startServer(t, shA, nil)
	defer stopA()
	addrB, stopB := startServer(t, shB, nil)
	ca, err := Dial(addrA)
	if err != nil {
		t.Fatal(err)
	}
	defer ca.Close()
	cb, err := Dial(addrB)
	if err != nil {
		t.Fatal(err)
	}
	defer cb.Close()
	ca.SetTimeout(2 * time.Second)
	cb.SetTimeout(2 * time.Second)
	agg := NewAggregator([]*Client{ca, cb}, 10)

	// Healthy fan-out first.
	full, err := agg.SearchExhaustive([]string{"ga"})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Failed) != 0 || len(full.Selected) != 2 {
		t.Fatalf("healthy run reported failures: %+v", full)
	}

	// Kill ISN B and query again: degraded, not failed.
	stopB()
	cb.Close()
	part, err := agg.SearchExhaustive([]string{"ga"})
	if err != nil {
		t.Fatalf("degraded query failed outright: %v", err)
	}
	if len(part.Failed) != 1 || part.Failed[0] != 1 {
		t.Fatalf("expected ISN 1 failure, got %+v", part.Failed)
	}
	if len(part.Hits) == 0 {
		t.Fatal("surviving ISN produced no results")
	}

	// Kill ISN A too: now the query fails.
	stopA()
	ca.Close()
	if _, err := agg.SearchExhaustive([]string{"ga"}); err == nil {
		t.Fatal("all-ISN failure should error")
	}
}
