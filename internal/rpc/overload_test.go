package rpc

import (
	"context"
	"errors"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"cottage/internal/faults"
	"cottage/internal/obs"
	"cottage/internal/overload"
	"cottage/internal/search"
)

func TestValidateRequest(t *testing.T) {
	longTerm := strings.Repeat("x", MaxTermLen+1)
	manyTerms := make([]string, MaxTerms+1)
	for i := range manyTerms {
		manyTerms[i] = "t"
	}
	cases := []struct {
		name string
		req  Request
		ok   bool
	}{
		{"search ok", Request{Kind: KindSearch, Terms: []string{"ga"}, K: 10}, true},
		{"two terms ok", Request{Kind: KindSearch, Terms: []string{"a", "b"}, K: 5}, true},
		{"ping with zero K", Request{Kind: KindPing}, true},
		{"predict with zero K", Request{Kind: KindPredict, Terms: []string{"ga"}}, true},
		{"search zero K", Request{Kind: KindSearch, Terms: []string{"ga"}}, false},
		{"search negative K", Request{Kind: KindSearch, Terms: []string{"ga"}, K: -3}, false},
		{"two terms zero K", Request{Kind: KindSearch, Terms: []string{"ga", "gb"}}, false},
		{"absurd K", Request{Kind: KindSearch, Terms: []string{"ga"}, K: MaxK + 1}, false},
		{"max K ok", Request{Kind: KindSearch, Terms: []string{"ga"}, K: MaxK}, true},
		{"too many terms", Request{Kind: KindPredict, Terms: manyTerms}, false},
		{"giant term", Request{Kind: KindSearch, Terms: []string{longTerm}, K: 5}, false},
		{"negative deadline", Request{Kind: KindSearch, Terms: []string{"ga"}, K: 5, DeadlineUS: -1}, false},
		{"unknown kind", Request{Kind: Kind(99), K: 5}, false},
	}
	for _, c := range cases {
		err := ValidateRequest(&c.req)
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok {
			if err == nil {
				t.Errorf("%s: expected rejection", c.name)
			} else if !errors.Is(err, ErrBadRequest) {
				t.Errorf("%s: error %v not wrapped in ErrBadRequest", c.name, err)
			}
		}
	}
	// Kind 3 was the phrase verb: it stays reserved, and refused. Kinds
	// travel as integers, so the verb after it keeps its number.
	if KindFetchShard != 4 {
		t.Errorf("KindFetchShard = %d, want 4", KindFetchShard)
	}
	if err := ValidateRequest(&Request{Kind: 3, K: 5}); !errors.Is(err, ErrBadRequest) ||
		!strings.Contains(err.Error(), "unknown request kind 3") {
		t.Errorf("kind 3: error %v is not a bad request naming the unknown kind", err)
	}
}

// TestBadRequestOverWire: a validation failure is an application error —
// not retried, and the connection survives for the next request.
func TestBadRequestOverWire(t *testing.T) {
	sh := buildShard(t, 31)
	addr, stop := startServer(t, sh, nil)
	defer stop()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Search([]string{"ga"}, 0, 0) // K=0: rejected server-side
	if err == nil {
		t.Fatal("absurd request should be rejected")
	}
	if IsTransient(err) {
		t.Fatalf("validation failure must not be transient (got %v)", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("connection broken after bad request: %v", err)
	}
	if _, err := c.Search([]string{"ga"}, 5, 0); err != nil {
		t.Fatalf("valid search after bad request: %v", err)
	}
}

// TestServerShedsWhenSaturated: with every slot held and no queue, a
// search comes back ErrOverloaded without marking the connection broken
// or counting as served.
func TestServerShedsWhenSaturated(t *testing.T) {
	sh := buildShard(t, 32)
	lim := overload.NewLimiter(1, 0, nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{Shard: sh, Strategy: search.StrategyMaxScore, Limit: lim}
	go srv.Serve(l)
	defer l.Close()

	if err := lim.Acquire(0); err != nil { // hold the only slot
		t.Fatal(err)
	}
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Search([]string{"ga"}, 5, 0)
	if !IsOverloaded(err) {
		t.Fatalf("saturated server returned %v, want ErrOverloaded", err)
	}
	if !IsTransient(err) {
		t.Fatal("overload must be transient (retryable), not an app error")
	}
	if c.Broken() {
		t.Fatal("overload response must not break the connection")
	}
	if got := srv.Shed(); got != 1 {
		t.Fatalf("server shed counter = %d, want 1", got)
	}
	if got := srv.Served(); got != 0 {
		t.Fatalf("server served counter = %d, want 0", got)
	}

	lim.Release()
	if _, err := c.Search([]string{"ga"}, 5, 0); err != nil {
		t.Fatalf("search after release: %v", err)
	}
	if got := srv.Served(); got != 1 {
		t.Fatalf("served counter = %d, want 1", got)
	}
}

// TestOverloadedRetriesAndSucceeds: the client's retry loop absorbs a
// transient overload — shed first, admitted on a later attempt.
func TestOverloadedRetriesAndSucceeds(t *testing.T) {
	sh := buildShard(t, 33)
	lim := overload.NewLimiter(1, 0, nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{Shard: sh, Strategy: search.StrategyMaxScore, Limit: lim}
	go srv.Serve(l)
	defer l.Close()

	if err := lim.Acquire(0); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(30 * time.Millisecond)
		lim.Release()
	}()
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetRetryPolicy(RetryPolicy{Max: 8})
	if _, err := c.Search([]string{"ga"}, 5, 0); err != nil {
		t.Fatalf("retries should outlast the overload: %v", err)
	}
	if c.Retries() == 0 {
		t.Fatal("expected at least one retry")
	}
}

// TestQueuedRequestServedInOrder: with queue capacity, a request issued
// against a saturated server waits (instead of being shed) and is served
// once the slot frees — no retry needed.
func TestQueuedRequestServedInOrder(t *testing.T) {
	sh := buildShard(t, 34)
	lim := overload.NewLimiter(1, 4, nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{Shard: sh, Strategy: search.StrategyMaxScore, Limit: lim}
	go srv.Serve(l)
	defer l.Close()

	if err := lim.Acquire(0); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(30 * time.Millisecond)
		lim.Release()
	}()
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	if _, err := c.Search([]string{"ga"}, 5, 0); err != nil {
		t.Fatalf("queued search failed: %v", err)
	}
	if time.Since(start) < 20*time.Millisecond {
		t.Fatal("request should have waited in the admission queue")
	}
	if c.Retries() != 0 {
		t.Fatal("queued admission must not burn retries")
	}
}

// TestQueueWaitSpendsTheBudget: an admitted request's budget runs from
// its arrival, not from the moment the limiter let it in. The only slot is
// held while a leg with a 30 ms budget queues for 60 ms (the limiter reads
// a clock that stands still, so it does not shed the leg itself). Once
// admitted, an anytime leg must find its deadline already behind it and
// come back terminated before visiting a single range, and a plain leg
// must report the deadline — a budget restarted at admission would serve
// both in full, as if on time.
func TestQueueWaitSpendsTheBudget(t *testing.T) {
	const budget = 30 * time.Millisecond
	sh := buildShard(t, 36)
	lim := overload.NewLimiter(1, 4, overload.NewManualClock(time.Unix(0, 0)))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{Shard: sh, Strategy: search.StrategyMaxScore, Limit: lim}
	go srv.Serve(l)
	defer l.Close()
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// queued runs call while the slot is held, and releases the slot only
	// after the call has sat in the admission queue for twice its budget.
	queued := func(call func()) {
		t.Helper()
		if err := lim.Acquire(0); err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			call()
		}()
		for lim.Stats().Queued == 0 {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(2 * budget)
		lim.Release()
		<-done
	}

	queued(func() {
		r, _, err := c.searchCall(obs.SpanContext{}, []string{"ga"}, 5, budget, true)
		if err != nil {
			t.Errorf("queued anytime leg: %v", err)
			return
		}
		if !r.Terminated || r.Stats.DocsScored != 0 {
			t.Errorf("queued anytime leg was given a fresh budget: terminated %v after scoring %d documents",
				r.Terminated, r.Stats.DocsScored)
		}
	})
	queued(func() {
		_, err := c.Search([]string{"ga"}, 5, budget)
		if err == nil || !strings.Contains(err.Error(), "deadline exceeded") {
			t.Errorf("queued plain leg that overran its budget returned %v, want deadline exceeded", err)
		}
	})
	// Neither was shed: both were admitted and answered for.
	if got := srv.Shed(); got != 0 {
		t.Errorf("server shed %d requests, want 0", got)
	}
}

// TestShutdownDrains: Shutdown waits for the in-flight request (a
// fault-injected slow prediction) to finish, Serve returns nil, and the
// in-flight caller still gets its response.
func TestShutdownDrains(t *testing.T) {
	sh := buildShard(t, 35)
	inj := faults.NewInjector(7)
	inj.SetPlan(0, faults.Plan{SlowMS: 250})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{Shard: sh, Strategy: search.StrategyMaxScore, Faults: inj, FaultISN: 0}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()

	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}

	predictDone := make(chan error, 1)
	go func() {
		_, _, err := c.PredictLoad([]string{"ga"}) // ~250ms in-flight, then app error (no model)
		predictDone <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the predict reach the server

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond {
		t.Fatalf("Shutdown returned in %v, should have drained the in-flight request", elapsed)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve after Shutdown = %v, want nil", err)
	}
	err = <-predictDone
	if err == nil || IsTransient(err) {
		t.Fatalf("in-flight predict should drain to its (application) response, got %v", err)
	}
	// New connections are refused after shutdown.
	if c2, err := Dial(l.Addr().String()); err == nil {
		c2.Close()
		t.Fatal("dial after Shutdown should fail")
	}
}

// TestShutdownForceClosesOnExpiredContext: a request slower than the
// drain window is cut off and Shutdown reports the context error.
func TestShutdownForceClosesOnExpiredContext(t *testing.T) {
	sh := buildShard(t, 36)
	inj := faults.NewInjector(8)
	inj.SetPlan(0, faults.Plan{SlowMS: 2000})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{Shard: sh, Strategy: search.StrategyMaxScore, Faults: inj, FaultISN: 0}
	go srv.Serve(l)

	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	go c.PredictLoad([]string{"ga"}) //nolint:errcheck // response is cut off by design
	time.Sleep(50 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
	}
}

// tempErr satisfies net.Error with Temporary() == true.
type tempErr struct{}

func (tempErr) Error() string   { return "temporary accept failure" }
func (tempErr) Timeout() bool   { return false }
func (tempErr) Temporary() bool { return true }

// flakyListener fails its first N Accepts with a temporary error.
type flakyListener struct {
	net.Listener
	mu    sync.Mutex
	fails int
}

func (f *flakyListener) Accept() (net.Conn, error) {
	f.mu.Lock()
	if f.fails > 0 {
		f.fails--
		f.mu.Unlock()
		return nil, tempErr{}
	}
	f.mu.Unlock()
	return f.Listener.Accept()
}

// TestServeRetriesTemporaryAcceptErrors: transient Accept failures are
// backed off and retried; the server keeps serving, and Shutdown still
// ends Serve with nil.
func TestServeRetriesTemporaryAcceptErrors(t *testing.T) {
	sh := buildShard(t, 37)
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := &flakyListener{Listener: inner, fails: 3}
	srv := &Server{Shard: sh, Strategy: search.StrategyMaxScore}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()

	c, err := Dial(inner.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatalf("server should survive temporary accept errors: %v", err)
	}
	l.mu.Lock()
	remaining := l.fails
	l.mu.Unlock()
	if remaining != 0 {
		t.Fatalf("%d temporary errors not consumed", remaining)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve = %v, want nil after Shutdown", err)
	}
}

// TestOverloadStress drives a saturated server from concurrent clients
// (run under -race via `make race`): every request is either served or
// shed — none lost, none double-served — and the handler goroutines all
// exit afterwards (no pile-up).
func TestOverloadStress(t *testing.T) {
	sh := buildShard(t, 38)
	lim := overload.NewLimiter(2, 2, nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{Shard: sh, Strategy: search.StrategyMaxScore, Limit: lim}
	go srv.Serve(l)

	baseline := runtime.NumGoroutine()
	const clients = 8
	const perClient = 30
	var ok, overloaded atomic64
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			c, err := Dial(l.Addr().String())
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer c.Close()
			for i := 0; i < perClient; i++ {
				_, err := c.Search([]string{"ga", "gb"}, 5, 0)
				switch {
				case err == nil:
					ok.add(1)
				case IsOverloaded(err):
					overloaded.add(1)
				default:
					t.Errorf("unexpected error: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	total := ok.load() + overloaded.load()
	if total != clients*perClient {
		t.Fatalf("%d responses for %d requests (lost or duplicated)", total, clients*perClient)
	}
	if srv.Served() != ok.load() {
		t.Fatalf("server served %d, clients saw %d successes", srv.Served(), ok.load())
	}
	if srv.Shed() != overloaded.load() {
		t.Fatalf("server shed %d, clients saw %d overloads", srv.Shed(), overloaded.load())
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown after stress: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline+4 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine pile-up: %d now vs %d baseline", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
	st := lim.Stats()
	if st.Inflight != 0 || st.Queued != 0 {
		t.Fatalf("limiter not drained after stress: %+v", st)
	}
}

// TestExhaustiveSkipsOpenBreaker: an ISN with an open breaker is skipped
// outright — reported failed, no time burned dialing it — and the other
// ISNs still answer.
func TestExhaustiveSkipsOpenBreaker(t *testing.T) {
	sh := buildShard(t, 39)
	addr, stop := startServer(t, sh, nil)
	defer stop()
	ca, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ca.Close()
	cb := Offline("127.0.0.1:1") // never reachable
	agg := NewAggregator([]*Client{ca, cb}, 10)
	agg.EnableBreakers(1, time.Minute)
	agg.Breakers[1].OnFailure() // force ISN 1's breaker open

	start := time.Now()
	res, err := agg.SearchExhaustive([]string{"ga"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 1 || res.Failed[0] != 1 {
		t.Fatalf("Failed = %v, want [1]", res.Failed)
	}
	if len(res.Hits) == 0 {
		t.Fatal("healthy ISN should still deliver hits")
	}
	// Skipping must be immediate — no dial timeout burned on ISN 1.
	if time.Since(start) > 500*time.Millisecond {
		t.Fatal("open breaker should short-circuit, not dial")
	}
}

// TestBreakerOpensAndProberRevives is the full recovery loop: transport
// failures open the breaker, the dead ISN restarts, and the background
// prober revives it within a probe interval — after which queries stop
// reporting it failed.
func TestBreakerOpensAndProberRevives(t *testing.T) {
	shA := buildShard(t, 40)
	shB := buildShard(t, 41)
	addrA, stopA := startServer(t, shA, nil)
	defer stopA()
	lB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srvB := &Server{Shard: shB, Strategy: search.StrategyMaxScore}
	go srvB.Serve(lB)
	addrB := lB.Addr().String()

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
	for _, c := range []*Client{ca, cb} {
		c.SetTimeout(time.Second)
	}
	agg := NewAggregator([]*Client{ca, cb}, 10)
	agg.EnableBreakers(2, 50*time.Millisecond)

	// Kill B; two failed fan-outs trip its breaker.
	lB.Close()
	cb.Close()
	for i := 0; i < 2; i++ {
		if _, err := agg.SearchExhaustive([]string{"ga"}); err != nil {
			t.Fatal(err)
		}
	}
	if st := agg.Breakers[1].State(); st != overload.Open {
		t.Fatalf("breaker state = %v, want open after consecutive failures", st)
	}

	// Restart B on the same address and let the prober bring it back.
	lB2, err := net.Listen("tcp", addrB)
	if err != nil {
		t.Fatalf("relisten on %s: %v", addrB, err)
	}
	defer lB2.Close()
	go (&Server{Shard: shB, Strategy: search.StrategyMaxScore}).Serve(lB2)

	prober := agg.StartProber(25 * time.Millisecond)
	defer agg.StopProber()
	deadline := time.Now().Add(3 * time.Second)
	for agg.Breakers[1].State() != overload.Closed {
		if time.Now().After(deadline) {
			t.Fatal("prober did not revive the restarted ISN")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, revived := prober.Stats(); revived == 0 {
		t.Fatal("prober stats should count the revival")
	}
	res, err := agg.SearchExhaustive([]string{"ga"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 0 {
		t.Fatalf("revived fleet still reports failures: %v", res.Failed)
	}
}

// TestPredictCarriesQueueDepth: KindPredict responses report the
// admission queue's occupancy, which the aggregator folds into Eq. 2.
func TestPredictCarriesQueueDepth(t *testing.T) {
	if testing.Short() {
		t.Skip("trains predictors")
	}
	shards, fleet, qs := distributedFixture(t)
	lim := overload.NewLimiter(4, 8, nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{Shard: shards[0], Pred: fleet.Predictors[0],
		Strategy: search.StrategyMaxScore, Limit: lim}
	go srv.Serve(l)
	defer l.Close()

	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	terms := qs[0].Terms

	// Idle: no backlog reported.
	_, load, err := c.PredictLoad(terms)
	if err != nil {
		t.Fatal(err)
	}
	if load.Depth != 0 {
		t.Fatalf("idle queue depth = %d, want 0", load.Depth)
	}

	// A served search seeds the service-time EWMA.
	if _, err := c.Search(terms, 10, 0); err != nil {
		t.Fatal(err)
	}

	// Hold two slots: depth 2 must be visible to the next predict.
	for i := 0; i < 2; i++ {
		if err := lim.Acquire(0); err != nil {
			t.Fatal(err)
		}
	}
	_, load, err = c.PredictLoad(terms)
	if err != nil {
		t.Fatal(err)
	}
	if load.Depth != 2 {
		t.Fatalf("queue depth = %d, want 2", load.Depth)
	}
	if load.AvgServiceUS <= 0 {
		t.Fatalf("avg service = %d, want positive after a served search", load.AvgServiceUS)
	}
	lim.Release()
	lim.Release()
}

// atomic64 is a tiny counter for the stress test (keeps the imports
// honest without pulling in sync/atomic wrappers everywhere).
type atomic64 struct {
	mu sync.Mutex
	v  uint64
}

func (a *atomic64) add(d uint64) { a.mu.Lock(); a.v += d; a.mu.Unlock() }
func (a *atomic64) load() uint64 { a.mu.Lock(); defer a.mu.Unlock(); return a.v }
