package rpc

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"cottage/internal/index"
	"cottage/internal/obs"
	"cottage/internal/obs/anatomy"
	"cottage/internal/overload"
	"cottage/internal/predict"
	"cottage/internal/search"
)

// startObsServer is startServer with an observer attached, so the
// server records serve spans for traced requests.
func startObsServer(tb testing.TB, sh *index.Shard, pred *predict.ISNPredictor, o *obs.Observer) (addr string, stop func()) {
	tb.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	srv := &Server{Shard: sh, Pred: pred, Strategy: search.StrategyMaxScore, Obs: o}
	go srv.Serve(l)
	return l.Addr().String(), func() { l.Close() }
}

// TestSpanPropagation proves the trace context survives the wire: the
// injected trace/span IDs ride the wire encode/decode round trip and the
// server's span comes back parented under the client-side span.
func TestSpanPropagation(t *testing.T) {
	sh := buildShard(t, 11)
	addr, stop := startObsServer(t, sh, nil, obs.NewObserver(1, 4))
	defer stop()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sc := obs.SpanContext{Trace: obs.NewID(), Parent: obs.NewID()}
	_, spans, err := c.searchCall(sc, []string{"ga"}, 5, time.Second, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 1 {
		t.Fatalf("got %d server spans, want 1", len(spans))
	}
	sp := spans[0]
	if sp.Trace != sc.Trace {
		t.Errorf("trace ID %#x did not survive the round trip (sent %#x)", sp.Trace, sc.Trace)
	}
	if sp.Parent != sc.Parent {
		t.Errorf("server span parent %#x, want client span %#x", sp.Parent, sc.Parent)
	}
	if sp.Name != "serve.search" {
		t.Errorf("server span name %q, want serve.search", sp.Name)
	}
	if sp.ID == 0 || sp.ID == sc.Parent {
		t.Errorf("server span needs its own fresh ID, got %#x", sp.ID)
	}
	if _, ok := sp.Attrs["service_us"]; !ok {
		t.Errorf("server span missing service_us attr: %v", sp.Attrs)
	}

	// Untraced requests must stay span-free end to end.
	_, spans, err = c.searchCall(obs.SpanContext{}, []string{"ga"}, 5, time.Second, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 0 {
		t.Fatalf("untraced request returned %d spans", len(spans))
	}
}

// promLine matches one Prometheus sample line: name{labels} value.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? \S+$`)

func parsePrometheus(tb testing.TB, text string) map[string]bool {
	tb.Helper()
	families := make(map[string]bool)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			tb.Fatalf("unparseable metrics line %q", line)
		}
		val := line[strings.LastIndexByte(line, ' ')+1:]
		if _, err := strconv.ParseFloat(val, 64); err != nil {
			tb.Fatalf("bad sample value in %q: %v", line, err)
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		families[name] = true
	}
	return families
}

// TestObsSmoke is the observability gate: distributed fixture, debug
// listener, traced queries. Asserts /metrics parses and exposes the
// latency/predictor families, and that a traced Cottage query yields a
// complete span tree (predict/budget/search/merge under one root, legs
// under their phases, ISN-side serve spans grafted in, and the
// Algorithm 1 decision record on the budget span) via /debug/traces.
func TestObsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("trains predictors")
	}
	shards, fleet, qs := distributedFixture(t)
	clients := make([]*Client, len(shards))
	for i, sh := range shards {
		addr, stop := startObsServer(t, sh, fleet.Predictors[i], obs.NewObserver(1, 4))
		defer stop()
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
	}
	agg := NewAggregator(clients, 10)
	agg.Obs = obs.NewObserver(len(clients), 32)
	dbg, err := obs.StartDebug("127.0.0.1:0", agg.Obs)
	if err != nil {
		t.Fatal(err)
	}
	defer dbg.Close()

	var res Result
	var terms []string
	var resID uint64
	found := false
	for _, q := range qs[:20] {
		r, err := agg.SearchCottage(q.Terms)
		if err != nil {
			t.Fatal(err)
		}
		// A query asked in full: its trace has every predict leg.
		if len(r.Selected) > 0 && len(r.Hits) > 0 && len(r.Predicted) == len(clients) {
			res, found, terms = r, true, q.Terms
			resID = newestTrace(t, agg).ID
			break
		}
	}
	if !found {
		t.Fatal("no query produced a traced result with selected ISNs")
	}
	// The same query again: answered from the prediction memo.
	hit, err := agg.SearchCottage(terms)
	if err != nil {
		t.Fatal(err)
	}
	hitID := newestTrace(t, agg).ID
	if len(hit.Predicted) != 0 || hit.BudgetMS != res.BudgetMS {
		t.Fatalf("repeat asked %v and got budget %v (first time %v), want a memo hit with the same budget",
			hit.Predicted, hit.BudgetMS, res.BudgetMS)
	}

	get := func(path string) string {
		resp, err := http.Get("http://" + dbg.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
		return string(body)
	}

	if hz := get("/healthz"); !strings.Contains(hz, "ok") {
		t.Fatalf("/healthz = %q", hz)
	}

	families := parsePrometheus(t, get("/metrics"))
	for _, want := range []string{
		"cottage_agg_query_ms_bucket",
		"cottage_agg_query_ms_count",
		"cottage_agg_budget_ms_bucket",
		"cottage_predictor_latency_abs_err_pct",
		"cottage_predictor_quality_hit_rate",
		"cottage_agg_predict_memo_hits_total",
		"cottage_agg_predict_memo_partial_total",
		"cottage_agg_predict_memo_misses_total",
		"cottage_agg_predict_memo_evictions_total",
		"cottage_agg_predict_memo_entries",
	} {
		if !families[want] {
			t.Errorf("/metrics missing family %s (have %v)", want, families)
		}
	}

	var traces []*obs.Trace
	if err := json.Unmarshal([]byte(get("/debug/traces")), &traces); err != nil {
		t.Fatalf("/debug/traces not JSON: %v", err)
	}
	var tr, hitTr *obs.Trace
	for _, c := range traces {
		switch c.ID {
		case resID:
			tr = c
		case hitID:
			hitTr = c
		}
	}
	if tr == nil || hitTr == nil {
		t.Fatalf("traces %#x and %#x not both in /debug/traces", resID, hitID)
	}

	// The memo hit: same phases, a predict span that says so and has no
	// legs under it, and an attribution that still adds up.
	if got := hitTr.Find("predict").Attrs["memo"]; got != "hit" {
		t.Errorf("repeat's predict span has memo=%q, want hit", got)
	}
	if got := tr.Find("predict").Attrs["memo"]; got != "miss" {
		t.Errorf("first query's predict span has memo=%q, want miss", got)
	}
	for _, name := range []string{"budget", "search", "merge", "search.isn"} {
		if hitTr.Find(name) == nil {
			t.Errorf("memo-hit trace missing %s; spans: %s", name, spanNames(hitTr))
		}
	}
	if hitTr.Find("predict.isn") != nil || hitTr.Find("serve.predict") != nil {
		t.Errorf("memo-hit trace has predict legs; spans: %s", spanNames(hitTr))
	}
	if attr, ok := anatomy.FromTrace(hitTr); !ok {
		t.Error("anatomy rejects the memo-hit trace")
	} else if sum := attr.NamedMS() + attr.Phase[anatomy.PhaseOther]; math.Abs(sum-attr.TotalMS) > 1e-9 {
		t.Errorf("memo-hit trace: phases sum to %v ms of %v", sum, attr.TotalMS)
	}
	if st := agg.Stats(); st.MemoHits == 0 || st.MemoMisses == 0 {
		t.Errorf("stats %+v, want at least one memo hit and one miss", st)
	}

	root := tr.Root()
	if root == nil || root.Name != "query" {
		t.Fatalf("trace has no query root: %+v", root)
	}
	byID := make(map[uint64]*obs.Span, len(tr.Spans))
	for i := range tr.Spans {
		byID[tr.Spans[i].ID] = &tr.Spans[i]
	}
	phase := make(map[string]*obs.Span)
	for _, name := range []string{"predict", "budget", "search", "merge"} {
		sp := tr.Find(name)
		if sp == nil {
			t.Fatalf("trace missing %s phase; spans: %s", name, spanNames(tr))
		}
		if sp.Parent != root.ID {
			t.Errorf("%s span parent %#x, want root %#x", name, sp.Parent, root.ID)
		}
		phase[name] = sp
	}
	d := phase["budget"].Decision
	if d == nil {
		t.Fatal("budget span has no decision record")
	}
	if d.BudgetMS != res.BudgetMS {
		t.Errorf("decision budget %.3f != result budget %.3f", d.BudgetMS, res.BudgetMS)
	}
	if d.BudgetISN < 0 {
		t.Errorf("decision has no budget-setting ISN: %+v", d)
	}
	if len(d.Selected) != len(res.Selected) {
		t.Errorf("decision selected %v != result selected %v", d.Selected, res.Selected)
	}
	if len(d.Reports) == 0 {
		t.Error("decision record carries no per-ISN reports")
	}

	legs := map[string]int{}
	for i := range tr.Spans {
		sp := &tr.Spans[i]
		if sp.Parent != 0 {
			if _, ok := byID[sp.Parent]; !ok {
				t.Errorf("span %s has dangling parent %#x", sp.Name, sp.Parent)
			}
		}
		switch sp.Name {
		case "predict.isn":
			legs[sp.Name]++
			if sp.Parent != phase["predict"].ID {
				t.Errorf("predict.isn leg not under predict phase")
			}
		case "search.isn":
			legs[sp.Name]++
			if sp.Parent != phase["search"].ID {
				t.Errorf("search.isn leg not under search phase")
			}
		case "serve.predict", "serve.search":
			legs[sp.Name]++
			parent := byID[sp.Parent]
			if parent == nil || (parent.Name != "predict.isn" && parent.Name != "search.isn") {
				t.Errorf("%s span not grafted under a client leg", sp.Name)
			}
			if sp.ISN < 0 {
				t.Errorf("grafted %s span has no ISN", sp.Name)
			}
		}
	}
	if legs["predict.isn"] != len(clients) {
		t.Errorf("got %d predict legs, want %d", legs["predict.isn"], len(clients))
	}
	if legs["search.isn"] != len(res.Selected) {
		t.Errorf("got %d search legs, want %d", legs["search.isn"], len(res.Selected))
	}
	if legs["serve.predict"] == 0 || legs["serve.search"] == 0 {
		t.Errorf("no ISN-side serve spans grafted: %v", legs)
	}

	// The accuracy tracker saw the query: at least one selected ISN must
	// hold a latency sample.
	samples := uint64(0)
	for _, s := range agg.Obs.Acc.Snapshot() {
		samples += s.LatSamples
	}
	if samples == 0 {
		t.Error("predictor-accuracy tracker recorded no samples")
	}
}

func spanNames(tr *obs.Trace) string {
	names := make([]string, len(tr.Spans))
	for i, s := range tr.Spans {
		names[i] = fmt.Sprintf("%s<-%d", s.Name, s.Parent)
	}
	return strings.Join(names, ", ")
}

// TestLegSplitMatchesServeSpan: a live search leg carries the
// queue/service split phase attribution reads, taken from the serve span
// its reply grafted in bit for bit as anatomy.FromTrace used to derive it
// there: the span's queue_wait_us as queue, the rest of its duration as
// service. Some exhaustive queries find one ISN's only admission slot
// held for a few milliseconds (on a limiter whose clock stands still, so
// it never sheds), so their legs there really queue.
func TestLegSplitMatchesServeSpan(t *testing.T) {
	isns, qs := memoFleet(t, func(_ int, srv *Server, l net.Listener) net.Listener {
		srv.Obs = obs.NewObserver(1, 4)
		srv.Limit = overload.NewLimiter(1, 4, overload.NewManualClock(time.Unix(0, 0)))
		srv.initObs() // registers the limiter here, not in Serve while the test holds its slot
		return l
	})
	agg := NewAggregator(dialFleet(t, isns), 10)
	agg.Obs = obs.NewObserver(len(isns), 64)
	for i, q := range qs[:8] {
		lim := isns[i%len(isns)].srv.Limit
		if err := lim.Acquire(0); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := agg.SearchExhaustive(q.Terms)
			done <- err
		}()
		for lim.Stats().Queued == 0 {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(3 * time.Millisecond)
		lim.Release()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		mustCottage(t, agg, q.Terms)
	}
	attrF := func(sp *obs.Span, key string) float64 {
		f, err := strconv.ParseFloat(sp.Attrs[key], 64)
		if err != nil || f < 0 {
			return 0
		}
		return f
	}
	legs, queued := 0, 0
	for _, tr := range agg.Obs.Traces.Recent(0) {
		for i := range tr.Spans {
			leg := &tr.Spans[i]
			if leg.Name != "search.isn" {
				continue
			}
			var serve *obs.Span
			for j := range tr.Spans {
				if tr.Spans[j].Parent == leg.ID && tr.Spans[j].Name == "serve.search" {
					serve = &tr.Spans[j]
				}
			}
			if serve == nil {
				t.Fatalf("trace %#x: leg on ISN %d has no grafted serve span", tr.ID, leg.ISN)
			}
			queue := attrF(serve, "queue_wait_us") / 1000
			service := float64(serve.DurUS)/1000 - queue
			if service < 0 {
				service = 0
			}
			if q, s := attrF(leg, "queue_ms"), attrF(leg, "service_ms"); math.Float64bits(q) != math.Float64bits(queue) ||
				math.Float64bits(s) != math.Float64bits(service) {
				t.Errorf("trace %#x ISN %d: leg split %v/%v ms, serve span says %v/%v", tr.ID, leg.ISN, q, s, queue, service)
			}
			legs++
			if queue > 0 {
				queued++
			}
		}
	}
	if legs == 0 || queued == 0 {
		t.Fatalf("%d traced search legs, %d of them queued; want some of each", legs, queued)
	}
}
