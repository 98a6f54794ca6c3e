package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"

	"cottage/internal/index"
	"cottage/internal/par"
	"cottage/internal/rpc"
	"cottage/internal/search"
	"cottage/internal/trace"
)

// minPAt10 is the quality floor of the output check.
const minPAt10 = 0.85

// truth is the in-process ground truth of one evaluation trace:
// search.Eval(StrategyExhaustive) on every shard, merged with
// search.Merge. It never touches a socket.
type truth struct {
	perShard [][][]search.Hit // [query][shard] exact local top-K
	top      [][]search.Hit   // [query] exact global top-K
}

func groundTruth(shards []*index.Shard, qs []trace.Query) *truth {
	t := &truth{perShard: make([][][]search.Hit, len(qs)), top: make([][]search.Hit, len(qs))}
	par.For(len(qs), func(qi int) {
		lists := make([][]search.Hit, len(shards))
		for si, sh := range shards {
			lists[si] = search.Eval(search.StrategyExhaustive, sh, qs[qi].Terms, topK).Hits
		}
		t.perShard[qi] = lists
		t.top[qi] = search.Merge(topK, lists...)
	})
	return t
}

// checker verifies every answer the fleet gives against the ground
// truth and keeps, per trace query, the first answer seen: quality and
// decision metrics are means over the trace, so they do not depend on
// how many times the phases happened to cycle through it.
type checker struct {
	t          *truth
	shards     int
	exhaustive bool

	attempted, failed, dropped, wrong int
	firstWrong, firstFailed           string

	// first is, per trace query, its first complete answer.
	first []answer
}

// answer is what the quality and decision metrics keep of one answer.
type answer struct {
	seen     bool
	pAt10    float64
	selected []int
	budgetMS float64
}

func newChecker(t *truth, shards int, exhaustive bool) *checker {
	return &checker{t: t, shards: shards, exhaustive: exhaustive, first: make([]answer, len(t.top))}
}

// observe checks one answer to trace query qi. A query that returned
// an error — or, with no budget to miss, lost a shard — counts as
// failed. Under Cottage an ISN listed in Result.Failed missed the time
// budget: that is the protocol's designed degradation (the twin counts
// it as a dropped ISN, not a failed one), so the query counts as
// dropped, and its answer must still be exactly what the shards that
// did answer merge to.
func (c *checker) observe(qi int, res *rpc.Result, err error) {
	c.attempted++
	if err != nil || (c.exhaustive && len(res.Failed) > 0) {
		c.failed++
		if c.firstFailed == "" {
			c.firstFailed = fmt.Sprintf("query %d: error %v, failed ISNs %v", qi, err, res.Failed)
		}
		return
	}
	if len(res.Failed) > 0 {
		c.dropped++
	}
	if c.exhaustive && len(res.Selected) != c.shards {
		c.miss(qi, fmt.Sprintf("exhaustive searched %d of %d ISNs", len(res.Selected), c.shards))
		return
	}
	lists := make([][]search.Hit, 0, len(res.Selected))
	for _, s := range res.Selected {
		if s < 0 || s >= c.shards {
			c.miss(qi, fmt.Sprintf("selected ISN %d out of range", s))
			return
		}
		if !slices.Contains(res.Failed, s) {
			lists = append(lists, c.t.perShard[qi][s])
		}
	}
	// The answer must be exactly what the searched shards' exact top-Ks
	// merge to (so Cottage's is a subset of the union of all shards'
	// top-Ks); the exhaustive answer is then the global ground truth,
	// document for document and score for score.
	want := search.Merge(topK, lists...)
	if !sameHits(res.Hits, want) {
		c.miss(qi, fmt.Sprintf("hits %v, want %v", res.Hits, want))
		return
	}
	// Quality and decisions are recorded from the first complete answer,
	// so they describe the protocol and not the load it happened to be
	// under.
	if c.first[qi].seen || len(res.Failed) > 0 {
		return
	}
	c.first[qi] = answer{seen: true, pAt10: precision(res.Hits, c.t.top[qi]),
		selected: res.Selected, budgetMS: res.BudgetMS}
}

// lost counts a query that never completed.
func (c *checker) lost() {
	c.attempted++
	c.failed++
}

func (c *checker) miss(qi int, what string) {
	c.wrong++
	if c.firstWrong == "" {
		c.firstWrong = fmt.Sprintf("query %d: %s", qi, what)
	}
}

// unseen lists the trace queries no phase has answered yet.
func (c *checker) unseen() []int {
	var out []int
	for qi, a := range c.first {
		if !a.seen {
			out = append(out, qi)
		}
	}
	return out
}

// quality is the trace's mean P@10, mean share of ISNs searched, and a
// digest of every decision (Selected, BudgetMS) in trace order.
func (c *checker) quality() (pAt10, isnFrac float64, digest string) {
	h := fnv.New64a()
	var buf [8]byte
	n := 0
	for qi, a := range c.first {
		if !a.seen {
			continue
		}
		n++
		pAt10 += a.pAt10
		isnFrac += float64(len(a.selected)) / float64(c.shards)
		binary.LittleEndian.PutUint64(buf[:], uint64(qi))
		h.Write(buf[:])
		for _, s := range a.selected {
			binary.LittleEndian.PutUint64(buf[:], uint64(s))
			h.Write(buf[:])
		}
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(a.budgetMS))
		h.Write(buf[:])
	}
	if n == 0 {
		return 0, 0, ""
	}
	return pAt10 / float64(n), isnFrac / float64(n), fmt.Sprintf("%016x", h.Sum64())
}

func sameHits(a, b []search.Hit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Doc != b[i].Doc || a[i].Score != b[i].Score {
			return false
		}
	}
	return true
}

// precision is the overlap of got with the exact top-K, as a share of
// the exact top-K (1 when the query matches nothing anywhere), the way
// engine.Outcome.PAtK counts it.
func precision(got, want []search.Hit) float64 {
	if len(want) == 0 {
		return 1
	}
	return float64(search.Overlap(got, search.DocSet(want))) / float64(len(want))
}
