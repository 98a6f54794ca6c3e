package core

import (
	"cottage/internal/engine"
	"cottage/internal/search"
	"cottage/internal/trace"
)

// CottageOracle is Cottage with *perfect* quality predictions: it reads
// each ISN's true top-K/top-K/2 contributions from pre-evaluated ground
// truth instead of the neural models (latency prediction stays neural).
// It deliberately cheats and exists only as an analysis tool: the gap
// between CottageOracle and Cottage isolates how much of the remaining
// distance to the paper's operating point (6.81 active ISNs, lowest
// power) is predictor error rather than framework design.
type CottageOracle struct {
	// truthK[queryID][isn] is the true top-K contribution; truthK2
	// likewise for top-K/2.
	truthK  map[int][]int
	truthK2 map[int][]int
	inner   *Cottage
}

// NewCottageOracle precomputes ground-truth contributions for evs.
func NewCottageOracle(e *engine.Engine, evs []*engine.Evaluated) *CottageOracle {
	o := &CottageOracle{
		truthK:  make(map[int][]int, len(evs)),
		truthK2: make(map[int][]int, len(evs)),
		inner:   NewCottage(),
	}
	for _, ev := range evs {
		lists := make([][]search.Hit, len(ev.PerShard))
		for si := range ev.PerShard {
			lists[si] = ev.PerShard[si].Hits
		}
		inK2 := search.Merge(e.K/2, lists...)
		k := make([]int, len(ev.PerShard))
		k2 := make([]int, len(ev.PerShard))
		for si := range ev.PerShard {
			k[si] = search.CountIn(ev.PerShard[si].Hits, ev.TopK)
			k2[si] = search.CountIn(ev.PerShard[si].Hits, inK2)
		}
		o.truthK[ev.Query.ID] = k
		o.truthK2[ev.Query.ID] = k2
	}
	return o
}

// Name implements engine.Policy.
func (*CottageOracle) Name() string { return "cottage-oracle" }

// Decide implements engine.Policy.
func (o *CottageOracle) Decide(e *engine.Engine, q trace.Query, nowMS float64) engine.Decision {
	if e.Fleet == nil {
		panic("core: CottageOracle requires a trained fleet for latency prediction")
	}
	qk, ok := o.truthK[q.ID]
	if !ok {
		panic("core: CottageOracle used on a query it was not built for")
	}
	qk2 := o.truthK2[q.ID]
	preds := e.Predictions(q)
	reports := make([]ISNReport, 0, len(preds))
	for isn, p := range preds {
		if !p.Matched {
			continue
		}
		truth := quality{qk: qk[isn], qk2: qk2[isn], hasK: qk[isn] > 0, hasK2: qk2[isn] > 0, expQK: float64(qk[isn])}
		row, queueMS := servingQueue(e, isn, nowMS)
		reports = reports[:len(reports)+1]
		newReport(&reports[len(reports)-1], isn, truth, p.Cycles, o.inner.LatencyMargin, queueMS, row, e.Cluster.Ladder)
	}
	db, buf := decisionBufs(e)
	return o.inner.decideFromReports(e, reports, db, buf)
}
