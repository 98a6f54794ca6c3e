package main

import (
	"bytes"
	"encoding/gob"
	"time"

	"cottage/internal/baselines"
	"cottage/internal/core"
	"cottage/internal/engine"
	"cottage/internal/index"
	"cottage/internal/obs"
	"cottage/internal/obs/anatomy"
	"cottage/internal/overload"
	"cottage/internal/rpc"
	"cottage/internal/stats"
)

// probeQueries is how many trace queries each probe below works through.
const probeQueries = 200

// obsPass sizes what attaching the observer costs. A second aggregator
// over the same connections gets obs.Observer and anatomy.Collector
// through its public fields; queries alternate between it and the plain
// aggregator (swapping who goes first, so neither always finds the
// caches warm), and the anatomy report says how much of the wall clock
// the named phases explain.
func (r *runner) obsPass(d time.Duration, m measured) {
	f := r.f
	observer := obs.NewObserver(f.w.shards, 256)
	collector := anatomy.NewCollector(4096)
	observed := rpc.NewAggregator(f.clients, topK)
	observed.Obs, observed.Anatomy = observer, collector

	var plainUS, obsUS []float64
	timeOne := func(agg *rpc.Aggregator, qi int) float64 {
		start := time.Now()
		res, err := searchVia(agg, f.w.exhaustive, f.queries[qi].Terms)
		us := float64(time.Since(start).Nanoseconds()) / 1000
		r.ck.observe(qi, &res, err)
		return us
	}
	for n, start := 0, time.Now(); n < 50 || time.Since(start) < d; n++ {
		qi := n % len(f.queries)
		if n%2 == 0 {
			plainUS = append(plainUS, timeOne(f.agg, qi))
			obsUS = append(obsUS, timeOne(observed, qi))
		} else {
			obsUS = append(obsUS, timeOne(observed, qi))
			plainUS = append(plainUS, timeOne(f.agg, qi))
		}
	}
	m["obs.overhead_frac"] = (stats.Mean(obsUS) - stats.Mean(plainUS)) / stats.Mean(plainUS)

	rep := collector.Report()
	m["obs.coverage_frac"] = rep.MeanCoverage
	for _, p := range rep.Phases {
		if _, listed := perLayerUnits["obs.phase."+p.Phase+"_us"]; listed {
			m["obs.phase."+p.Phase+"_us"] = p.MeanMS * 1000
		}
	}

	traces := observer.Traces.Recent(0)
	const reps = 20
	start := time.Now()
	for i := 0; i < reps; i++ {
		for _, t := range traces {
			anatomy.FromTrace(t)
		}
	}
	m["obs.anatomy_from_trace_us"] = usPer(time.Since(start), reps*len(traces))
}

// probes times the layers the spans cannot: single calls too cheap to
// time one by one, and layers no query of this workload reaches.
func (r *runner) probes(evs []*engine.Evaluated, m measured) {
	f := r.f
	qs := f.queries[:min(probeQueries, len(f.queries))]

	// One Client.Ping per ISN in turn: the floor of a round trip.
	const pings = 2000
	start := time.Now()
	for i := 0; i < pings; i++ {
		if err := f.clients[i%len(f.clients)].Ping(); err != nil {
			r.ck.miss(0, "ping: "+err.Error())
		}
	}
	m["rpc.ping_rtt_us"] = usPer(time.Since(start), pings)

	r.codecProbe(m)

	// Limiter.Acquire + Release, uncontended: what turning admission on
	// would add to every search.
	const grants = 200000
	lim := overload.NewLimiter(4, 16, nil)
	start = time.Now()
	for i := 0; i < grants; i++ {
		if lim.Acquire(0) == nil {
			lim.Release()
		}
	}
	m["overload.acquire_ns"] = float64(time.Since(start).Nanoseconds()) / grants

	// Decoding every block of every list the queries touch.
	var docs, tfs [index.BlockSize]uint32
	postings := 0
	start = time.Now()
	for _, q := range qs {
		for _, sh := range f.eng.Shards {
			for _, t := range q.Terms {
				ti, ok := sh.Lookup(t)
				if !ok {
					continue
				}
				for bi := 0; bi < ti.NumBlocks(); bi++ {
					postings += ti.DecodeBlockInto(bi, &docs, &tfs)
				}
			}
		}
	}
	m["index.decode_ns_per_posting"] = float64(time.Since(start).Nanoseconds()) / float64(max(postings, 1))

	// The twin: Cottage's report gathering (predictor inference for every
	// ISN) alone, then a whole replay under Cottage and under the
	// exhaustive policy, which has no prediction and no Algorithm 1.
	policy := core.NewCottage()
	start = time.Now()
	for _, q := range qs {
		policy.Reports(f.eng, q, 0)
	}
	m["core.reports_us"] = usPer(time.Since(start), len(qs))
	start = time.Now()
	f.eng.Run(core.NewCottage(), evs)
	m["engine.run_us_per_query"] = usPer(time.Since(start), len(evs))
	start = time.Now()
	f.eng.Run(baselines.Exhaustive{}, evs)
	m["engine.run_exh_us_per_query"] = usPer(time.Since(start), len(evs))
}

// codecProbe times gob encode plus rpc.DecodeRequest/DecodeResponse of
// captured messages over one persistent encoder/decoder pair, the way a
// connection uses them (type descriptors travel once, before the
// timing), and records the bytes each message puts on the wire under
// the frame header.
func (r *runner) codecProbe(m measured) {
	f := r.f
	var reqs []rpc.Request
	var predResps, searchResps []rpc.Response
	for i, q := range f.queries[:min(probeQueries, len(f.queries))] {
		c := f.clients[i%len(f.clients)]
		pred, load, err := c.PredictLoad(q.Terms)
		if err != nil {
			r.ck.miss(i, "codec capture: "+err.Error())
			return
		}
		got, err := c.Search(q.Terms, topK, 0)
		if err != nil {
			r.ck.miss(i, "codec capture: "+err.Error())
			return
		}
		id := uint64(i + 1)
		reqs = append(reqs, rpc.Request{Kind: rpc.KindSearch, ID: id, Terms: q.Terms, K: topK, DeadlineUS: 5000})
		predResps = append(predResps, rpc.Response{ID: id, Pred: pred, QueueDepth: load.Depth, AvgServiceUS: load.AvgServiceUS})
		searchResps = append(searchResps, rpc.Response{ID: id, Hits: got.Hits, Stats: got.Stats})
	}

	var buf bytes.Buffer
	enc, dec := gob.NewEncoder(&buf), gob.NewDecoder(&buf)
	const rounds = 20
	roundTrip := func(n int, encode func(i int) error, decode func() error) (us, bytes float64) {
		if encode(0) != nil || decode() != nil { // type descriptors
			r.ck.miss(0, "codec probe: message does not round-trip")
			return 0, 0
		}
		total := 0
		start := time.Now()
		for k := 0; k < rounds; k++ {
			for i := 0; i < n; i++ {
				if encode(i) != nil {
					r.ck.miss(i, "codec probe: encode failed")
				}
				total += buf.Len()
				if decode() != nil {
					r.ck.miss(i, "codec probe: decode failed")
				}
			}
		}
		return usPer(time.Since(start), rounds*n), float64(total) / float64(rounds*n)
	}
	decodeReq := func() error { _, err := rpc.DecodeRequest(dec); return err }
	decodeResp := func() error { _, err := rpc.DecodeResponse(dec); return err }
	m["rpc.codec_req_us"], m["rpc.wire_req_bytes"] = roundTrip(len(reqs),
		func(i int) error { return enc.Encode(&reqs[i]) }, decodeReq)
	m["rpc.codec_predict_resp_us"], m["rpc.wire_predict_resp_bytes"] = roundTrip(len(predResps),
		func(i int) error { return enc.Encode(&predResps[i]) }, decodeResp)
	m["rpc.codec_search_resp_us"], m["rpc.wire_search_resp_bytes"] = roundTrip(len(searchResps),
		func(i int) error { return enc.Encode(&searchResps[i]) }, decodeResp)
}
