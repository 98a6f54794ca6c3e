package main

import (
	"fmt"
	"strings"

	"cottage/internal/trace"
)

// workload is one set of inputs: a fleet shape, a trace kind and the
// aggregator entry point. Everything the program under test sees is
// generated from these fields and the run's -seed.
type workload struct {
	name string
	// docs is the corpus size, split topically over shards ISNs with
	// home home-shards per topic.
	docs, shards, home int
	kind               trace.Kind
	// exhaustive drives Aggregator.SearchExhaustive (and the twin's
	// baselines.Exhaustive policy) instead of the Cottage protocol.
	exhaustive bool
	// heavy keeps only the queries whose summed posting-list length over
	// all shards is at least the generated trace's median.
	heavy bool
	// twinQPS is the arrival rate of the generated traces. Only the
	// twin reads arrival times; the rate keeps its simulated fleet around
	// a fifth busy, where its latency and power outputs are steady.
	twinQPS float64
	// rateQPS is the open loop's fixed Poisson arrival rate, frozen at
	// about 30 % of the closed-loop throughput measured when the
	// benchmark was written. It is never derived at run time: a later
	// change must face the same offered load as its parent.
	rateQPS float64
	// sloMS is the latency limit the open loop's miss fraction is
	// counted against.
	sloMS float64

	sizes
}

// sizes are the knobs the tests shrink; every real workload shares one
// value of each.
type sizes struct {
	trainQueries int // predictor training trace (seed 101)
	evalQueries  int // evaluation trace (seed = -seed)
	warmup       int // queries run through the sockets inside set-up
	tracedMax    int // cap on queries in the traced pass
	qualitySteps int
	latencySteps int
}

var defaultSizes = sizes{
	trainQueries: 900,
	evalQueries:  4000,
	warmup:       1000,
	tracedMax:    2000,
	qualitySteps: 400,
	latencySteps: 160,
}

// workloads is the benchmark's table; BENCHMARK.json carries the same
// names with the one-line reason for each.
var workloads = []workload{
	{name: "fanout16_wiki", docs: 48000, shards: 16, home: 3, kind: trace.Wikipedia, twinQPS: 45,
		rateQPS: 450, sloMS: 5, sizes: defaultSizes},
	{name: "fanout16_wiki_exh", docs: 48000, shards: 16, home: 3, kind: trace.Wikipedia, twinQPS: 45,
		exhaustive: true, rateQPS: 750, sloMS: 5, sizes: defaultSizes},
	{name: "bigshard4_heavy", docs: 160000, shards: 4, home: 1, kind: trace.Lucene, twinQPS: 5,
		heavy: true, rateQPS: 700, sloMS: 5, sizes: defaultSizes},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}
