// Distributed deployment demo: the coordination protocol on real TCP
// sockets. Spins up four in-process ISN servers on localhost, trains
// their predictors, then runs queries through both the exhaustive and the
// Cottage protocol via the wire aggregator, reporting wall-clock latency
// and result overlap.
//
// (For separate processes, use cmd/cottage-indexer, cmd/cottage-server
// and cmd/cottage-client — this example keeps everything in one binary so
// it runs with `go run`.)
package main

import (
	"fmt"
	"log"
	"net"
	"strings"

	"cottage/internal/cluster"
	"cottage/internal/index"
	"cottage/internal/predict"
	"cottage/internal/rpc"
	"cottage/internal/search"
	"cottage/internal/textgen"
	"cottage/internal/trace"
)

func main() {
	log.SetFlags(0)

	// Build 4 shards and train their predictors.
	corpusCfg := textgen.DefaultConfig()
	corpusCfg.NumDocs = 4000
	corpusCfg.VocabSize = 4000
	corpusCfg.NumTopics = 16
	corpus := textgen.Generate(corpusCfg)
	alloc := corpus.AllocateTopical(4, 2, 0.15, 1)
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
	queries := trace.Generate(corpus, trace.Config{Kind: trace.Wikipedia, Seed: 4, NumQueries: 400, QPS: 50})
	log.Println("training per-ISN predictors...")
	ds := predict.Harvest(shards, queries[:300], 10, search.StrategyMaxScore, cluster.DefaultCostModel())
	pcfg := predict.DefaultConfig(10)
	pcfg.QualitySteps = 200
	pcfg.LatencySteps = 100
	fleet, err := predict.Train(ds, pcfg)
	if err != nil {
		log.Fatal(err)
	}

	// Launch one TCP server per ISN and dial them.
	clients := make([]*rpc.Client, len(shards))
	for i, sh := range shards {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		defer l.Close()
		srv := &rpc.Server{Shard: sh, Pred: fleet.Predictors[i], Strategy: search.StrategyMaxScore}
		go srv.Serve(l)
		c, err := rpc.Dial(l.Addr().String())
		if err != nil {
			log.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
		log.Printf("ISN %d serving on %s (%d docs)", i, l.Addr(), sh.NumDocs)
	}

	agg := rpc.NewAggregator(clients, 10)
	fmt.Printf("\n%-32s %8s %8s %8s %9s\n", "query", "exh us", "cot us", "ISNs", "overlap")
	var sumOverlap float64
	n := 0
	for _, q := range queries[300:330] {
		exh, err := agg.SearchExhaustive(q.Terms)
		if err != nil {
			log.Fatal(err)
		}
		cot, err := agg.SearchCottage(q.Terms)
		if err != nil {
			log.Fatal(err)
		}
		overlap := 1.0
		if len(exh.Hits) > 0 {
			overlap = float64(search.CountIn(cot.Hits, exh.Hits)) / float64(len(exh.Hits))
		}
		sumOverlap += overlap
		n++
		fmt.Printf("%-32s %8d %8d %8d %9.2f\n",
			strings.Join(q.Terms, " "), exh.Elapsed.Microseconds(), cot.Elapsed.Microseconds(),
			len(cot.Selected), overlap)
	}
	fmt.Printf("\nmean overlap with exhaustive top-10: %.3f over %d queries\n", sumOverlap/float64(n), n)
}
