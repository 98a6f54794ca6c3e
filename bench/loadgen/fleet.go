package main

import (
	"context"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"cottage/internal/engine"
	"cottage/internal/index"
	"cottage/internal/par"
	"cottage/internal/predict"
	"cottage/internal/rpc"
	"cottage/internal/textgen"
	"cottage/internal/trace"
)

const (
	topK          = 10
	clientTimeout = 2 * time.Second
	trainSeed     = 101
)

// fleet is one workload's system under test: N rpc.Servers on loopback
// listeners, one rpc.Client per server, the aggregator over them, and
// the virtual-time twin (engine) over the very same shards and
// predictors, so live and twin numbers are comparable.
type fleet struct {
	w         workload
	eng       *engine.Engine
	listeners []net.Listener
	servers   []*rpc.Server
	clients   []*rpc.Client
	agg       *rpc.Aggregator
	serving   sync.WaitGroup
	// queries is the evaluation trace. The program under test only ever
	// sees its terms.
	queries []trace.Query
}

// setup builds the whole fleet from nothing: corpus, shards, predictors,
// listeners, connections and a warm-up through the sockets. Its wall
// time is the benchmark's setup_s.
func setup(w workload, seed uint64) (*fleet, error) {
	cc := textgen.DefaultConfig()
	cc.NumDocs = w.docs
	corpus := textgen.Generate(cc)

	alloc := corpus.AllocateTopical(w.shards, w.home, 0.15, 5)
	shards := make([]*index.Shard, len(alloc))
	par.For(len(alloc), func(si int) {
		b := index.NewBuilder(si, index.DefaultBM25(), topK)
		for _, id := range alloc[si] {
			d := &corpus.Docs[id]
			terms := make(map[string]int, len(d.Terms))
			for tid, tf := range d.Terms {
				terms[corpus.Vocab[tid]] = tf
			}
			b.Add(int64(id), terms, d.Length)
		}
		shards[si] = b.Finalize()
	})

	train := trace.Generate(corpus, trace.Config{Kind: w.kind, Seed: trainSeed, NumQueries: w.trainQueries, QPS: w.twinQPS})
	f := &fleet{w: w, queries: evalTrace(corpus, shards, w, seed)}
	// Nothing below needs the corpus; dropping it here keeps the garbage
	// collector from scanning it for the rest of the run.
	corpus = nil

	ecfg := engine.DefaultConfig()
	ecfg.K = topK
	f.eng = engine.New(shards, ecfg)
	pcfg := predict.DefaultConfig(topK)
	pcfg.QualitySteps = w.qualitySteps
	pcfg.LatencySteps = w.latencySteps
	if _, err := f.eng.TrainFleet(train, pcfg); err != nil {
		return nil, err
	}

	for i, sh := range shards {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, fmt.Errorf("listen for ISN %d: %w", i, err)
		}
		f.listeners = append(f.listeners, l)
		srv := &rpc.Server{Shard: sh, Pred: f.eng.Fleet.Predictors[i], Strategy: ecfg.Strategy}
		f.servers = append(f.servers, srv)
		f.serving.Add(1)
		go func() {
			defer f.serving.Done()
			_ = srv.Serve(l) // returns nil once Shutdown closes l
		}()
		c, err := rpc.Dial(l.Addr().String())
		if err != nil {
			f.close()
			return nil, err
		}
		c.SetTimeout(clientTimeout)
		f.clients = append(f.clients, c)
	}
	f.agg = rpc.NewAggregator(f.clients, topK)

	for i := 0; i < w.warmup; i++ {
		if _, err := f.search(f.queries[i%len(f.queries)].Terms); err != nil {
			f.close()
			return nil, fmt.Errorf("warm-up query %d: %w", i, err)
		}
	}
	return f, nil
}

// evalTrace generates the evaluation trace from the run's seed. A heavy
// workload draws twice as many queries and keeps the half with the
// longest posting lists.
func evalTrace(corpus *textgen.Corpus, shards []*index.Shard, w workload, seed uint64) []trace.Query {
	n := w.evalQueries
	if w.heavy {
		n *= 2
	}
	qs := trace.Generate(corpus, trace.Config{Kind: w.kind, Seed: seed, NumQueries: n, QPS: w.twinQPS})
	if !w.heavy {
		return qs
	}
	lens := make([]int, len(qs))
	for i, q := range qs {
		lens[i] = postingLen(shards, q.Terms)
	}
	sorted := append([]int(nil), lens...)
	sort.Ints(sorted)
	median := sorted[len(sorted)/2]
	kept := make([]trace.Query, 0, w.evalQueries)
	for i, q := range qs {
		if lens[i] >= median && len(kept) < w.evalQueries {
			q.ID = len(kept)
			kept = append(kept, q)
		}
	}
	return kept
}

// postingLen is the summed posting-list length of terms over all shards.
func postingLen(shards []*index.Shard, terms []string) int {
	n := 0
	for _, sh := range shards {
		for _, t := range terms {
			if ti, ok := sh.Lookup(t); ok {
				n += ti.Len()
			}
		}
	}
	return n
}

// search is the one call the load generator makes: the aggregator's
// public entry point for this workload.
func (f *fleet) search(terms []string) (rpc.Result, error) {
	return searchVia(f.agg, f.w.exhaustive, terms)
}

func searchVia(agg *rpc.Aggregator, exhaustive bool, terms []string) (rpc.Result, error) {
	if exhaustive {
		return agg.SearchExhaustive(terms)
	}
	return agg.SearchCottage(terms)
}

// close stops every server and connection and waits for the Serve
// goroutines to return.
func (f *fleet) close() {
	for _, c := range f.clients {
		c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, s := range f.servers {
		_ = s.Shutdown(ctx) // a timeout force-closes the connections
	}
	for _, l := range f.listeners {
		l.Close() // in case Serve had not registered it with Shutdown yet
	}
	f.serving.Wait()
}
