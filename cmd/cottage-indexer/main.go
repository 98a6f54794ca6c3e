// Command cottage-indexer builds a sharded inverted index and writes one
// .shard file per ISN, ready for cottage-server.
//
// Two input modes:
//
//	cottage-indexer -out ./idx -shards 4                # synthetic corpus
//	cottage-indexer -out ./idx -shards 4 -input docs.txt # one document per line
//
// With -train N it additionally trains per-ISN quality/latency predictors
// on N synthetic queries and writes one .model file per shard, so
// cottage-server can answer prediction requests. With -verify it builds
// nothing and instead loads every .shard file in -out through the load
// gate; files of an older shard format (v5 and before) are refused with
// their version named, and the remedy is to rebuild them.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"cottage/internal/cluster"
	"cottage/internal/engine"
	"cottage/internal/index"
	"cottage/internal/obs"
	"cottage/internal/predict"
	"cottage/internal/search"
	"cottage/internal/textgen"
	"cottage/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cottage-indexer: ")
	var (
		out    = flag.String("out", "./index", "output directory")
		nshard = flag.Int("shards", 4, "number of shards (ISNs)")
		input  = flag.String("input", "", "text file, one document per line (default: synthetic corpus)")
		docs   = flag.Int("docs", 12000, "synthetic corpus size")
		seed   = flag.Uint64("seed", 1, "synthetic corpus seed")
		train  = flag.Int("train", 0, "train predictors on this many synthetic queries (synthetic corpus only)")
		k      = flag.Int("k", 10, "top-K the statistics and predictors target")
		qout   = flag.String("queriesout", "", "also write sample queries (one per line) for cottage-client")
		tout   = flag.String("traceout", "", "also write a timed query trace file for paced replay")
		nq     = flag.Int("numqueries", 200, "how many sample queries to write with -queriesout/-traceout")
		dbgAdr = flag.String("debug-addr", "", "HTTP debug listener during the build (/metrics runtime gauges, /debug/pprof); empty = off")
		verify = flag.Bool("verify", false, "verify existing shard files in -out instead of building (exit 1 on corruption)")
		mstats = flag.Bool("memstats", false, "report postings memory per shard after the build (packed bytes/posting vs the 8-byte flat layout)")
	)
	flag.Parse()

	if *verify {
		if err := verifyShards(*out); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *dbgAdr != "" {
		// Long corpus builds are memory-bound; the listener exposes the Go
		// runtime gauges (heap, GC pause p99, goroutines) and pprof while
		// indexing runs.
		dbg, err := obs.StartDebug(*dbgAdr, obs.NewObserver(1, 8))
		if err != nil {
			log.Fatal(err)
		}
		defer dbg.Close()
		log.Printf("debug listener on http://%s (/metrics, /debug/pprof)", dbg.Addr())
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}

	var shards []*index.Shard
	var corpus *textgen.Corpus
	if *input != "" {
		var err error
		shards, err = indexTextFile(*input, *nshard, *k)
		if err != nil {
			log.Fatal(err)
		}
	} else {
		cfg := textgen.DefaultConfig()
		cfg.NumDocs = *docs
		cfg.Seed = *seed
		corpus = textgen.Generate(cfg)
		alloc := corpus.AllocateTopical(*nshard, max(1, *nshard/5), 0.15, *seed)
		ecfg := engine.DefaultConfig()
		ecfg.K = *k
		shards = engine.BuildFromAllocation(corpus, alloc, ecfg)
	}

	for _, s := range shards {
		if err := s.Validate(); err != nil {
			log.Fatalf("shard %d failed validation: %v", s.ID, err)
		}
		path := filepath.Join(*out, fmt.Sprintf("isn-%02d.shard", s.ID))
		if err := s.SaveFile(path); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s (%d docs, %d terms)", path, s.NumDocs, s.NumTerms())
	}

	if *mstats {
		memStats(shards)
	}

	if *qout != "" {
		if corpus == nil {
			log.Fatal("-queriesout requires the synthetic corpus (omit -input)")
		}
		qs := trace.Generate(corpus, trace.Config{Kind: trace.Wikipedia, Seed: *seed + 500, NumQueries: *nq, QPS: 10})
		f, err := os.Create(*qout)
		if err != nil {
			log.Fatal(err)
		}
		w := bufio.NewWriter(f)
		for _, q := range qs {
			fmt.Fprintln(w, strings.Join(q.Terms, " "))
		}
		if err := w.Flush(); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %d queries to %s", len(qs), *qout)
	}

	if *tout != "" {
		if corpus == nil {
			log.Fatal("-traceout requires the synthetic corpus (omit -input)")
		}
		qs := trace.Generate(corpus, trace.Config{Kind: trace.Wikipedia, Seed: *seed + 600, NumQueries: *nq, QPS: 10})
		if err := trace.SaveFile(*tout, qs); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %d-query trace to %s", len(qs), *tout)
	}

	if *train > 0 {
		if corpus == nil {
			log.Fatal("-train requires the synthetic corpus (omit -input)")
		}
		qs := trace.Generate(corpus, trace.Config{Kind: trace.Wikipedia, Seed: *seed + 100, NumQueries: *train, QPS: 30})
		log.Printf("harvesting ground truth from %d queries...", len(qs))
		ds := predict.Harvest(shards, qs, *k, search.StrategyMaxScore, cluster.DefaultCostModel())
		fleet, err := predict.Train(ds, predict.DefaultConfig(*k))
		if err != nil {
			log.Fatal(err)
		}
		for _, p := range fleet.Predictors {
			path := filepath.Join(*out, fmt.Sprintf("isn-%02d.model", p.ISN))
			if err := os.WriteFile(path, p.Append(nil), 0o666); err != nil {
				log.Fatal(err)
			}
			log.Printf("wrote %s", path)
		}
	}
}

// memStats reports resident postings bytes per shard under the packed
// block layout against the 8-byte-per-posting flat {doc, tf} layout it
// replaced, so compression claims can be checked on a real build.
func memStats(shards []*index.Shard) {
	totPacked, totPostings := 0, 0
	for _, s := range shards {
		packed, n := s.PackedPostingBytes(), s.NumPostings()
		if n == 0 {
			continue
		}
		totPacked += packed
		totPostings += n
		flat := n * 8
		log.Printf("memstats shard %d: %d postings, packed %d B (%.2f B/posting), flat %d B (8.00 B/posting), %.2fx smaller; BM25 length-norm table %d B",
			s.ID, n, packed, float64(packed)/float64(n), flat, float64(flat)/float64(packed), s.NormTableBytes())
	}
	if totPostings > 0 {
		log.Printf("memstats total: %d postings, packed %d B (%.2f B/posting) vs flat %d B, %.2fx smaller",
			totPostings, totPacked, float64(totPacked)/float64(totPostings),
			totPostings*8, float64(totPostings*8)/float64(totPacked))
	}
}

// verifyShards loads every .shard file under dir through the eager
// integrity verification (digest + every block checksum + structural
// invariants) and reports per file. Corruption errors are localized to
// (shard, term, block) by the per-block checksums; a gob-era file
// (formats 3 to 6) fails with index.ErrShardFormat, which advises the
// rebuild.
func verifyShards(dir string) error {
	paths, err := filepath.Glob(filepath.Join(dir, "*.shard"))
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("no .shard files in %s", dir)
	}
	bad := 0
	for _, path := range paths {
		s, err := index.LoadFile(path)
		if err != nil {
			bad++
			log.Printf("FAIL %s: %v", path, err)
			continue
		}
		log.Printf("ok   %s: %d docs, %d terms, %d blocks, digest %08x",
			path, s.NumDocs, s.NumTerms(), s.TotalBlocks(), s.Digest)
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d shard files failed verification", bad, len(paths))
	}
	log.Printf("all %d shard files verified clean", len(paths))
	return nil
}

// indexTextFile round-robins lines of a text file across shards.
func indexTextFile(path string, nshard, k int) ([]*index.Shard, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	builders := make([]*index.Builder, nshard)
	for i := range builders {
		builders[i] = index.NewBuilder(i, index.DefaultBM25(), k)
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	id := int64(0)
	for sc.Scan() {
		line := sc.Text()
		if len(line) == 0 {
			continue
		}
		builders[id%int64(nshard)].AddText(id, line)
		id++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if id == 0 {
		return nil, fmt.Errorf("no documents in %s", path)
	}
	shards := make([]*index.Shard, nshard)
	for i, b := range builders {
		shards[i] = b.Finalize()
	}
	return shards, nil
}
