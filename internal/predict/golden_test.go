package predict

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"cottage/internal/cluster"
	"cottage/internal/search"
	"cottage/internal/textgen"
	"cottage/internal/trace"
)

// TestTrainGolden pins one trained ISNPredictor bit for bit: a small
// fixed shard and trace, the harness's training recipe at reduced step
// counts, and the SHA-256 of the encoded models. Adam's constants, the
// feature normalization and the batch sampling all feed these bytes.
func TestTrainGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a predictor")
	}
	ccfg := textgen.DefaultConfig()
	ccfg.NumDocs = 1500
	ccfg.VocabSize = 2000
	ccfg.NumTopics = 8
	ccfg.TopicTermCount = 100
	corpus := textgen.Generate(ccfg)
	shards := buildShards(corpus, corpus.AllocateTopical(2, 2, 0.15, 3))
	qs := trace.Generate(corpus, trace.Config{Kind: trace.Wikipedia, Seed: 17, NumQueries: 240, QPS: 10})
	ds := Harvest(shards[:1], qs, 10, search.StrategyMaxScore, cluster.DefaultCostModel())
	cfg := DefaultConfig(10)
	cfg.QualitySteps = 60
	cfg.LatencySteps = 30
	fleet, err := Train(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(fleet.Predictors[0].Append(nil))
	const want = "dbc6a016b75fdea6db4b787b643340b1552af5b3e9ab71c1a726d94366c01d75"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("trained predictor digest %s, want %s", got, want)
	}
}

// TestPredictTraceGolden pins what a trained fleet predicts, bit for bit:
// the SHA-256 of predictionBits for every (query, ISN) of PredictTrace
// over a trace longer than any inference block, with unmatched terms,
// repeated terms and repeated queries mixed in. The per-query PredictAll
// must give the same rows.
func TestPredictTraceGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a predictor")
	}
	ccfg := textgen.DefaultConfig()
	ccfg.NumDocs = 1500
	ccfg.VocabSize = 2000
	ccfg.NumTopics = 8
	ccfg.TopicTermCount = 100
	corpus := textgen.Generate(ccfg)
	shards := buildShards(corpus, corpus.AllocateTopical(3, 2, 0.15, 3))
	qs := trace.Generate(corpus, trace.Config{Kind: trace.Wikipedia, Seed: 19, NumQueries: 500, QPS: 10})
	ds := Harvest(shards, qs[:200], 10, search.StrategyMaxScore, cluster.DefaultCostModel())
	cfg := DefaultConfig(10)
	cfg.QualitySteps = 60
	cfg.LatencySteps = 30
	fleet, err := Train(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var terms [][]string
	for i, q := range qs[200:] {
		ts := q.Terms
		switch i % 9 {
		case 3:
			ts = []string{"no-such-term"}
		case 5:
			ts = append([]string{"no-such-term"}, ts...)
		case 7:
			ts = append(append([]string(nil), ts...), ts[0])
		}
		terms = append(terms, ts)
		if i%31 == 0 {
			terms = append(terms, ts)
		}
	}
	if len(terms) < 240 {
		t.Fatalf("trace of %d queries", len(terms))
	}
	rows := fleet.PredictTrace(shards, terms)
	h := sha256.New()
	var buf [7 * 8]byte
	matched, unmatched := 0, 0
	for q, row := range rows {
		want := fleet.PredictAll(shards, terms[q])
		for isn, p := range row {
			bits := predictionBits(p)
			if bits != predictionBits(want[isn]) {
				t.Fatalf("query %d ISN %d: PredictTrace %v, PredictAll %v", q, isn, bits, predictionBits(want[isn]))
			}
			for i, b := range bits {
				binary.LittleEndian.PutUint64(buf[i*8:], b)
			}
			h.Write(buf[:])
			if p.Matched {
				matched++
			} else {
				unmatched++
			}
		}
	}
	if matched == 0 || unmatched == 0 {
		t.Fatalf("%d matched and %d unmatched predictions: the trace must have both", matched, unmatched)
	}
	const want = "f78d529a4782f73cce197e55e11e95b3c4131df81c8fd09218d108304765c6ea"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("%d queries × %d ISNs: prediction digest %s, want %s", len(rows), len(shards), got, want)
	}
}

// TestEstimateGolden pins the Taily estimator bit for bit: the SHA-256
// of every shard's Estimate at K = 10 and at K = 5 over a Wikipedia and
// a Lucene trace on eight shards, with unmatched and repeated terms
// mixed in. The digest was computed before the per-query Gamma fits and
// the bisection's early stop existed.
func TestEstimateGolden(t *testing.T) {
	ccfg := textgen.DefaultConfig()
	ccfg.NumDocs = 3000
	ccfg.VocabSize = 3000
	ccfg.NumTopics = 12
	ccfg.TopicTermCount = 150
	corpus := textgen.Generate(ccfg)
	shards := buildShards(corpus, corpus.AllocateTopical(8, 2, 0.15, 3))
	g := &GammaEstimator{Shards: shards}
	h := sha256.New()
	var buf [8]byte
	n := 0
	for _, kind := range []trace.Kind{trace.Wikipedia, trace.Lucene} {
		for i, q := range trace.Generate(corpus, trace.Config{Kind: kind, Seed: 23, NumQueries: 150, QPS: 10}) {
			ts := q.Terms
			switch i % 7 {
			case 2:
				ts = []string{"no-such-term"}
			case 4:
				ts = append([]string{"no-such-term"}, ts...)
			case 6:
				ts = append(append([]string(nil), ts...), ts[0])
			}
			for _, k := range []int{10, 5} {
				for _, e := range g.Estimate(ts, k) {
					binary.LittleEndian.PutUint64(buf[:], math.Float64bits(e))
					h.Write(buf[:])
					n++
				}
			}
		}
	}
	const want = "6a686e1c47dc59bcefa81e7734d70702edad8d1d2ae959f87131def37b94cbb1"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("%d estimates: digest %s, want %s", n, got, want)
	}
}
