package predict

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
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
	var buf bytes.Buffer
	if err := fleet.Predictors[0].Encode(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	const want = "b3d816cc2c0ef557ee7d83ca6c12386a99ffaf9da773e59f7f48d1704de5e371"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("trained predictor digest %s, want %s", got, want)
	}
}
