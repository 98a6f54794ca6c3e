package predict

import (
	"bytes"
	"strings"
	"testing"

	"cottage/internal/cluster"
	"cottage/internal/nn"
	"cottage/internal/search"
)

// FuzzDecodeISNPredictor hardens DecodeISNPredictor against arbitrary
// bytes: every input yields either a "predict:" or "nn:" error and no
// predictor, or a predictor whose three forward passes run on a real
// shard and read back classes inside their roles' ranges.
func FuzzDecodeISNPredictor(f *testing.F) {
	fx := getFixture(f)
	ds := Harvest(fx.shards[:1], fx.train[:200], 10, search.StrategyMaxScore, cluster.DefaultCostModel())
	cfg := DefaultConfig(10)
	cfg.QualitySteps, cfg.LatencySteps = 40, 30
	// One narrow hidden layer keeps the seed small, so the fuzzer spends
	// its time mutating rather than minimizing.
	cfg.Net = func(in, classes int, seed uint64) nn.Config {
		c := nn.FastConfig(in, classes, seed)
		c.Hidden = []int{4}
		return c
	}
	fleet, err := Train(ds, cfg)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fleet.Predictors[0].Encode(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	for _, cut := range []int{len(valid), len(valid) - 1, len(valid) / 2, len(valid) / 4, 8, 0} {
		f.Add(valid[:cut])
	}
	queries := [][]string{fx.test[0].Terms, fx.test[1].Terms, {"zzzznotaword"}}

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeISNPredictor(bytes.NewReader(data))
		if err != nil {
			if msg := err.Error(); p != nil || !(strings.HasPrefix(msg, "predict: ") || strings.HasPrefix(msg, "nn: ")) {
				t.Fatalf("DecodeISNPredictor returned predictor %v with error %q", p != nil, err)
			}
			return
		}
		for _, terms := range queries {
			pr := p.Predict(fx.shards[0], terms)
			if pr.QK < 0 || pr.QK > p.K || pr.QK2 < 0 || pr.QK2 > p.K/2 {
				t.Fatalf("prediction %+v outside K=%d", pr, p.K)
			}
		}
	})
}
