package predict

import (
	"runtime"
	"strings"
	"testing"

	"cottage/internal/cluster"
	"cottage/internal/nn"
	"cottage/internal/search"
)

// The predictor decoder's allocation rule. Per input byte: what the
// three networks cost nn.Parse (at most 6 B together), and the inference
// scratch newISNPredictor sizes for 33 rows (one, plus a block of 32): a
// pre-activation and an activation, 528 B per output unit, against the
// at least 16 bytes (a bias and a weight) each unit takes in the file.
const (
	predictorAllocPerByte = 6 + 33
	predictorAllocSlack   = 64 << 10
)

// FuzzDecodeISNPredictor hardens DecodeISNPredictor against arbitrary
// bytes: every input yields either a "predict:" or "nn:" error and no
// predictor, or a predictor whose three forward passes run on a real
// shard and read back classes inside their roles' ranges. No input makes
// one decode allocate more than predictorAllocPerByte bytes per input
// byte plus predictorAllocSlack.
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
	valid := fleet.Predictors[0].Append(nil)
	for _, cut := range []int{len(valid), len(valid) - 1, len(valid) / 2, len(valid) / 4, 8, 0} {
		f.Add(valid[:cut])
	}
	queries := [][]string{fx.test[0].Terms, fx.test[1].Terms, {"zzzznotaword"}}

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p, err := DecodeISNPredictor(data)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > uint64(predictorAllocPerByte*len(data)+predictorAllocSlack) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), got)
		}
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
