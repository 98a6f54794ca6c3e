package predict

import (
	"testing"

	"cottage/internal/cluster"
	"cottage/internal/features"
	"cottage/internal/nn"
	"cottage/internal/search"
)

func TestISNPredictorRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a predictor")
	}
	f := getFixture(t)
	ds := Harvest(f.shards[:1], f.train[:200], 10, search.StrategyMaxScore, cluster.DefaultCostModel())
	cfg := DefaultConfig(10)
	cfg.QualitySteps = 80
	cfg.LatencySteps = 60
	fleet, err := Train(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := fleet.Predictors[0]

	got, err := DecodeISNPredictor(p.Append(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.ISN != p.ISN || got.K != p.K || got.LatBins != p.LatBins {
		t.Fatal("metadata lost in round trip")
	}
	// Predictions must be identical after the round trip.
	for _, q := range f.test[:50] {
		a := p.Predict(f.shards[0], q.Terms)
		b := got.Predict(f.shards[0], q.Terms)
		if a != b {
			t.Fatalf("prediction differs after round trip: %+v vs %+v", a, b)
		}
	}
}

// TestDecodeISNPredictorRejectsMismatchedNets: each network must take the
// feature vector its role feeds it and output the classes its role reads
// (K+1 contributions, K/2+1, LatBins.N latency bins).
func TestDecodeISNPredictorRejectsMismatchedNets(t *testing.T) {
	const k = 10
	bins := Bins{LogLo: 1, LogHi: 2, N: 20}
	good := func() *ISNPredictor {
		return &ISNPredictor{K: k, LatBins: bins,
			QKNet:  nn.New(nn.FastConfig(features.QualityDim, k+1, 1)),
			QK2Net: nn.New(nn.FastConfig(features.QualityDim, k/2+1, 2)),
			LatNet: nn.New(nn.FastConfig(features.LatencyDim, bins.N, 3)),
		}
	}
	for _, tc := range []struct {
		name   string
		mangle func(p *ISNPredictor)
	}{
		{"none", func(*ISNPredictor) {}},
		{"QK classes", func(p *ISNPredictor) { p.QKNet = nn.New(nn.FastConfig(features.QualityDim, k, 1)) }},
		{"QK2 classes", func(p *ISNPredictor) { p.QK2Net = nn.New(nn.FastConfig(features.QualityDim, k+1, 2)) }},
		{"QK input", func(p *ISNPredictor) { p.QKNet = nn.New(nn.FastConfig(features.QualityDim+1, k+1, 1)) }},
		{"latency input", func(p *ISNPredictor) { p.LatNet = nn.New(nn.FastConfig(features.LatencyDim-1, bins.N, 3)) }},
		{"latency bins", func(p *ISNPredictor) { p.LatBins.N = 19 }},
		{"K", func(p *ISNPredictor) { p.K = 8 }},
	} {
		p := good()
		tc.mangle(p)
		_, err := DecodeISNPredictor(p.Append(nil))
		if (err == nil) != (tc.name == "none") {
			t.Errorf("%s: DecodeISNPredictor error = %v", tc.name, err)
		}
	}
}

func TestDecodeISNPredictorGarbage(t *testing.T) {
	if _, err := DecodeISNPredictor([]byte("junk")); err == nil {
		t.Fatal("expected decode error")
	}
}
