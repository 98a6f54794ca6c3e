package nn

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzDecode hardens Decode against arbitrary bytes: every input yields
// either an "nn:" error and no network, or a network whose forward pass
// runs on an input of its declared dimension. A model file is read from
// disk by every ISN, so a panic here is a crash at start-up.
func FuzzDecode(f *testing.F) {
	xs, ys := spiralData(50, 7)
	n := New(Config{InputDim: 2, Hidden: []int{4}, NumClasses: 2, Seed: 3})
	if _, err := n.Train(xs, ys, DefaultTrainConfig(50)); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := n.Encode(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	for _, cut := range []int{len(valid), len(valid) - 1, len(valid) / 2, len(valid) / 4, 8, 0} {
		f.Add(valid[:cut])
	}
	// Well-shaped networks whose values break inference: a NaN weight
	// and a zero normalizer deviation.
	for _, c := range []struct {
		p *float64
		v float64
	}{{&n.Layers[1].W[3], math.NaN()}, {&n.Norm.Std[1], 0}} {
		old := *c.p
		*c.p = c.v
		var b bytes.Buffer
		if err := n.Encode(&b); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
		*c.p = old
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := Decode(bytes.NewReader(data))
		if err != nil {
			if n != nil || !strings.HasPrefix(err.Error(), "nn: ") {
				t.Fatalf("Decode returned network %v with error %q", n != nil, err)
			}
			return
		}
		x := make([]float64, n.Cfg.InputDim)
		for i := range x {
			x[i] = float64(i) - 1.5
		}
		p := n.NewPredictor(1)
		if probs := p.Probs(x); len(probs) != n.Cfg.NumClasses {
			t.Fatalf("forward pass gave %d probabilities for %d classes", len(probs), n.Cfg.NumClasses)
		}
		if c := p.Classify(x); c < 0 || c >= n.Cfg.NumClasses {
			t.Fatalf("class %d outside [0,%d)", c, n.Cfg.NumClasses)
		}
	})
}
