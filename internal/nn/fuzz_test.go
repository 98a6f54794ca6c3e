package nn

import (
	"math"
	"runtime"
	"strings"
	"testing"
)

// The network parser's allocation rule. Per input byte: a layer (64 B)
// per 24-byte layer record, and the weights once as read and once
// transposed by Rebuild.
const (
	netAllocPerByte = 6
	netAllocSlack   = 64 << 10
)

// FuzzDecode hardens Parse (through decode) against arbitrary bytes:
// every input yields either an "nn:" error and no network, or a network
// whose forward pass runs on an input of its declared dimension, and no
// input makes one decode allocate more than netAllocPerByte bytes per
// input byte plus netAllocSlack. Every ISN parses its model file at
// start-up, so a panic here is a crash there.
func FuzzDecode(f *testing.F) {
	xs, ys := spiralData(50, 7)
	n := New(Config{InputDim: 2, Hidden: []int{4}, NumClasses: 2, Seed: 3})
	if _, err := n.Train(xs, ys, DefaultTrainConfig(50)); err != nil {
		f.Fatal(err)
	}
	valid := n.Append(nil)
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
		f.Add(n.Append(nil))
		*c.p = old
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n, err := decode(data)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > uint64(netAllocPerByte*len(data)+netAllocSlack) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), got)
		}
		if err != nil {
			if n != nil || !strings.HasPrefix(err.Error(), "nn: ") {
				t.Fatalf("decode returned network %v with error %q", n != nil, err)
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
