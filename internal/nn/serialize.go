package nn

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
)

// netWire is the gob wire form of a Network; all fields of Network are
// exported, but an explicit wire struct keeps the format stable if the
// in-memory representation grows non-serializable members later.
type netWire struct {
	Cfg    Config
	Layers []layer
	Norm   *Normalizer
}

// Encode serializes the network with encoding/gob.
func (n *Network) Encode(w io.Writer) error {
	return gob.NewEncoder(w).Encode(netWire{Cfg: n.Cfg, Layers: n.Layers, Norm: n.Norm})
}

// Decode deserializes a network written by Encode.
func Decode(r io.Reader) (*Network, error) {
	var w netWire
	if err := gob.NewDecoder(r).Decode(&w); err != nil {
		return nil, fmt.Errorf("nn: decoding network: %w", err)
	}
	n := &Network{Cfg: w.Cfg, Layers: w.Layers, Norm: w.Norm}
	if err := n.checkShapes(); err != nil {
		return nil, fmt.Errorf("nn: decoded network: %w", err)
	}
	if err := n.checkValues(); err != nil {
		return nil, fmt.Errorf("nn: decoded network: %w", err)
	}
	n.Rebuild()
	return n, nil
}

// checkShapes verifies that the layer shapes chain from the input to the
// classes and that every weight, bias and normalizer slice has the length
// its shape implies. The inference kernels index by these dimensions, so
// a network that fails here must never reach them.
func (n *Network) checkShapes() error {
	if len(n.Layers) == 0 {
		return fmt.Errorf("no layers")
	}
	in := n.Cfg.InputDim
	if in <= 0 {
		return fmt.Errorf("input dimension %d", in)
	}
	for li, l := range n.Layers {
		if l.In != in {
			return fmt.Errorf("layer %d takes %d inputs, the layer below gives %d", li, l.In, in)
		}
		if l.Out <= 0 {
			return fmt.Errorf("layer %d has %d outputs", li, l.Out)
		}
		// len(W) = In·Out, tested by division: the product of two
		// decoded dimensions can wrap around to a small length.
		if len(l.W)%l.Out != 0 || len(l.W)/l.Out != l.In || len(l.B) != l.Out {
			return fmt.Errorf("layer %d is %d×%d with %d weights and %d biases", li, l.Out, l.In, len(l.W), len(l.B))
		}
		in = l.Out
	}
	if n.Cfg.NumClasses < 2 || in != n.Cfg.NumClasses {
		return fmt.Errorf("output layer has %d units for %d classes (need at least 2)", in, n.Cfg.NumClasses)
	}
	if nm := n.Norm; nm != nil && (len(nm.Mean) != n.Cfg.InputDim || len(nm.Std) != n.Cfg.InputDim) {
		return fmt.Errorf("normalizer has %d means and %d deviations for %d inputs", len(nm.Mean), len(nm.Std), n.Cfg.InputDim)
	}
	return nil
}

// checkValues verifies, on a network that passed checkShapes, that every
// weight, bias and normalizer mean is finite and every normalizer
// deviation positive and finite. Training never produces anything else;
// one NaN weight in the output layer would make every probability NaN,
// and a zero deviation would make Normalizer.Apply divide by zero, both
// without an error anywhere.
func (n *Network) checkValues() error {
	for li, l := range n.Layers {
		if i := nonFinite(l.W); i >= 0 {
			return fmt.Errorf("layer %d weight %d is %v", li, i, l.W[i])
		}
		if i := nonFinite(l.B); i >= 0 {
			return fmt.Errorf("layer %d bias %d is %v", li, i, l.B[i])
		}
	}
	if nm := n.Norm; nm != nil {
		if i := nonFinite(nm.Mean); i >= 0 {
			return fmt.Errorf("normalizer mean %d is %v", i, nm.Mean[i])
		}
		for i, s := range nm.Std {
			if !(s > 0) || math.IsInf(s, 1) {
				return fmt.Errorf("normalizer deviation %d is %v", i, s)
			}
		}
	}
	return nil
}

// nonFinite returns the index of the first NaN or infinite value in xs,
// or -1.
func nonFinite(xs []float64) int {
	for i, v := range xs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return i
		}
	}
	return -1
}
