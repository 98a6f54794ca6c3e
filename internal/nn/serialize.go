package nn

import (
	"encoding/binary"
	"fmt"
	"math"

	"cottage/internal/wire"
)

// Network file format 1, in the internal/wire idiom: magic "COTTAGEN",
// u32 format 1; u64 InputDim, u32 n + n×u64 Hidden, u64 NumClasses,
// u64 Seed; a u32 layer count and per layer u64 In, u64 Out and W and B
// as u32 n + n×f64; then u8 1 and the normalizer's Mean and Std the same
// way, or u8 0. ISN predictor files hold their networks inline.
const netMagic = "COTTAGEN"

var le = binary.LittleEndian

// Append appends the network's file form to dst.
func (n *Network) Append(dst []byte) []byte {
	dst = le.AppendUint64(wire.AppendHeader(dst, netMagic, 1), uint64(n.Cfg.InputDim))
	dst = wire.AppendSlice(dst, n.Cfg.Hidden, func(b []byte, h int) []byte { return le.AppendUint64(b, uint64(h)) })
	dst = le.AppendUint64(le.AppendUint64(dst, uint64(n.Cfg.NumClasses)), n.Cfg.Seed)
	f64s := func(dst []byte, xs []float64) []byte { return wire.AppendSlice(dst, xs, wire.AppendF64) }
	dst = le.AppendUint32(dst, uint32(len(n.Layers)))
	for _, l := range n.Layers {
		dst = f64s(f64s(le.AppendUint64(le.AppendUint64(dst, uint64(l.In)), uint64(l.Out)), l.W), l.B)
	}
	if n.Norm == nil {
		return append(dst, 0)
	}
	return f64s(f64s(append(dst, 1), n.Norm.Mean), n.Norm.Std)
}

// Parse reads one network's file form from r and checks that it can run
// inference: its shapes chain and every value is finite.
func Parse(r *wire.Reader) (*Network, error) {
	if !r.Header(netMagic, 1) {
		return nil, fmt.Errorf("nn: not a format-1 network file")
	}
	f64s := func() []float64 { return wire.Slice(r, 8, (*wire.Reader).F64) }
	n := &Network{Cfg: Config{InputDim: int(r.U64())}}
	n.Cfg.Hidden = wire.Slice(r, 8, func(r *wire.Reader) int { return int(r.U64()) })
	n.Cfg.NumClasses, n.Cfg.Seed = int(r.U64()), r.U64()
	n.Layers = make([]layer, r.Count(8+8+4+4))
	for i := range n.Layers {
		l := &n.Layers[i]
		l.In, l.Out, l.W, l.B = int(r.U64()), int(r.U64()), f64s(), f64s()
	}
	if norm := r.U8(); norm == 1 {
		n.Norm = &Normalizer{Mean: f64s(), Std: f64s()}
	} else if norm != 0 {
		r.Bad = true
	}
	if r.Bad {
		return nil, fmt.Errorf("nn: decoding network: the file is truncated or malformed")
	}
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
