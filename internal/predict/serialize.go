package predict

import (
	"encoding/binary"
	"fmt"

	"cottage/internal/features"
	"cottage/internal/nn"
	"cottage/internal/wire"
)

// ISN predictor file format 1, in the internal/wire idiom: magic
// "COTTAGEP", u32 format 1, u64 ISN, u64 K, f64 LatBins.LogLo,
// f64 LatBins.LogHi, u64 LatBins.N, then the QK, QK2 and latency
// networks in nn's file form.
const predictorMagic = "COTTAGEP"

var le = binary.LittleEndian

// Append appends the predictor's file form to dst.
func (p *ISNPredictor) Append(dst []byte) []byte {
	dst = le.AppendUint64(wire.AppendHeader(dst, predictorMagic, 1), uint64(p.ISN))
	dst = wire.AppendF64(le.AppendUint64(dst, uint64(p.K)), p.LatBins.LogLo)
	dst = le.AppendUint64(wire.AppendF64(dst, p.LatBins.LogHi), uint64(p.LatBins.N))
	return p.LatNet.Append(p.QK2Net.Append(p.QKNet.Append(dst)))
}

// DecodeISNPredictor parses a predictor file written by Append.
func DecodeISNPredictor(data []byte) (*ISNPredictor, error) {
	rd := wire.Reader{B: data}
	if !rd.Header(predictorMagic, 1) {
		return nil, fmt.Errorf("predict: not a format-1 ISN predictor file")
	}
	isn, k := int(rd.U64()), int(rd.U64())
	bins := Bins{LogLo: rd.F64(), LogHi: rd.F64(), N: int(rd.U64())}
	var nets [3]*nn.Network
	for i := range nets {
		var err error
		if nets[i], err = nn.Parse(&rd); err != nil {
			return nil, err
		}
	}
	if len(rd.B) != 0 {
		return nil, fmt.Errorf("predict: decoding predictor: %d trailing bytes", len(rd.B))
	}
	// Predict feeds fixed-size feature vectors and reads class indices as
	// contributions and latency bins: each network must fit its role.
	for i, c := range []struct {
		name        string
		in, classes int
	}{
		{"QK", features.QualityDim, k + 1},
		{"QK2", features.QualityDim, k/2 + 1},
		{"latency", features.LatencyDim, bins.N},
	} {
		if cfg := nets[i].Cfg; cfg.InputDim != c.in || cfg.NumClasses != c.classes {
			return nil, fmt.Errorf("predict: decoding predictor: %s net maps %d inputs to %d classes, want %d to %d",
				c.name, cfg.InputDim, cfg.NumClasses, c.in, c.classes)
		}
	}
	return newISNPredictor(isn, k, nets[0], nets[1], nets[2], bins), nil
}
