package predict

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"cottage/internal/features"
	"cottage/internal/nn"
)

// isnPredictorWire is the gob form of one ISN's trained models. Networks
// are nested gob blobs so their wire format stays owned by package nn.
type isnPredictorWire struct {
	ISN     int
	K       int
	QK      []byte
	QK2     []byte
	Lat     []byte
	LatBins Bins
}

func encodeNet(n *nn.Network) ([]byte, error) {
	var buf bytes.Buffer
	if err := n.Encode(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Encode serializes the predictor with encoding/gob.
func (p *ISNPredictor) Encode(w io.Writer) error {
	qk, err := encodeNet(p.QKNet)
	if err != nil {
		return fmt.Errorf("predict: encoding QK net: %w", err)
	}
	qk2, err := encodeNet(p.QK2Net)
	if err != nil {
		return fmt.Errorf("predict: encoding QK2 net: %w", err)
	}
	lat, err := encodeNet(p.LatNet)
	if err != nil {
		return fmt.Errorf("predict: encoding latency net: %w", err)
	}
	return gob.NewEncoder(w).Encode(isnPredictorWire{
		ISN: p.ISN, K: p.K, QK: qk, QK2: qk2, Lat: lat, LatBins: p.LatBins,
	})
}

// DecodeISNPredictor deserializes a predictor written by Encode.
func DecodeISNPredictor(r io.Reader) (*ISNPredictor, error) {
	var w isnPredictorWire
	if err := gob.NewDecoder(r).Decode(&w); err != nil {
		return nil, fmt.Errorf("predict: decoding predictor: %w", err)
	}
	qk, err := nn.Decode(bytes.NewReader(w.QK))
	if err != nil {
		return nil, err
	}
	qk2, err := nn.Decode(bytes.NewReader(w.QK2))
	if err != nil {
		return nil, err
	}
	lat, err := nn.Decode(bytes.NewReader(w.Lat))
	if err != nil {
		return nil, err
	}
	// Predict feeds fixed-size feature vectors and reads class indices as
	// contributions and latency bins: each network must fit its role.
	for _, c := range []struct {
		name        string
		net         *nn.Network
		in, classes int
	}{
		{"QK", qk, features.QualityDim, w.K + 1},
		{"QK2", qk2, features.QualityDim, w.K/2 + 1},
		{"latency", lat, features.LatencyDim, w.LatBins.N},
	} {
		if c.net.Cfg.InputDim != c.in || c.net.Cfg.NumClasses != c.classes {
			return nil, fmt.Errorf("predict: decoding predictor: %s net maps %d inputs to %d classes, want %d to %d",
				c.name, c.net.Cfg.InputDim, c.net.Cfg.NumClasses, c.in, c.classes)
		}
	}
	return newISNPredictor(w.ISN, w.K, qk, qk2, lat, w.LatBins), nil
}
