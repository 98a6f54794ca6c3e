package trace

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"

	"cottage/internal/wire"
)

// Sanity bounds on decoded traces: generous multiples of anything the
// generators produce, tight enough that a corrupted or adversarial file
// cannot smuggle absurd queries into a replay (or allocate unbounded
// memory downstream).
const (
	// MaxTermsPerQuery bounds one query's term list.
	MaxTermsPerQuery = 64
	// MaxTermLen bounds one term's byte length.
	MaxTermLen = 1024
)

// Trace file format 2, in the internal/wire idiom: magic "COTTAGET",
// u32 format 2, a u32 query count, and per query u64 ID, f64 ArrivalMS
// and its terms as a u32 count of strings. Format 1 was a gob stream.
const traceMagic = "COTTAGET"

var le = binary.LittleEndian

// SaveFile writes a trace to path.
func SaveFile(path string, qs []Query) error { return os.WriteFile(path, Append(nil, qs), 0o666) }

// Append appends the trace's file form to dst. Equal traces give equal
// bytes.
func Append(dst []byte, qs []Query) []byte {
	dst = le.AppendUint32(wire.AppendHeader(dst, traceMagic, 2), uint32(len(qs)))
	for _, q := range qs {
		dst = wire.AppendF64(le.AppendUint64(dst, uint64(q.ID)), q.ArrivalMS)
		dst = wire.AppendSlice(dst, q.Terms, wire.AppendString)
	}
	return dst
}

// Parse reads a trace file written by Append and checks it against the
// bounds above.
func Parse(data []byte) ([]Query, error) {
	rd := wire.Reader{B: data}
	if !rd.Header(traceMagic, 2) {
		return nil, fmt.Errorf("trace: not a format-2 trace file")
	}
	// Every term is a substring of one copy of the file: no term costs
	// an allocation of its own.
	text := string(data)
	qs := make([]Query, rd.Count(8+8+4))
	for i := range qs {
		q := &qs[i]
		q.ID, q.ArrivalMS, q.Terms = int(rd.U64()), rd.F64(), make([]string, rd.Count(4))
		for j := range q.Terms {
			l := rd.Count(1)
			off := len(data) - len(rd.B)
			q.Terms[j] = text[off : off+l]
			rd.B = rd.B[l:]
		}
	}
	if rd.Bad || len(rd.B) != 0 {
		return nil, fmt.Errorf("trace: decoding: the file is truncated or malformed")
	}
	prev := 0.0
	for i, q := range qs {
		if math.IsNaN(q.ArrivalMS) || math.IsInf(q.ArrivalMS, 0) || q.ArrivalMS < 0 {
			return nil, fmt.Errorf("trace: query %d has non-finite or negative arrival %v", i, q.ArrivalMS)
		}
		if q.ArrivalMS < prev {
			return nil, fmt.Errorf("trace: arrivals out of order at query %d", i)
		}
		if len(q.Terms) == 0 {
			return nil, fmt.Errorf("trace: query %d has no terms", i)
		}
		if len(q.Terms) > MaxTermsPerQuery {
			return nil, fmt.Errorf("trace: query %d has %d terms (max %d)", i, len(q.Terms), MaxTermsPerQuery)
		}
		for _, t := range q.Terms {
			if len(t) == 0 || len(t) > MaxTermLen {
				return nil, fmt.Errorf("trace: query %d has a term of %d bytes (want 1..%d)", i, len(t), MaxTermLen)
			}
		}
		prev = q.ArrivalMS
	}
	return qs, nil
}

// LoadFile reads a trace written by SaveFile.
func LoadFile(path string) ([]Query, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(data)
}
