// Package wire is the one binary idiom of every byte format in this
// repository: the ISN wire (internal/rpc), shards (internal/index),
// networks (internal/nn), ISN predictors (internal/predict) and traces
// (internal/trace). Integers are little-endian at a fixed width (a Go
// int is 8 bytes), a float64 is its IEEE-754 bits, a string or slice is
// a u32 count and its elements, and a file opens with a magic and a u32
// format number. A Reader checks every count against the bytes left
// before anything is allocated, so a lying count cannot size one.
package wire

import (
	"encoding/binary"
	"io"
	"math"
)

var le = binary.LittleEndian

// AppendString appends s as a u32 length and its bytes.
func AppendString(dst []byte, s string) []byte {
	return append(le.AppendUint32(dst, uint32(len(s))), s...)
}

// AppendF64 appends v's IEEE-754 bits.
func AppendF64(dst []byte, v float64) []byte {
	return le.AppendUint64(dst, math.Float64bits(v))
}

// AppendSlice appends xs as a u32 count and each element through put.
func AppendSlice[T any](dst []byte, xs []T, put func([]byte, T) []byte) []byte {
	dst = le.AppendUint32(dst, uint32(len(xs)))
	for _, x := range xs {
		dst = put(dst, x)
	}
	return dst
}

// AppendHeader appends a file's magic and format number.
func AppendHeader(dst []byte, magic string, format uint32) []byte {
	return le.AppendUint32(append(dst, magic...), format)
}

// Reader walks an encoded message: B is what is left to read. Reads
// past the end set Bad and return zero values, so a parser checks Bad
// once per record instead of after every field.
type Reader struct {
	B   []byte
	Bad bool
}

// Header consumes the file's magic and format number and reports
// whether they are magic and format.
func (r *Reader) Header(magic string, format uint32) bool {
	n := len(magic)
	if len(r.B) < n+4 || string(r.B[:n]) != magic || le.Uint32(r.B[n:]) != format {
		return false
	}
	r.B = r.B[n+4:]
	return true
}

// zeros is what a read past the end returns.
var zeros [8]byte

// next consumes and returns the next n bytes, or marks the reader bad
// and returns n zero bytes.
func (r *Reader) next(n int) []byte {
	if len(r.B) < n {
		r.Bad, r.B = true, nil
		return zeros[:n]
	}
	v := r.B[:n]
	r.B = r.B[n:]
	return v
}

func (r *Reader) U8() uint8    { return r.next(1)[0] }
func (r *Reader) U32() uint32  { return le.Uint32(r.next(4)) }
func (r *Reader) U64() uint64  { return le.Uint64(r.next(8)) }
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Count reads an element count and refuses it unless that many elements
// of at least minLen bytes each could still follow.
func (r *Reader) Count(minLen int) int {
	n := r.U32()
	if uint64(n) > uint64(len(r.B)/minLen) {
		r.Bad, r.B = true, nil
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed run and returns it in place, capped so
// that an append to it cannot overwrite the bytes that follow.
func (r *Reader) Bytes() []byte {
	n := r.Count(1)
	v := r.B[:n:n]
	r.B = r.B[n:]
	return v
}

func (r *Reader) Str() string { return string(r.Bytes()) }

// Slice reads what AppendSlice wrote: a count of elements of at least
// minLen bytes each, each read by get.
func Slice[T any](r *Reader, minLen int, get func(*Reader) T) []T {
	xs := make([]T, r.Count(minLen))
	for i := range xs {
		xs[i] = get(r)
	}
	return xs
}

// ReadAll reads r to its end into one buffer, of exactly the right size
// when r reports its length (bytes.Reader, bytes.Buffer).
func ReadAll(r io.Reader) ([]byte, error) {
	sized, ok := r.(interface{ Len() int })
	if !ok {
		return io.ReadAll(r)
	}
	b := make([]byte, sized.Len())
	_, err := io.ReadFull(r, b)
	return b, err
}
