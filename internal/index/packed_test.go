package index

import (
	"bytes"
	"encoding/gob"
	"slices"
	"testing"

	"cottage/internal/xrand"
)

func randomPostings(rng *xrand.RNG, n int) []Posting {
	ps := make([]Posting, n)
	doc := uint32(0)
	for i := range ps {
		doc += 1 + uint32(rng.Intn(50))
		ps[i] = Posting{Doc: doc, TF: 1 + uint32(rng.Intn(12))}
	}
	return ps
}

// packedTerm packs ps into a term the way Finalize does, checking the
// geometry decoding relies on.
func packedTerm(t *testing.T, ps []Posting) *TermInfo {
	t.Helper()
	packed, blocks := packPostings(ps, new([]byte))
	ti := &TermInfo{Text: "t", Packed: packed, Blocks: blocks}
	if len(ps) > 0 {
		if err := ti.checkPackedGeometry(); err != nil {
			t.Fatal(err)
		}
	}
	return ti
}

// TestPostingsRoundTrip: the packed codec is the identity on lists from
// empty through a lone posting and a partial tail to hundreds of blocks.
func TestPostingsRoundTrip(t *testing.T) {
	rng := xrand.New(1)
	for _, n := range []int{0, 1, 2, 10, 1000, 50000} {
		ps := randomPostings(rng, n)
		if got := packedTerm(t, ps).AllPostings(); !slices.Equal(got, ps) {
			t.Fatalf("n=%d: %d postings back, not the %d packed", n, len(got), len(ps))
		}
	}
}

func TestPostingsRoundTripProperty(t *testing.T) {
	rng := xrand.New(2)
	for trial := 0; trial < 200; trial++ {
		ps := randomPostings(rng, rng.Intn(300))
		if got := packedTerm(t, ps).AllPostings(); !slices.Equal(got, ps) {
			t.Fatalf("trial %d: %d postings did not round-trip", trial, len(ps))
		}
	}
}

// TestDecodeErrors: a payload or posting count that does not match the
// block overlay is refused before any block is decoded.
func TestDecodeErrors(t *testing.T) {
	ps := randomPostings(xrand.New(3), 3*BlockSize+20)
	for name, mutate := range map[string]func(ti *TermInfo){
		"truncated":   func(ti *TermInfo) { ti.Packed.Data = ti.Packed.Data[:len(ti.Packed.Data)/2] },
		"short count": func(ti *TermInfo) { ti.Packed.N -= BlockSize },
		"long count":  func(ti *TermInfo) { ti.Packed.N += BlockSize },
		"no count":    func(ti *TermInfo) { ti.Packed.N = 0 },
	} {
		ti := packedTerm(t, ps)
		mutate(ti)
		if err := ti.checkPackedGeometry(); err == nil {
			t.Errorf("%s: geometry accepted", name)
		}
	}
}

// TestCompressionShrinks: bit-packing stores a realistic list in under
// half the bytes gob needs for the flat postings.
func TestCompressionShrinks(t *testing.T) {
	ps := randomPostings(xrand.New(4), 10000)
	packed, _ := packPostings(ps, new([]byte))
	var raw bytes.Buffer
	if err := gob.NewEncoder(&raw).Encode(ps); err != nil {
		t.Fatal(err)
	}
	if len(packed.Data)*2 >= raw.Len() {
		t.Errorf("compression too weak: %d packed vs %d gob", len(packed.Data), raw.Len())
	}
}
