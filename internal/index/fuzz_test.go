package index

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"cottage/internal/faults"
)

// The shard decoder's allocation rule. Per input byte: the buffer
// itself, a TermInfo (264 B) per 196-byte term record, a Block (24 B)
// per 18 bytes of overlay, and the dictionary. The slack is the norm
// table's ceiling (8 B × maxNormLen) and small fixed costs.
const (
	shardAllocPerByte = 4
	shardAllocSlack   = 8*maxNormLen + 64<<10
)

// FuzzShardDecode throws arbitrary bytes at the shard decode path. The
// contract under fuzzing: ReadShard never panics, allocates at most
// shardAllocPerByte bytes per input byte plus shardAllocSlack, and
// anything it accepts is fully intact — the stored digest and every
// block checksum verify, and the structural invariants hold — so no
// input can smuggle a corrupted or inconsistent shard past the load
// gate. Seeds cover a valid file, truncations, bit-flip rot (the at-rest
// corruption the checksums exist for), gob-era files stamped v3, v4 and
// v5 (refused by the format check, as is every frozen file under
// testdata/fuzz: those are gob-era shards, from writers that no longer
// exist), and a file whose writer overstated a KthScore by one ulp and
// sealed it: every checksum agrees, and only Validate's re-scoring can
// refuse it.
func FuzzShardDecode(f *testing.F) {
	valid := encodeShard(f, buildTestShard(f))
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:11])
	for _, n := range []int{1, 16, 256} {
		rotted := bytes.Clone(valid)
		faults.FlipBits(rotted, n, uint64(77+n))
		f.Add(rotted)
	}
	f.Add([]byte{})
	old := buildTestShard(f)
	f.Add(stampedWire(f, old, 3))
	f.Add(stampedWire(f, old, 4))
	f.Add(stampedWire(f, old, 5))
	rottedV4 := stampedWire(f, old, 4)
	faults.FlipBits(rottedV4, 16, 93)
	f.Add(rottedV4)
	overstated := buildTestShard(f)
	st := &overstated.Terms[0].Stats
	st.KthScore = math.Nextafter(st.KthScore, math.Inf(1))
	overstated.SealIntegrity()
	f.Add(encodeShard(f, overstated))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := ReadShard(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > uint64(shardAllocPerByte*len(data)+shardAllocSlack) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), got)
		}
		if err != nil {
			return
		}
		// Accepted: the eager load gate has already verified checksums and
		// structure. Both must agree on re-check from a cold memo.
		s.ResetVerification()
		if err := s.VerifyIntegrity(); err != nil {
			t.Fatalf("accepted shard fails re-verification: %v", err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("accepted shard fails validation: %v", err)
		}
		// And it must survive a round trip bit-identically stable: encode
		// of the decode re-loads clean with the same digest.
		var buf bytes.Buffer
		if err := s.Encode(&buf); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		s2, err := ReadShard(&buf)
		if err != nil {
			t.Fatalf("re-encoded shard rejected: %v", err)
		}
		if s2.Digest != s.Digest {
			t.Fatalf("digest drifted across round trip: %08x -> %08x", s.Digest, s2.Digest)
		}
	})
}

// packedFuzzTerm builds a one-term fixture whose packed regions the
// fuzzer mutates directly.
func packedFuzzTerm(f *testing.F) (*Shard, []Posting) {
	f.Helper()
	b := NewBuilder(0, DefaultBM25(), 10)
	ps := make([]Posting, 0, 3*BlockSize+7)
	doc := uint32(0)
	for d := 0; d < 3*BlockSize+7; d++ {
		ps = append(ps, Posting{Doc: doc, TF: uint32(1 + d%9)})
		doc += uint32(1 + d%5)
	}
	// Every document is 30 tokens long; the ones between postings lack
	// the term.
	next := 0
	for doc := 0; doc <= int(ps[len(ps)-1].Doc); doc++ {
		var terms map[string]int
		if p := ps[next]; int(p.Doc) == doc {
			terms = map[string]int{"t": int(p.TF)}
			next++
		}
		b.Add(int64(doc), terms, 30)
	}
	s := b.Finalize()
	if err := s.Validate(); err != nil {
		f.Fatal(err)
	}
	return s, ps
}

// FuzzPackedPostingsDecode attacks the packed layer below the wire
// format: arbitrary payload bytes and overlay geometry (posting count,
// offsets, widths) for one term. The contract: checkPackedGeometry
// either rejects, or every block decodes without panicking and the
// the validation pipeline classifies the result — geometry that lies
// about its sizes must never reach the decoder. Seeds cover the valid
// packing, truncations, over-long payloads, and width overflows.
func FuzzPackedPostingsDecode(f *testing.F) {
	s, _ := packedFuzzTerm(f)
	ti := &s.Terms[0]
	valid := append([]byte(nil), ti.Packed.Data...)
	f.Add(len(valid), int64(ti.Packed.N), valid, encodeBlocksFuzz(ti.Blocks))
	f.Add(len(valid)-17, int64(ti.Packed.N), valid[:len(valid)-17], encodeBlocksFuzz(ti.Blocks))
	f.Add(len(valid)+64, int64(ti.Packed.N), append(bytes.Clone(valid), make([]byte, 64)...), encodeBlocksFuzz(ti.Blocks))
	wide := append([]Block(nil), ti.Blocks...)
	wide[0].DocW = 200
	f.Add(len(valid), int64(ti.Packed.N), valid, encodeBlocksFuzz(wide))
	f.Add(0, int64(-3), []byte{}, []byte{})
	f.Fuzz(func(t *testing.T, dataLen int, n int64, data []byte, rawBlocks []byte) {
		blocks := decodeBlocksFuzz(rawBlocks)
		if dataLen >= 0 && dataLen <= len(data) {
			data = data[:dataLen]
		}
		fz := &TermInfo{Text: "t", Packed: PackedPostings{N: int(n), Data: data}, Blocks: blocks}
		if err := fz.checkPackedGeometry(); err != nil {
			return // rejected before any decode: the safe outcome
		}
		// Geometry accepted: every block must decode in bounds.
		var docs, tfs [BlockSize]uint32
		total := 0
		for bi := range fz.Blocks {
			cnt := fz.DecodeBlockInto(bi, &docs, &tfs)
			if cnt < 1 || cnt > BlockSize {
				t.Fatalf("block %d decodes %d postings", bi, cnt)
			}
			total += cnt
		}
		if total != fz.Packed.N {
			t.Fatalf("blocks decode %d postings, geometry says %d", total, fz.Packed.N)
		}
		if got := fz.AllPostings(); len(got) != fz.Packed.N {
			t.Fatalf("AllPostings returned %d of %d", len(got), fz.Packed.N)
		}
	})
}

// encodeBlocksFuzz flattens a Block overlay into bytes the fuzzer can
// mutate structurally (16 bytes per block, little endian: MaxDoc, Off,
// DocW, TFW, 6 spare).
func encodeBlocksFuzz(blocks []Block) []byte {
	out := make([]byte, 0, 16*len(blocks))
	for _, b := range blocks {
		var rec [16]byte
		putU32(rec[0:], b.MaxDoc)
		putU32(rec[4:], b.Off)
		rec[8] = b.DocW
		rec[9] = b.TFW
		out = append(out, rec[:]...)
	}
	return out
}

func decodeBlocksFuzz(raw []byte) []Block {
	blocks := make([]Block, 0, len(raw)/16)
	for len(raw) >= 16 {
		blocks = append(blocks, Block{
			MaxDoc: getU32(raw[0:]),
			Off:    getU32(raw[4:]),
			DocW:   raw[8],
			TFW:    raw[9],
		})
		raw = raw[16:]
	}
	return blocks
}

func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

func getU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
