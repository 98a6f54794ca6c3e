package index

import (
	"fmt"

	"cottage/internal/simdpack"
)

// Packed postings layout (the only one): a term's document-ordered
// postings are tiled into the same 64-posting blocks the block-max overlay
// already summarizes, and each block is stored bit-packed at a per-block
// fixed width — document IDs as gaps from the previous document
// (delta-coded against the preceding block's MaxDoc across block
// boundaries), term frequencies as tf-1 (an all-ones block packs to
// zero bytes). The payloads of all blocks sit back to back in one byte
// slice per term, followed by simdpack.Pad readable slack for the
// vectorized decoders. The Block overlay doubles as the skip list: its
// Off/DocW/TFW fields locate and describe each block's bytes, MaxDoc
// bounds its document span, and Max bounds its scores — so seeking
// means a binary search over Blocks plus one block decode, never a
// sequential scan.
//
// A partial trailing block (fewer than 64 live postings) is NOT padded
// out to 64 vertical lanes — that would charge rare terms a full
// block's bytes for a handful of postings, and rare terms dominate any
// Zipf vocabulary. Instead the tail is stored horizontally: the live
// gaps bit-packed back to back LSB-first at DocW bits each, then the
// live tf-1 values at TFW bits each, byte-aligned between the two runs
// and sized exactly ceil(n*w/8). Tails are decoded by a scalar loop —
// they hold at most 63 postings and sit at the end of a traversal, so
// they are never the hot path the SIMD kernels exist for. Terms with no
// full block (N < BlockSize) carry no decoder pad either, because the
// vectorized unpackers never touch them; decoders derive the live
// count from Packed.N.

// PackedPostings is one term's bit-packed postings payload.
type PackedPostings struct {
	// N is the posting count (the authoritative list length; the last
	// block holds N - (len(Blocks)-1)*BlockSize live postings).
	N int
	// Data holds every block's packed payload back to back at the
	// offsets recorded in the Block overlay, plus simdpack.Pad trailing
	// bytes of readable slack when any block is full (vertical) and
	// therefore read by the vectorized unpackers.
	Data []byte
}

// Len returns the term's posting count.
func (ti *TermInfo) Len() int { return ti.Packed.N }

// packPostings packs a document-ordered postings list, returning the
// payload and the geometric skeleton of the block overlay (Off, DocW,
// TFW, MaxDoc filled; Max is the caller's to fill from the per-posting
// scores). The payload is built in *scratch, which the caller reuses
// across terms, and returned as an exact-size copy, so a built shard
// holds only its bytes. Non-ascending or zero-tf inputs survive the
// round trip bit-exactly (gap arithmetic wraps mod 2^32), so Validate
// still sees — and rejects — them after packing.
func packPostings(ps []Posting, scratch *[]byte) (PackedPostings, []Block) {
	if len(ps) == 0 {
		return PackedPostings{}, nil
	}
	blocks := make([]Block, 0, (len(ps)+BlockSize-1)/BlockSize)
	data := (*scratch)[:0]
	prev := uint32(0)
	for lo := 0; lo < len(ps); lo += BlockSize {
		hi := min(lo+BlockSize, len(ps))
		live := hi - lo
		var gaps, tfm1 [BlockSize]uint32
		p := prev
		for i := lo; i < hi; i++ {
			gaps[i-lo] = ps[i].Doc - p
			p = ps[i].Doc
			tfm1[i-lo] = ps[i].TF - 1
		}
		docW := simdpack.Width(gaps[:live])
		tfW := simdpack.Width(tfm1[:live])
		off := len(data)
		data = append(data, make([]byte, payloadBytes(live, docW)+payloadBytes(live, tfW))...)
		if live == BlockSize {
			simdpack.Pack(data[off:], &gaps, docW)
			simdpack.Pack(data[off+simdpack.PackedBytes(docW):], &tfm1, tfW)
		} else {
			packTail(data[off:], gaps[:live], docW)
			packTail(data[off+tailBytes(live, docW):], tfm1[:live], tfW)
		}
		blocks = append(blocks, Block{
			MaxDoc: ps[hi-1].Doc,
			Off:    uint32(off),
			DocW:   uint8(docW),
			TFW:    uint8(tfW),
		})
		prev = ps[hi-1].Doc
	}
	if len(ps) >= BlockSize {
		data = append(data, make([]byte, simdpack.Pad)...)
	}
	*scratch = data
	return PackedPostings{N: len(ps), Data: append(make([]byte, 0, len(data)), data...)}, blocks
}

// payloadBytes is the packed size of one run of a block's live values at
// width w: vertical m128-word sizing for a full block, exact horizontal
// sizing for a partial tail.
func payloadBytes(live int, w uint32) int {
	if live == BlockSize {
		return simdpack.PackedBytes(w)
	}
	return tailBytes(live, w)
}

// tailBytes is the horizontal payload size of n values at width w:
// n*w bits rounded up to whole bytes.
func tailBytes(n int, w uint32) int {
	return (n*int(w) + 7) / 8
}

// packTail bit-packs vals back to back LSB-first at width w into dst.
// dst[:tailBytes(len(vals), w)] must be zeroed; every value must fit in
// w bits. Like Pack this runs once at build time, so it is scalar.
func packTail(dst []byte, vals []uint32, w uint32) {
	if w == 0 {
		return
	}
	bit := 0
	for _, v := range vals {
		for b := uint32(0); b < w; b++ {
			if v&(1<<b) != 0 {
				dst[bit>>3] |= 1 << (bit & 7)
			}
			bit++
		}
	}
}

// unpackTail decodes n horizontally packed values at width w from src
// into dst[:n], streaming bytes through a 64-bit window so the cost is
// ~one shift/mask per value. It reads exactly tailBytes(n, w) bytes.
// Tails sit on the query hot path for rare terms (a short list is all
// tail), so this must stay fast even though it is scalar.
func unpackTail(src []byte, w uint32, n int, dst *[BlockSize]uint32) {
	if w == 0 {
		for i := 0; i < n; i++ {
			dst[i] = 0
		}
		return
	}
	mask := uint32(uint64(1)<<w - 1)
	acc := uint64(0)
	bits := uint32(0)
	off := 0
	for i := 0; i < n; i++ {
		for bits < w {
			acc |= uint64(src[off]) << bits
			off++
			bits += 8
		}
		dst[i] = uint32(acc) & mask
		acc >>= w
		bits -= w
	}
}

// blockBase returns the delta base of block bi: the previous block's
// last document, or zero for the first block.
func (ti *TermInfo) blockBase(bi int) uint32 {
	if bi == 0 {
		return 0
	}
	return ti.Blocks[bi-1].MaxDoc
}

// DecodeBlockInto decodes block bi into caller-owned arrays — documents
// reconstructed from their gaps, term frequencies from tf-1 — and
// returns the block's live posting count (BlockSize except possibly for
// the last block). It is the only read path into packed postings and is
// allocation-free; checkPackedGeometry must have accepted the term (as
// Validate guarantees for every built or loaded shard) or the slicing
// below may panic.
func (ti *TermInfo) DecodeBlockInto(bi int, docs, tfs *[BlockSize]uint32) int {
	blk := &ti.Blocks[bi]
	off := int(blk.Off)
	if live := ti.Packed.N - bi*BlockSize; live < BlockSize {
		// Horizontal tail: scalar-decode the live lanes, then fill the
		// dead ones the way a zero-gap / zero-tf-1 vertical block would
		// have (repeat the last document, tf 1), so in-block scans that
		// run past the live region see the same values either way.
		unpackTail(ti.Packed.Data[off:], uint32(blk.DocW), live, docs)
		d := ti.blockBase(bi)
		for i := 0; i < live; i++ {
			d += docs[i]
			docs[i] = d
		}
		unpackTail(ti.Packed.Data[off+tailBytes(live, uint32(blk.DocW)):], uint32(blk.TFW), live, tfs)
		for i := 0; i < live; i++ {
			tfs[i]++
		}
		for i := live; i < BlockSize; i++ {
			docs[i] = d
			tfs[i] = 1
		}
		return live
	}
	docBytes := simdpack.PackedBytes(uint32(blk.DocW))
	simdpack.UnpackDeltas(ti.Packed.Data[off:], uint32(blk.DocW), ti.blockBase(bi), docs)
	simdpack.UnpackInc(ti.Packed.Data[off+docBytes:], uint32(blk.TFW), tfs)
	return BlockSize
}

// Posting decodes the i-th posting. It decodes a whole block to return
// one value, so it is for spot reads (tests, tools); traversals use
// DecodeBlockInto or AllPostings.
func (ti *TermInfo) Posting(i int) Posting {
	var docs, tfs [BlockSize]uint32
	ti.DecodeBlockInto(i/BlockSize, &docs, &tfs)
	return Posting{Doc: docs[i%BlockSize], TF: tfs[i%BlockSize]}
}

// AllPostings materializes the full postings list in document order —
// the bridge for cold paths (stats recomputation, differential tests)
// that want the flat slice back.
func (ti *TermInfo) AllPostings() []Posting {
	out := make([]Posting, 0, ti.Packed.N)
	var docs, tfs [BlockSize]uint32
	for bi := range ti.Blocks {
		n := ti.DecodeBlockInto(bi, &docs, &tfs)
		for i := 0; i < n; i++ {
			out = append(out, Posting{Doc: docs[i], TF: tfs[i]})
		}
	}
	return out
}

// blockPayloadBytes returns the packed payload size of block bi.
func (ti *TermInfo) blockPayloadBytes(bi int) int {
	blk := &ti.Blocks[bi]
	live := min(ti.Packed.N-bi*BlockSize, BlockSize)
	return payloadBytes(live, uint32(blk.DocW)) + payloadBytes(live, uint32(blk.TFW))
}

// BlockData returns the packed payload bytes of block bi — the exact
// region its integrity checksum covers. Corruption-injection tests flip
// bits here; nothing else should write through it.
func (ti *TermInfo) BlockData(bi int) []byte {
	blk := &ti.Blocks[bi]
	lo := int(blk.Off)
	return ti.Packed.Data[lo : lo+ti.blockPayloadBytes(bi)]
}

// checkPackedGeometry validates the structural invariants that make
// decoding safe: widths within 0..32, offsets contiguous from zero, the
// payload exactly accounted for (plus the pad), and the posting count
// consistent with the block count. It must pass before any
// DecodeBlockInto; ReadShard and Validate enforce that ordering.
func (ti *TermInfo) checkPackedGeometry() error {
	n := ti.Packed.N
	if n <= 0 {
		return fmt.Errorf("index: term %q has non-positive packed posting count %d", ti.Text, n)
	}
	want := (n + BlockSize - 1) / BlockSize
	if len(ti.Blocks) != want {
		return fmt.Errorf("index: term %q has %d blocks for %d postings, want %d", ti.Text, len(ti.Blocks), n, want)
	}
	off := 0
	for bi := range ti.Blocks {
		blk := &ti.Blocks[bi]
		if blk.DocW > 32 || blk.TFW > 32 {
			return fmt.Errorf("index: term %q block %d has bit width beyond 32 (doc %d, tf %d)",
				ti.Text, bi, blk.DocW, blk.TFW)
		}
		if int(blk.Off) != off {
			return fmt.Errorf("index: term %q block %d offset %d, want %d", ti.Text, bi, blk.Off, off)
		}
		off += ti.blockPayloadBytes(bi)
	}
	pad := 0
	if n >= BlockSize {
		// Only terms with at least one full vertical block are read by
		// the vectorized unpackers, so only they need the decoder slack.
		pad = simdpack.Pad
	}
	if len(ti.Packed.Data) != off+pad {
		return fmt.Errorf("index: term %q packed payload is %d bytes, want %d+%d pad",
			ti.Text, len(ti.Packed.Data), off, pad)
	}
	return nil
}
