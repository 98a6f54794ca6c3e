// Command gencorpus regenerates the fuzz seed corpora under
// internal/{rpc,search,trace,index}/testdata/fuzz. Each corpus mirrors the in-code f.Add
// seeds — valid frames, truncations, and injector-style corruptions —
// but lives on disk so the fuzzer picks it up without running the seed
// round first, and so wire-format changes show up as corpus diffs.
//
// Usage: go run ./tools/gencorpus (from the repo root).
package main

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"log"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"cottage/internal/faults"
	"cottage/internal/index"
	"cottage/internal/obs"
	"cottage/internal/predict"
	"cottage/internal/rpc"
	"cottage/internal/search"
	"cottage/internal/trace"
)

// requestFrames concatenates the wire frames of reqs, as a client would
// write them down one connection.
func requestFrames(reqs ...*rpc.Request) []byte {
	var out []byte
	for _, r := range reqs {
		var err error
		if out, err = rpc.AppendRequest(out, r); err != nil {
			log.Fatal(err)
		}
	}
	return out
}

func responseFrames(resps ...*rpc.Response) []byte {
	var out []byte
	for _, r := range resps {
		var err error
		if out, err = rpc.AppendResponse(out, r); err != nil {
			log.Fatal(err)
		}
	}
	return out
}

// frame wraps payload the way internal/rpc/frame.go does:
// [4-byte LE length][4-byte CRC32C][payload].
func frame(payload []byte) []byte {
	out := make([]byte, 8, 8+len(payload))
	binary.LittleEndian.PutUint32(out[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[4:], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	return append(out, payload...)
}

// firstPayload returns the payload of the first frame in stream.
func firstPayload(stream []byte) []byte {
	return stream[8 : 8+binary.LittleEndian.Uint32(stream)]
}

// patch32 returns a copy of b with a little-endian uint32 overwritten.
func patch32(b []byte, off int, v uint32) []byte {
	m := bytes.Clone(b)
	binary.LittleEndian.PutUint32(m[off:], v)
	return m
}

// legacyGob is what a pre-codec peer would send: a raw gob stream.
func legacyGob(v any) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		log.Fatal(err)
	}
	return buf.Bytes()
}

func corrupt(b []byte) []byte {
	m := bytes.Clone(b)
	for i := 0; i < len(m); i += 7 {
		m[i] ^= 0x55
	}
	return m
}

func writeCorpus(dir string, entries map[string][]byte) {
	bodies := make(map[string]string, len(entries))
	for name, data := range entries {
		bodies[name] = "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
	}
	writeCorpusEntries(dir, bodies)
}

// writeCorpusEntries writes pre-rendered corpus bodies, for fuzz
// targets whose inputs are not a single []byte.
func writeCorpusEntries(dir string, bodies map[string]string) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	for name, body := range bodies {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			log.Fatal(err)
		}
	}
}

// anytimeEntry lays out one FuzzAnytimeDeadline input. It mirrors
// decodeAnytimeFuzz in internal/search/fuzz_test.go: 8-byte shard seed,
// k byte, two LE budgets (second is an increment over the first), a
// term-count byte, then one term-index byte per term (0 means absent).
func anytimeEntry(seed uint64, k byte, b1, extra uint16, termIdx ...byte) []byte {
	data := make([]byte, 14+len(termIdx))
	binary.LittleEndian.PutUint64(data[0:8], seed)
	data[8] = k
	binary.LittleEndian.PutUint16(data[9:11], b1)
	binary.LittleEndian.PutUint16(data[11:13], extra)
	data[13] = byte(len(termIdx) - 1)
	copy(data[14:], termIdx)
	return data
}

func main() {
	reqValid := requestFrames(
		&rpc.Request{Kind: rpc.KindSearch, ID: 1, Terms: []string{"ga", "gb"}, K: 10, DeadlineUS: 5000},
		&rpc.Request{Kind: rpc.KindPredict, ID: 2, Terms: []string{"tail", "latency"}},
		&rpc.Request{Kind: rpc.KindPing, ID: 3},
	)
	// Structurally valid, semantically absurd: the requests server-side
	// validation exists to reject (out-of-range K, oversized term lists,
	// giant terms, negative deadlines, unknown kinds). Mirrors
	// absurdRequests in internal/rpc/fuzz_test.go.
	reqAbsurd := requestFrames(
		&rpc.Request{Kind: rpc.KindSearch, ID: 10, Terms: []string{"ga"}, K: 0},
		&rpc.Request{Kind: rpc.KindSearch, ID: 11, Terms: []string{"ga"}, K: 2_000_000},
		&rpc.Request{Kind: rpc.KindPredict, ID: 12, Terms: make([]string, rpc.MaxTerms+36)},
		&rpc.Request{Kind: rpc.KindSearch, ID: 13, Terms: []string{strings.Repeat("z", 2048)}, K: 5},
		&rpc.Request{Kind: rpc.KindSearch, ID: 14, Terms: []string{"ga"}, K: 5, DeadlineUS: -1},
		&rpc.Request{Kind: rpc.Kind(99), ID: 15, K: 5},
	)
	// Malformed on purpose, one seed per rejection path: a cleanly framed
	// message cut short, a term count no frame could back (the count is
	// the last 4 bytes of a request's 54-byte fixed part, DESIGN.md §18),
	// a stale CRC, a header claiming more than a server reads, and what a
	// pre-codec peer would send, raw and framed.
	const reqTermCountOff = 50
	reqOne := firstPayload(reqValid)
	legacyReq := legacyGob(&rpc.Request{Kind: rpc.KindSearch, ID: 1, Terms: []string{"ga"}, K: 10})
	writeCorpus("internal/rpc/testdata/fuzz/FuzzDecodeRequest", map[string][]byte{
		"valid":        reqValid,
		"truncated":    reqValid[:len(reqValid)/2],
		"header":       reqValid[:7],
		"corrupted":    corrupt(reqValid),
		"absurd":       reqAbsurd,
		"shortmsg":     frame(reqOne[:20]),
		"count":        frame(patch32(reqOne, reqTermCountOff, 0xFFFFFFFF)),
		"badcrc":       patch32(reqValid, 4, 0xDEADBEEF),
		"oversize":     patch32(reqValid, 0, 1<<20),
		"legacy":       legacyReq,
		"legacyframed": frame(legacyReq),
	})
	writeCorpus("internal/rpc/testdata/fuzz/FuzzValidateRequest", map[string][]byte{
		"valid":  reqValid,
		"absurd": reqAbsurd,
	})

	respValid := responseFrames(
		&rpc.Response{ID: 1, Hits: []search.Hit{{Doc: 4, Score: 2.5}, {Doc: 9, Score: 1.1}},
			Stats: search.ExecStats{DocsScored: 40}},
		&rpc.Response{ID: 2, Pred: predict.Prediction{Matched: true, QK: 3, Cycles: 1e7}},
		&rpc.Response{ID: 3, Err: "deadline exceeded"},
		&rpc.Response{ID: 4, Spans: []obs.Span{{Trace: 7, ID: 8, Name: "serve.search",
			Attrs: map[string]string{"queue_wait_us": "3", "service_us": "40"}}}},
		&rpc.Response{ID: 5, ShardBytes: []byte("shard image")},
	)
	// The same rejection paths on the response side. A response's fixed
	// part is 130 bytes; the Err length follows it and, Err being empty
	// in the first frame, the hit count follows that.
	const respHitCountOff = 130 + 4
	respOne := firstPayload(respValid)
	legacyResp := legacyGob(&rpc.Response{ID: 1, Err: "deadline exceeded"})
	writeCorpus("internal/rpc/testdata/fuzz/FuzzDecodeResponse", map[string][]byte{
		"valid":        respValid,
		"truncated":    respValid[:len(respValid)/2],
		"header":       respValid[:9],
		"corrupted":    corrupt(respValid),
		"shortmsg":     frame(respOne[:100]),
		"count":        frame(patch32(respOne, respHitCountOff, 0xFFFFFFFF)),
		"badcrc":       patch32(respValid, 4, 0xDEADBEEF),
		"oversize":     patch32(respValid, 0, 0xFFFFFFF0),
		"legacy":       legacyResp,
		"legacyframed": frame(legacyResp),
	})
	// Trace Save/Load seeds: a valid replay file, its truncation and
	// corruption, and structurally-valid gob frames carrying exactly the
	// traces Load's validation exists to reject (out-of-order and
	// negative arrivals, empty and oversized term lists, giant terms).
	saveTrace := func(qs []trace.Query) []byte {
		var buf bytes.Buffer
		if err := trace.Save(&buf, qs); err != nil {
			log.Fatal(err)
		}
		return buf.Bytes()
	}
	traceValid := saveTrace([]trace.Query{
		{ID: 0, Terms: []string{"alpha"}, ArrivalMS: 0},
		{ID: 1, Terms: []string{"beta", "gamma"}, ArrivalMS: 12.5},
		{ID: 2, Terms: []string{"delta"}, ArrivalMS: 40},
	})
	writeCorpus("internal/trace/testdata/fuzz/FuzzTraceRoundTrip", map[string][]byte{
		"valid":     traceValid,
		"truncated": traceValid[:len(traceValid)/2],
		"header":    traceValid[:3],
		"corrupted": corrupt(traceValid),
		"reordered": saveTrace([]trace.Query{
			{ID: 0, Terms: []string{"late"}, ArrivalMS: 50},
			{ID: 1, Terms: []string{"early"}, ArrivalMS: 10},
		}),
		"negative-arrival": saveTrace([]trace.Query{{Terms: []string{"x"}, ArrivalMS: -4}}),
		"no-terms":         saveTrace([]trace.Query{{Terms: nil, ArrivalMS: 1}}),
		"too-many-terms":   saveTrace([]trace.Query{{Terms: make([]string, trace.MaxTermsPerQuery+9), ArrivalMS: 0}}),
		"giant-term":       saveTrace([]trace.Query{{Terms: []string{strings.Repeat("q", trace.MaxTermLen+1)}, ArrivalMS: 0}}),
	})

	writeCorpus("internal/search/testdata/fuzz/FuzzAnytimeDeadline", map[string][]byte{
		// Budget 0: the deadline fires before any range — the empty
		// truncated answer whose bound must still cover the shard.
		"zero-budget": anytimeEntry(1, 9, 0, 0, 5, 10),
		// A budget beyond any shard's posting count: must be bitwise
		// exhaustive with Terminated=false.
		"exhaustive": anytimeEntry(42, 9, 0xffff, 0xffff, 1, 2, 3),
		// Mid-traversal truncations at two nearby budgets exercise the
		// monotone-quality comparison where it can actually differ.
		"truncated": anytimeEntry(7, 4, 40, 25, 3, 3, 0, 17),
		// Absent-only query on the largest seed the decoder folds to.
		"absent": anytimeEntry(1023, 24, 100, 1, 0),
	})

	// Shard decode seeds: a valid file in the current format, truncations,
	// bit-flip rot at three densities (the at-rest corruption the CRC32C
	// plane exists to refuse), and a file sealed over a KthScore one ulp
	// too high (checksums agree; only validation refuses it). Mirrors
	// FuzzShardDecode's f.Add seeds in internal/index/fuzz_test.go. The
	// checked-in legacy-v3, legacy-v4, legacy-v5 and rot-v4 seeds are
	// files of the formats ReadShard no longer reads; they are not
	// regenerated. Finalize numbers terms in lexical order, so a rerun
	// writes the same bytes.
	buildShard := func() *index.Shard {
		b := index.NewBuilder(3, index.DefaultBM25(), 10)
		vocab := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
		for d := 0; d < 60; d++ {
			terms := make(map[string]int, len(vocab))
			for i, v := range vocab {
				if tf := (d + i) % 4; tf > 0 {
					terms[v] = tf
				}
			}
			b.Add(int64(1000+d), terms, 12)
		}
		return b.Finalize()
	}
	shard := buildShard()
	var shardBuf bytes.Buffer
	if err := shard.Encode(&shardBuf); err != nil {
		log.Fatal(err)
	}
	shardBytes := shardBuf.Bytes()
	rot := func(n int) []byte {
		m := bytes.Clone(shardBytes)
		faults.FlipBits(m, n, uint64(77+n))
		return m
	}
	wrong := buildShard()
	kth := &wrong.Terms[0].Stats.KthScore
	*kth = math.Nextafter(*kth, math.Inf(1))
	wrong.SealIntegrity()
	var overstated bytes.Buffer
	if err := wrong.Encode(&overstated); err != nil {
		log.Fatal(err)
	}
	writeCorpus("internal/index/testdata/fuzz/FuzzShardDecode", map[string][]byte{
		"valid":     shardBytes,
		"truncated": shardBytes[:len(shardBytes)/2],
		"header":    shardBytes[:11],
		"rot-1":     rot(1),
		"rot-16":    rot(16),
		"rot-256":   rot(256),
		"kth-ulp":   overstated.Bytes(),
	})

	// Packed-postings geometry seeds: the sub-wire fuzz target that
	// attacks checkPackedGeometry + DecodeBlockInto directly with
	// arbitrary payload bytes and overlay descriptors. Mirrors
	// FuzzPackedPostingsDecode's f.Add seeds (valid packing, truncation,
	// over-long payload, width overflow, nonsense counts).
	var multiTerm *index.TermInfo
	for i := range shard.Terms {
		if ti := &shard.Terms[i]; len(ti.Blocks) > 0 {
			if multiTerm == nil || ti.Len() > multiTerm.Len() {
				multiTerm = ti
			}
		}
	}
	if multiTerm == nil {
		log.Fatal("gencorpus: shard has no packed terms")
	}
	valid := bytes.Clone(multiTerm.Packed.Data)
	blocks := packedBlocksBytes(multiTerm.Blocks)
	wide := packedBlocksBytes(multiTerm.Blocks)
	wide[8] = 200 // DocW of block 0 beyond the 32-bit ceiling
	n := int64(multiTerm.Len())
	trunc := len(valid) / 2
	writeCorpusEntries("internal/index/testdata/fuzz/FuzzPackedPostingsDecode", map[string]string{
		"valid":     packedEntry(len(valid), n, valid, blocks),
		"truncated": packedEntry(trunc, n, valid[:trunc], blocks),
		"overlong":  packedEntry(len(valid)+64, n, append(bytes.Clone(valid), make([]byte, 64)...), blocks),
		"wide":      packedEntry(len(valid), n, valid, wide),
		"nonsense":  packedEntry(0, -3, []byte{}, []byte{}),
	})

	fmt.Println("corpus written under internal/{rpc,search,trace,index}/testdata/fuzz")
}

// packedBlocksBytes flattens a Block overlay the way the fuzz target's
// decoder reads it back: 16 bytes per block, little endian — MaxDoc,
// Off, DocW, TFW, 6 spare.
func packedBlocksBytes(blocks []index.Block) []byte {
	out := make([]byte, 0, 16*len(blocks))
	for _, b := range blocks {
		var rec [16]byte
		binary.LittleEndian.PutUint32(rec[0:], b.MaxDoc)
		binary.LittleEndian.PutUint32(rec[4:], b.Off)
		rec[8] = b.DocW
		rec[9] = b.TFW
		out = append(out, rec[:]...)
	}
	return out
}

// packedEntry renders one FuzzPackedPostingsDecode corpus entry in the
// go fuzz v1 format for the target's (int, int64, []byte, []byte)
// signature.
func packedEntry(dataLen int, n int64, data, rawBlocks []byte) string {
	return "go test fuzz v1\n" +
		"int(" + strconv.Itoa(dataLen) + ")\n" +
		"int64(" + strconv.FormatInt(n, 10) + ")\n" +
		"[]byte(" + strconv.Quote(string(data)) + ")\n" +
		"[]byte(" + strconv.Quote(string(rawBlocks)) + ")\n"
}
