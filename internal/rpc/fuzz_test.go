package rpc

import (
	"bytes"
	"encoding/gob"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"cottage/internal/obs"
	"cottage/internal/predict"
	"cottage/internal/search"
)

// The fuzz targets pin the wire contract of the frame layer and the
// codec behind it: arbitrary bytes — truncated frames, flipped bits,
// adversarial lengths and counts, a legacy gob stream — must come back
// as a typed error, never a panic and never an allocation a lying count
// sized. A panic here is a remote crash of a server (request path) or of
// the aggregator (response path). Whatever does decode must survive
// encode → decode unchanged. The f.Add seeds are the seed corpus —
// valid frames, truncations, mutations and one input per rejection
// path — so the fuzzer starts from structurally interesting inputs, and
// they are built by this package's own codec, so they follow a wire
// change. The files under testdata/fuzz are frozen inputs from a
// generator that no longer exists; nothing rewrites them.

// validRequests are one message of each verb a client sends: search,
// predict and ping.
func validRequests() []*Request {
	return []*Request{
		{Kind: KindSearch, ID: 1, Terms: []string{"ga", "gb"}, K: 10, DeadlineUS: 5000},
		{Kind: KindPredict, ID: 2, Terms: []string{"tail", "latency"}},
		{Kind: KindPing, ID: 3},
	}
}

// validResponses are one response of each shape a server sends: hits,
// a prediction, an error, spans and shard bytes.
func validResponses() []*Response {
	return []*Response{
		{ID: 1, Hits: []search.Hit{{Doc: 4, Score: 2.5}, {Doc: 9, Score: 1.1}},
			Stats: search.ExecStats{DocsScored: 40}},
		{ID: 2, Pred: predict.Prediction{Matched: true, QK: 3, Cycles: 1e7}},
		{ID: 3, Err: "deadline exceeded"},
		{ID: 4, Spans: []obs.Span{{Trace: 7, ID: 8, Name: "serve.search",
			Attrs: map[string]string{"queue_wait_us": "3", "service_us": "40"}}}},
		{ID: 5, ShardBytes: []byte("shard image")},
	}
}

// requestFrames concatenates the frames of reqs, as a client would
// write them down one connection.
func requestFrames(tb testing.TB, reqs ...*Request) []byte {
	var out []byte
	for _, r := range reqs {
		out = append(out, mustRequestFrame(tb, r)...)
	}
	return out
}

func responseFrames(tb testing.TB, resps ...*Response) []byte {
	var out []byte
	for _, r := range resps {
		out = append(out, mustResponseFrame(tb, r)...)
	}
	return out
}

// patch32 returns a copy of b with the little-endian uint32 at off
// overwritten by v.
func patch32(b []byte, off int, v uint32) []byte {
	m := bytes.Clone(b)
	le.PutUint32(m[off:], v)
	return m
}

// gobStream is what a pre-codec peer sent: v as a raw gob stream.
func gobStream(tb testing.TB, v any) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// typedStreamErr reports whether err is one of the errors a frame
// stream may end in.
func typedStreamErr(err error) bool {
	return err == io.EOF || err == io.ErrUnexpectedEOF || IsCorruptFrame(err) || IsBadFrame(err)
}

// drainRequests reads data the way Server.handle does — frames off one
// reader, stopping at the first error — and hands every request that
// decodes to visit. The stream's terminal error must be typed, and the
// exported ParseRequest must agree with the connection path on every
// frame.
func drainRequests(t *testing.T, data []byte, visit func(*Request)) {
	fr := newFrameReader(bytes.NewReader(data), maxRequestPayload)
	rest := data
	for i := 0; i < 8; i++ {
		payload, err := fr.next()
		var req Request
		if err == nil {
			err = parseRequest(payload, &req)
		}
		viaParse, after, perr := ParseRequest(rest)
		if (err == nil) != (perr == nil) || (err == nil && !reflect.DeepEqual(req, viaParse)) {
			t.Fatalf("frame %d: connection path (%v) and ParseRequest (%v) disagree", i, err, perr)
		}
		if err != nil {
			if !typedStreamErr(err) || !typedStreamErr(perr) {
				t.Fatalf("frame %d: untyped errors %v / %v", i, err, perr)
			}
			return
		}
		rest = after
		// Every count was backed by bytes of the frame.
		if termBytes := 4 * len(req.Terms); termBytes > len(payload) {
			t.Fatalf("frame %d: %d terms out of a %d-byte payload", i, len(req.Terms), len(payload))
		}
		again, _, err := ParseRequest(mustRequestFrame(t, &req))
		if err != nil || !reflect.DeepEqual(again, req) {
			t.Fatalf("frame %d: decode(encode(x)) != x: %v\n got %+v\nwant %+v", i, err, again, req)
		}
		visit(&req)
	}
}

func FuzzDecodeRequest(f *testing.F) {
	reqs := validRequests()
	valid := requestFrames(f, reqs...)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:7])
	f.Add([]byte{})
	mangled := bytes.Clone(valid)
	for i := 0; i < len(mangled); i += 7 {
		mangled[i] ^= 0x55 // the injector's corruption pattern
	}
	f.Add(mangled)
	// Structurally valid but semantically absurd requests — the frames
	// ValidateRequest exists to reject. Decoding them must stay boring;
	// the interesting mutations start from real out-of-range payloads.
	f.Add(requestFrames(f, absurdRequests()...))
	// Malformed on purpose, one seed per rejection path: a cleanly framed
	// message cut short, a term count no frame could back, a stale CRC
	// (the header is [length][CRC32C], four bytes each), a header
	// claiming more than a server reads, and what a pre-codec peer would
	// send, raw and framed.
	first := appendRequest(nil, reqs[0])
	legacy := gobStream(f, &Request{Kind: KindSearch, ID: 1, Terms: []string{"ga"}, K: 10})
	f.Add(frameOf(f, first[:20]))
	f.Add(frameOf(f, patch32(first, requestFixedLen-4, math.MaxUint32)))
	f.Add(patch32(valid, 4, 0xDEADBEEF))
	f.Add(patch32(valid, 0, 1<<20))
	f.Add(legacy)
	f.Add(frameOf(f, legacy))

	// Bare payloads: the CRC stops almost every mutated frame at the
	// frame layer, so the same bytes are also fed to the decoder sealed —
	// the peer that sends a well-framed malformed message.
	f.Add(appendRequest(nil, &Request{Kind: KindSearch, ID: 1, Terms: []string{"ga", "gb"}, K: 10}))

	f.Fuzz(func(t *testing.T, data []byte) {
		drainRequests(t, data, func(*Request) {})
		if len(data) <= maxRequestPayload {
			drainRequests(t, frameOf(t, data), func(*Request) {})
		}
	})
}

// absurdRequests are decodable requests that must fail validation:
// out-of-range K, oversized term lists, giant terms, negative deadlines,
// an unknown kind. The seed of both request fuzz targets.
func absurdRequests() []*Request {
	return []*Request{
		{Kind: KindSearch, ID: 10, Terms: []string{"ga"}, K: 0},
		{Kind: KindSearch, ID: 11, Terms: []string{"ga"}, K: 2_000_000},
		{Kind: KindPredict, ID: 12, Terms: make([]string, MaxTerms+36)},
		{Kind: KindSearch, ID: 13, Terms: []string{strings.Repeat("z", 2048)}, K: 5},
		{Kind: KindSearch, ID: 14, Terms: []string{"ga"}, K: 5, DeadlineUS: -1},
		{Kind: Kind(99), ID: 15, K: 5},
	}
}

// FuzzValidateRequest pins the server's pre-admission path: any frame
// that decodes must flow through ValidateRequest without panicking, and
// a request validation lets through must actually be in range — the
// invariants the dispatch layer relies on so absurd inputs never reach
// index evaluation.
func FuzzValidateRequest(f *testing.F) {
	f.Add(requestFrames(f, validRequests()...))
	f.Add(requestFrames(f, absurdRequests()...))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		drainRequests(t, data, func(req *Request) {
			if ValidateRequest(req) != nil {
				return
			}
			if req.Kind == KindSearch {
				if req.K <= 0 || req.K > MaxK {
					t.Fatalf("validation admitted K=%d", req.K)
				}
			}
			if len(req.Terms) > MaxTerms {
				t.Fatalf("validation admitted %d terms", len(req.Terms))
			}
			for _, term := range req.Terms {
				if len(term) > MaxTermLen {
					t.Fatalf("validation admitted a %d-byte term", len(term))
				}
			}
			if req.DeadlineUS < 0 {
				t.Fatalf("validation admitted deadline %d", req.DeadlineUS)
			}
		})
	})
}

func FuzzDecodeResponse(f *testing.F) {
	resps := validResponses()
	valid := responseFrames(f, resps...)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:9])
	f.Add([]byte{})
	mangled := bytes.Clone(valid)
	for i := 0; i < len(mangled); i += 7 {
		mangled[i] ^= 0x55
	}
	f.Add(mangled)
	// The same rejection paths as on the request side. The first
	// response's Err is empty, so its hit count follows the Err length.
	first := appendResponse(nil, resps[0])
	legacy := gobStream(f, &Response{ID: 1, Err: "deadline exceeded"})
	f.Add(frameOf(f, first[:100]))
	f.Add(frameOf(f, patch32(first, responseFixedLen+4, math.MaxUint32)))
	f.Add(patch32(valid, 4, 0xDEADBEEF))
	f.Add(patch32(valid, 0, 0xFFFFFFF0))
	f.Add(legacy)
	f.Add(frameOf(f, legacy))

	f.Add(appendResponse(nil, &Response{ID: 1, Hits: []search.Hit{{Doc: 4, Score: 2.5}}, Err: "e",
		Spans: []obs.Span{{Name: "s", Attrs: map[string]string{"k": "v"}}}, ShardBytes: []byte("shard")}))

	f.Fuzz(func(t *testing.T, data []byte) {
		drainResponses(t, data)
		drainResponses(t, frameOf(t, data)) // the same bytes as one sealed payload
	})
}

// drainResponses reads data the way a Client does: frames off one
// reader, stopping at the first error. See drainRequests.
func drainResponses(t *testing.T, data []byte) {
	fr := newFrameReader(bytes.NewReader(data), maxFramePayload)
	rest := data
	for i := 0; i < 8; i++ {
		payload, err := fr.next()
		var resp Response
		if err == nil {
			err = parseResponse(payload, &resp)
		}
		_, after, perr := ParseResponse(rest)
		if (err == nil) != (perr == nil) {
			t.Fatalf("frame %d: connection path (%v) and ParseResponse (%v) disagree", i, err, perr)
		}
		if err != nil {
			if !typedStreamErr(err) || !typedStreamErr(perr) {
				t.Fatalf("frame %d: untyped errors %v / %v", i, err, perr)
			}
			return
		}
		rest = after
		// Every count was backed by bytes of the frame.
		attrs := 0
		for _, sp := range resp.Spans {
			attrs += len(sp.Attrs)
		}
		if need := hitLen*len(resp.Hits) + spanMinLen*len(resp.Spans) + attrMinLen*attrs + len(resp.ShardBytes) + len(resp.Err); need > len(payload) {
			t.Fatalf("frame %d: decoded %d bytes' worth out of a %d-byte payload", i, need, len(payload))
		}
		// decode(encode(x)) == x, compared as bytes: scores may be NaN.
		once := mustResponseFrame(t, &resp)
		again, _, err := ParseResponse(once)
		if err != nil || !bytes.Equal(mustResponseFrame(t, &again), once) {
			t.Fatalf("frame %d: decode(encode(x)) != x: %v", i, err)
		}
	}
}
