package rpc

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"cottage/internal/obs"
	"cottage/internal/predict"
	"cottage/internal/search"
)

// fill sets everything reachable under v to a distinct non-zero value,
// so a field the codec forgets — including one added to Request,
// Response, search.Hit, search.ExecStats, predict.Prediction or obs.Span
// after this test was written — fails the round trip below instead of
// silently travelling as zero.
func fill(t *testing.T, v reflect.Value, n *int) {
	*n++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*n) << 33) // past 32 bits: a narrowed field shows
	case reflect.Uint32:
		v.SetUint(uint64(*n) << 17)
	case reflect.Uint64:
		v.SetUint(uint64(*n) << 41)
	case reflect.Float64:
		v.SetFloat(float64(*n) + 0.25)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *n))
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			v.SetBytes([]byte(fmt.Sprintf("bytes%d", *n)))
			return
		}
		s := reflect.MakeSlice(v.Type(), 3, 3)
		for i := 0; i < s.Len(); i++ {
			fill(t, s.Index(i), n)
		}
		v.Set(s)
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		for i := 0; i < 3; i++ {
			k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			fill(t, k, n)
			fill(t, e, n)
			m.SetMapIndex(k, e)
		}
		v.Set(m)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(t, v.Field(i), n)
		}
	case reflect.Pointer:
		// obs.Span.Decision, the one pointer in the tree: decision records
		// are built by the aggregator and never cross the wire.
		if v.Type() != reflect.TypeOf((*obs.DecisionRecord)(nil)) {
			t.Fatalf("new pointer field of type %v: the wire codec must carry it or say why not", v.Type())
		}
	default:
		t.Fatalf("field of kind %v: teach fill and the wire codec about it", v.Kind())
	}
}

func mustRequestFrame(t testing.TB, req *Request) []byte {
	t.Helper()
	frame, err := AppendRequest(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

func mustResponseFrame(t testing.TB, resp *Response) []byte {
	t.Helper()
	frame, err := AppendResponse(nil, resp)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

func TestRequestRoundTrip(t *testing.T) {
	var full Request
	n := 0
	fill(t, reflect.ValueOf(&full).Elem(), &n)
	maxTerms := make([]string, MaxTerms)
	for i := range maxTerms {
		maxTerms[i] = strings.Repeat(string(rune('a'+i%26)), 1+i)
	}
	cases := map[string]Request{
		"zero":        {},
		"every field": full,
		"ping":        {Kind: KindPing, ID: 3},
		"search":      {Kind: KindSearch, ID: 1, Terms: []string{"ga", "gb"}, K: 10, DeadlineUS: 5000, Anytime: true},
		"max terms":   {Kind: KindPredict, ID: 2, Terms: maxTerms, Trace: math.MaxUint64, Span: 1},
		"empty term":  {Kind: KindSearch, Terms: []string{"", "x", ""}, K: 1},
		"negative":    {Kind: Kind(-7), K: -1, DeadlineUS: math.MinInt64},
	}
	for name, want := range cases {
		frame := mustRequestFrame(t, &want)
		got, rest, err := ParseRequest(frame)
		if err != nil || len(rest) != 0 {
			t.Fatalf("%s: parse: err=%v, %d bytes left", name, err, len(rest))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: round trip\n got %+v\nwant %+v", name, got, want)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	var full Response
	n := 0
	fill(t, reflect.ValueOf(&full).Elem(), &n)
	hits := make([]search.Hit, 10)
	for i := range hits {
		hits[i] = search.Hit{Doc: int64(1000 - i), Local: uint32(i), Score: 9.5 - float64(i)}
	}
	cases := map[string]Response{
		"zero":        {},
		"every field": full,
		"search":      {ID: 1, Hits: hits, Stats: search.ExecStats{DocsScored: 40, BlocksSkipped: 2}},
		"predict": {ID: 2, Pred: predict.Prediction{Matched: true, QK: 3, QK2: 1, Cycles: 1e7, PZeroK: 0.1, PZeroK2: 0.4, ExpQK: 2.5},
			QueueDepth: 4, AvgServiceUS: 730},
		"error":   {ID: 3, Err: "deadline exceeded"},
		"anytime": {ID: 4, Hits: hits[:2], Terminated: true, ScoreBound: 3.25},
		"+inf":    {ID: 5, Terminated: true, ScoreBound: math.Inf(1)},
		"-inf":    {ID: 6, ScoreBound: math.Inf(-1)},
		"traced": {ID: 7, Spans: []obs.Span{
			{Trace: 9, ID: 10, Parent: 11, Name: "serve.search", ISN: -1, StartUS: 1_700_000_000_000_000, DurUS: 412,
				Attrs: map[string]string{"queue_wait_us": "3", "service_us": "409"}},
			{Trace: 9, ID: 12, Name: "bare"},
		}},
		"shard":       {ID: 8, ShardBytes: bytes.Repeat([]byte{0, 1, 2, 0xFF}, 3*frameReadBuf)},
		"quarantined": {ID: 9, Quarantined: true},
	}
	for code := CodeOK; code <= CodeQuarantined; code++ {
		cases[fmt.Sprintf("code %d", code)] = Response{ID: 20, Code: code, Err: "x"}
	}
	cases["unknown code"] = Response{Code: Code(-1)}
	for name, want := range cases {
		frame := mustResponseFrame(t, &want)
		got, rest, err := ParseResponse(frame)
		if err != nil || len(rest) != 0 {
			t.Fatalf("%s: parse: err=%v, %d bytes left", name, err, len(rest))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: round trip\n got %+v\nwant %+v", name, got, want)
		}
		if again := mustResponseFrame(t, &got); !bytes.Equal(again, frame) {
			t.Fatalf("%s: re-encoding the decoded value changed the bytes", name)
		}
	}

	// NaN != NaN, so the payload bits are compared instead.
	nan := math.Float64frombits(0x7FF8_0000_DEAD_BEEF)
	got, _, err := ParseResponse(mustResponseFrame(t, &Response{ScoreBound: nan, Hits: []search.Hit{{Score: nan}}}))
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.ScoreBound) != math.Float64bits(nan) || math.Float64bits(got.Hits[0].Score) != math.Float64bits(nan) {
		t.Fatalf("NaN payload not preserved: %x", math.Float64bits(got.ScoreBound))
	}
}

// TestWireGolden pins the exact bytes AppendRequest and AppendResponse
// put on the wire for the fuzz targets' valid seed messages, one
// SHA-256 per frame. The round-trip tests cannot see a field that moves,
// widens or changes its encoding on both sides at once; a peer built
// before the change can. A deliberate layout change bumps the message
// tag's layout version and these digests together.
func TestWireGolden(t *testing.T) {
	var frames [][]byte
	for _, r := range validRequests() {
		frames = append(frames, mustRequestFrame(t, r))
	}
	for _, r := range validResponses() {
		frames = append(frames, mustResponseFrame(t, r))
	}
	want := []struct{ name, sha256 string }{
		{"search", "7eef98cd2a54e5d7d773b60b2cb36158906dc592c35771ceb1394223010c988b"},
		{"predict", "1fb0c96774fd8990ccdaa40bf324acd14a8a3800f4b6194014114a059d7e1c3a"},
		{"ping", "571b0245e7d4f189c3e30ab2dfdb081faf258e352d24c18270c4a87753e91165"},
		{"hits", "9ab6b83fc4ad816b6d6f9fba7b77be939d3dcba3c9fb45fa18273ce775a2237a"},
		{"prediction", "159abf94de2b0627799d1c7a8902279638a773acaff255caf91e582390bad50a"},
		{"error", "44458cc70c62c9a184311e4648c294d51ce583a222386b47c4749aefc0763ef5"},
		{"spans", "84e9f6a5047f05426f14d45b351ce98d12f38607308d212ed9aeeba85912a77d"},
		{"shard bytes", "42408b57b13bb54ecd8333a19e2b22dc10420cb6f85684fac26d0f890b909c77"},
	}
	if len(frames) != len(want) {
		t.Fatalf("%d seed messages, %d digests", len(frames), len(want))
	}
	for i, frame := range frames {
		if got := fmt.Sprintf("%x", sha256.Sum256(frame)); got != want[i].sha256 {
			t.Errorf("%s frame: sha256 %s, want %s", want[i].name, got, want[i].sha256)
		}
	}
}

// TestDecodeRejectsMalformed pins what each kind of bad input turns
// into: a cut stream is an EOF, flipped bits are ErrCorruptFrame, and
// anything that framed and checksummed cleanly but is not a message —
// short, overlong, lying about a count, or a legacy gob stream — is
// ErrBadFrame. No lying count gets to size an allocation.
func TestDecodeRejectsMalformed(t *testing.T) {
	req := Request{Kind: KindSearch, ID: 1, Terms: []string{"ga", "gb"}, K: 10}
	resp := Response{ID: 1, Hits: []search.Hit{{Doc: 4, Score: 2.5}}, Err: "e",
		Spans: []obs.Span{{Name: "s", Attrs: map[string]string{"k": "v"}}}, ShardBytes: []byte("shard")}
	reqPayload := appendRequest(nil, &req)
	respPayload := appendResponse(nil, &resp)

	// Offsets of the count fields in respPayload.
	errLenOff := responseFixedLen
	hitCountOff := errLenOff + 4 + len(resp.Err)
	spanCountOff := hitCountOff + 4 + hitLen
	attrCountOff := spanCountOff + 4 + 6*8 + 4 + len("s")
	shardLenOff := len(respPayload) - len(resp.ShardBytes) - 4

	legacy := gobStream(t, &req)

	type bad struct {
		name  string
		frame []byte
		isReq bool
		check func(error) bool
	}
	eof := func(err error) bool { return err == io.ErrUnexpectedEOF }
	cases := []bad{
		{"request cut in the header", mustRequestFrame(t, &req)[:5], true, eof},
		{"request cut in the payload", mustRequestFrame(t, &req)[:20], true, eof},
		{"response cut in the payload", mustResponseFrame(t, &resp)[:40], false, eof},
		{"request bit flip", func() []byte { f := mustRequestFrame(t, &req); f[len(f)-1] ^= 0x40; return f }(), true, IsCorruptFrame},
		{"response bit flip", func() []byte { f := mustResponseFrame(t, &resp); f[12] ^= 1; return f }(), false, IsCorruptFrame},
		{"request short message", frameOf(t, reqPayload[:requestFixedLen-1]), true, IsBadFrame},
		{"response short message", frameOf(t, respPayload[:responseFixedLen-1]), false, IsBadFrame},
		{"request truncated inside a term", frameOf(t, reqPayload[:len(reqPayload)-1]), true, IsBadFrame},
		{"response truncated inside the shard", frameOf(t, respPayload[:len(respPayload)-1]), false, IsBadFrame},
		{"request trailing byte", frameOf(t, append(bytes.Clone(reqPayload), 0)), true, IsBadFrame},
		{"response trailing byte", frameOf(t, append(bytes.Clone(respPayload), 0)), false, IsBadFrame},
		{"request wrong tag", frameOf(t, append([]byte{tagResponse}, reqPayload[1:]...)), true, IsBadFrame},
		{"response wrong tag", frameOf(t, append([]byte{tagRequest}, respPayload[1:]...)), false, IsBadFrame},
		{"request unknown flag", frameOf(t, append([]byte{tagRequest, 0x80}, reqPayload[2:]...)), true, IsBadFrame},
		{"response unknown flag", frameOf(t, append([]byte{tagResponse, 0x08}, respPayload[2:]...)), false, IsBadFrame},
		{"term count overflow", frameOf(t, patch32(reqPayload, requestFixedLen-4, math.MaxUint32)), true, IsBadFrame},
		{"term length overflow", frameOf(t, patch32(reqPayload, requestFixedLen, math.MaxUint32)), true, IsBadFrame},
		{"err length overflow", frameOf(t, patch32(respPayload, errLenOff, math.MaxUint32)), false, IsBadFrame},
		{"hit count overflow", frameOf(t, patch32(respPayload, hitCountOff, math.MaxUint32/hitLen)), false, IsBadFrame},
		{"span count overflow", frameOf(t, patch32(respPayload, spanCountOff, 1<<24)), false, IsBadFrame},
		{"attr count overflow", frameOf(t, patch32(respPayload, attrCountOff, 1<<28)), false, IsBadFrame},
		{"shard length overflow", frameOf(t, patch32(respPayload, shardLenOff, math.MaxUint32)), false, IsBadFrame},
		{"oversize request header", patch32(mustRequestFrame(t, &req), 0, maxRequestPayload+1), true, IsBadFrame},
		{"oversize response header", patch32(mustResponseFrame(t, &resp), 0, maxFramePayload+1), false, IsBadFrame},
		{"framed legacy gob request", frameOf(t, legacy), true, IsBadFrame},
		{"framed legacy gob response", frameOf(t, legacy), false, IsBadFrame},
		{"raw legacy gob stream", legacy, true, func(err error) bool { return IsBadFrame(err) || IsCorruptFrame(err) }},
	}
	for _, c := range cases {
		decode := func() (err error) {
			if c.isReq {
				_, _, err = ParseRequest(c.frame)
			} else {
				_, _, err = ParseResponse(c.frame)
			}
			return err
		}
		if err := decode(); !c.check(err) {
			t.Errorf("%s: got error %v", c.name, err)
		}
		// A refused message is refused before a count sizes anything: what
		// a rejection allocates stays within reach of the frame's own size.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const runs = 8
		for i := 0; i < runs; i++ {
			_ = decode()
		}
		runtime.ReadMemStats(&after)
		if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun > uint64(8*len(c.frame)+1024) {
			t.Errorf("%s: rejecting a %d-byte frame allocated %d bytes", c.name, len(c.frame), perRun)
		}
	}
}

// TestCodecAllocs gates the codec's steady-state allocation counts: a
// message is appended into a grown buffer without allocating, and
// decoding allocates only what the decoded value owns.
func TestCodecAllocs(t *testing.T) {
	req := Request{Kind: KindSearch, ID: 1, Terms: []string{"tail", "latency", "budget"}, K: 10, DeadlineUS: 5000}
	hits := make([]search.Hit, 10)
	searchResp := Response{ID: 1, Hits: hits, Stats: search.ExecStats{DocsScored: 40}}
	predResp := Response{ID: 2, Pred: predict.Prediction{Matched: true, QK: 3, Cycles: 1e7}, QueueDepth: 1}
	tracedResp := Response{ID: 3, Spans: []obs.Span{{Name: "serve.predict",
		Attrs: map[string]string{"queue_wait_us": "3", "service_us": "409"}}}}

	buf := make([]byte, 0, 4096)
	encode := map[string]func(){
		"request":         func() { buf, _ = AppendRequest(buf[:0], &req) },
		"search response": func() { buf, _ = AppendResponse(buf[:0], &searchResp) },
		"predict response": func() {
			buf, _ = AppendResponse(buf[:0], &predResp)
		},
		"traced response": func() { buf, _ = AppendResponse(buf[:0], &tracedResp) },
	}
	for name, fn := range encode {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("encode %s: %v allocs, want 0", name, allocs)
		}
	}

	reqFrame, pingFrame := mustRequestFrame(t, &req), mustRequestFrame(t, &Request{Kind: KindPing})
	searchFrame, predFrame := mustResponseFrame(t, &searchResp), mustResponseFrame(t, &predResp)
	var gotReq Request
	var gotResp Response
	decode := []struct {
		name string
		want float64
		fn   func()
	}{
		{"ping request", 0, func() { gotReq, _, _ = ParseRequest(pingFrame) }},
		{"search request", 2, func() { gotReq, _, _ = ParseRequest(reqFrame) }}, // []string + one shared backing string
		{"predict response", 0, func() { gotResp, _, _ = ParseResponse(predFrame) }},
		{"search response", 1, func() { gotResp, _, _ = ParseResponse(searchFrame) }}, // []search.Hit
	}
	for _, d := range decode {
		if allocs := testing.AllocsPerRun(100, d.fn); allocs != d.want {
			t.Errorf("decode %s: %v allocs, want %v", d.name, allocs, d.want)
		}
	}
	_, _ = gotReq, gotResp
}
