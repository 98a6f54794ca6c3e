package rpc

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"cottage/internal/obs"
	"cottage/internal/search"
	"cottage/internal/wire"
)

// Wire codec: one hand-written, fixed-layout encoding of Request and
// Response — every verb and every field, traced and untraced alike — so
// a message is appended straight into the connection's frame buffer and
// parsed straight out of the frame reader's, with no reflection, no
// per-connection type table and no intermediate copy.
//
// Fields follow internal/wire's rule (a map is a count and its pairs);
// bools share one flags byte, and a message starts with a tag byte
// naming it and this layout's version. The fixed part of each message
// sits at constant offsets; the variable part follows in declaration
// order. DESIGN.md §18 has the tables. Decoding trusts nothing: counts
// are checked before allocation (wire.Reader), unknown tag or flag bits
// are refused, and a message must fill its frame exactly. Every failure is ErrBadFrame — the payload passed its CRC,
// so it was sent malformed, not mangled in transit.

const (
	tagRequest  = 0xC1 // Request, layout 1
	tagResponse = 0xC3 // Response, layout 2

	reqAnytime = 1 << 0

	respTerminated  = 1 << 0
	respQuarantined = 1 << 1
	respMatched     = 1 << 2 // Pred.Matched

	// requestFixedLen: tag, flags, Kind, ID, K, DeadlineUS, Trace, Span,
	// term count.
	requestFixedLen = 2 + 6*8 + 4
	// responseFixedLen: tag, flags, ID, Code, ScoreBound, QueueDepth,
	// AvgServiceUS, the five ExecStats counters, the six Prediction
	// fields.
	responseFixedLen = 2 + 5*8 + 5*8 + 6*8

	hitLen     = 8 + 4 + 8 // Doc, Local, Score
	spanMinLen = 6*8 + 4 + 4
	attrMinLen = 4 + 4
)

var le = binary.LittleEndian

// appendRequest appends req's payload to dst.
func appendRequest(dst []byte, req *Request) []byte {
	var flags byte
	if req.Anytime {
		flags |= reqAnytime
	}
	dst = append(dst, tagRequest, flags)
	dst = le.AppendUint64(dst, uint64(req.Kind))
	dst = le.AppendUint64(dst, req.ID)
	dst = le.AppendUint64(dst, uint64(req.K))
	dst = le.AppendUint64(dst, uint64(req.DeadlineUS))
	dst = le.AppendUint64(dst, req.Trace)
	dst = le.AppendUint64(dst, req.Span)
	dst = le.AppendUint32(dst, uint32(len(req.Terms)))
	for _, t := range req.Terms {
		dst = wire.AppendString(dst, t)
	}
	return dst
}

// appendResponse appends resp's payload to dst. Span.Decision is not a
// wire field: decision records are built by the aggregator and never
// leave it, so ISN serve spans carry none.
func appendResponse(dst []byte, resp *Response) []byte {
	var flags byte
	if resp.Terminated {
		flags |= respTerminated
	}
	if resp.Quarantined {
		flags |= respQuarantined
	}
	if resp.Pred.Matched {
		flags |= respMatched
	}
	dst = append(dst, tagResponse, flags)
	dst = le.AppendUint64(dst, resp.ID)
	dst = le.AppendUint64(dst, uint64(resp.Code))
	dst = le.AppendUint64(dst, math.Float64bits(resp.ScoreBound))
	dst = le.AppendUint64(dst, uint64(resp.QueueDepth))
	dst = le.AppendUint64(dst, uint64(resp.AvgServiceUS))
	st := &resp.Stats
	dst = le.AppendUint64(dst, uint64(st.PostingsTraversed))
	dst = le.AppendUint64(dst, uint64(st.DocsScored))
	dst = le.AppendUint64(dst, uint64(st.HeapInserts))
	dst = le.AppendUint64(dst, uint64(st.TermsMatched))
	dst = le.AppendUint64(dst, uint64(st.BlocksSkipped))
	p := &resp.Pred
	dst = le.AppendUint64(dst, uint64(p.QK))
	dst = le.AppendUint64(dst, uint64(p.QK2))
	dst = le.AppendUint64(dst, math.Float64bits(p.Cycles))
	dst = le.AppendUint64(dst, math.Float64bits(p.PZeroK))
	dst = le.AppendUint64(dst, math.Float64bits(p.PZeroK2))
	dst = le.AppendUint64(dst, math.Float64bits(p.ExpQK))

	dst = wire.AppendString(dst, resp.Err)
	dst = le.AppendUint32(dst, uint32(len(resp.Hits)))
	for i := range resp.Hits {
		h := &resp.Hits[i]
		dst = le.AppendUint64(dst, uint64(h.Doc))
		dst = le.AppendUint32(dst, h.Local)
		dst = le.AppendUint64(dst, math.Float64bits(h.Score))
	}
	dst = le.AppendUint32(dst, uint32(len(resp.Spans)))
	for i := range resp.Spans {
		dst = appendSpan(dst, &resp.Spans[i])
	}
	dst = le.AppendUint32(dst, uint32(len(resp.ShardBytes)))
	return append(dst, resp.ShardBytes...)
}

func appendSpan(dst []byte, sp *obs.Span) []byte {
	dst = le.AppendUint64(dst, sp.Trace)
	dst = le.AppendUint64(dst, sp.ID)
	dst = le.AppendUint64(dst, sp.Parent)
	dst = le.AppendUint64(dst, uint64(sp.ISN))
	dst = le.AppendUint64(dst, uint64(sp.StartUS))
	dst = le.AppendUint64(dst, uint64(sp.DurUS))
	dst = wire.AppendString(dst, sp.Name)
	dst = le.AppendUint32(dst, uint32(len(sp.Attrs)))
	// Attributes go out in key order so equal spans encode to equal bytes.
	var stack [8]string
	keys := stack[:0]
	for k := range sp.Attrs {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		dst = wire.AppendString(dst, k)
		dst = wire.AppendString(dst, sp.Attrs[k])
	}
	return dst
}

func badMessage(what, why string) error {
	return fmt.Errorf("%w: %s: %s", ErrBadFrame, what, why)
}

// parseRequest decodes one request payload into req, overwriting every
// field. The terms share a single backing string, so a request costs
// two allocations however many terms it carries.
func parseRequest(p []byte, req *Request) error {
	if len(p) < requestFixedLen {
		return badMessage("request", "short message")
	}
	if p[0] != tagRequest {
		return badMessage("request", "unknown message tag")
	}
	if p[1]&^reqAnytime != 0 {
		return badMessage("request", "unknown flag bits")
	}
	*req = Request{
		Anytime:    p[1]&reqAnytime != 0,
		Kind:       Kind(le.Uint64(p[2:])),
		ID:         le.Uint64(p[10:]),
		K:          int(le.Uint64(p[18:])),
		DeadlineUS: int64(le.Uint64(p[26:])),
		Trace:      le.Uint64(p[34:]),
		Span:       le.Uint64(p[42:]),
	}
	c := wire.Reader{B: p[requestFixedLen-4:]}
	if n := c.Count(4); n > 0 {
		// The term region is [len][bytes] repeated; convert it once and
		// slice each term out of the copy.
		region := string(c.B)
		req.Terms = make([]string, n)
		for i := range req.Terms {
			l := c.Count(1)
			if c.Bad {
				break
			}
			off := len(region) - len(c.B)
			req.Terms[i] = region[off : off+l]
			c.B = c.B[l:]
		}
	}
	if c.Bad {
		return badMessage("request", "term count or length overruns the frame")
	}
	if len(c.B) != 0 {
		return badMessage("request", "trailing bytes")
	}
	return nil
}

// parseResponse decodes one response payload into resp, overwriting
// every field. Nothing in resp aliases p.
func parseResponse(p []byte, resp *Response) error {
	if len(p) < responseFixedLen {
		return badMessage("response", "short message")
	}
	if p[0] != tagResponse {
		return badMessage("response", "unknown message tag")
	}
	flags := p[1]
	if flags&^(respTerminated|respQuarantined|respMatched) != 0 {
		return badMessage("response", "unknown flag bits")
	}
	f := p[2:responseFixedLen]
	u := func(i int) uint64 { return le.Uint64(f[8*i:]) }
	*resp = Response{
		Terminated:   flags&respTerminated != 0,
		Quarantined:  flags&respQuarantined != 0,
		ID:           u(0),
		Code:         Code(u(1)),
		ScoreBound:   math.Float64frombits(u(2)),
		QueueDepth:   int(u(3)),
		AvgServiceUS: int64(u(4)),
	}
	resp.Stats = search.ExecStats{
		PostingsTraversed: int(u(5)),
		DocsScored:        int(u(6)),
		HeapInserts:       int(u(7)),
		TermsMatched:      int(u(8)),
		BlocksSkipped:     int(u(9)),
	}
	resp.Pred.Matched = flags&respMatched != 0
	resp.Pred.QK = int(u(10))
	resp.Pred.QK2 = int(u(11))
	resp.Pred.Cycles = math.Float64frombits(u(12))
	resp.Pred.PZeroK = math.Float64frombits(u(13))
	resp.Pred.PZeroK2 = math.Float64frombits(u(14))
	resp.Pred.ExpQK = math.Float64frombits(u(15))

	c := wire.Reader{B: p[responseFixedLen:]}
	resp.Err = c.Str()
	if n := c.Count(hitLen); n > 0 {
		resp.Hits = make([]search.Hit, n)
		for i := range resp.Hits {
			h := c.B[i*hitLen:]
			resp.Hits[i] = search.Hit{
				Doc:   int64(le.Uint64(h)),
				Local: le.Uint32(h[8:]),
				Score: math.Float64frombits(le.Uint64(h[12:])),
			}
		}
		c.B = c.B[n*hitLen:]
	}
	if n := c.Count(spanMinLen); n > 0 {
		resp.Spans = make([]obs.Span, n)
		for i := range resp.Spans {
			parseSpan(&c, &resp.Spans[i])
		}
	}
	if b := c.Bytes(); len(b) > 0 {
		resp.ShardBytes = append([]byte(nil), b...)
	}
	if c.Bad {
		return badMessage("response", "count or length overruns the frame")
	}
	if len(c.B) != 0 {
		return badMessage("response", "trailing bytes")
	}
	return nil
}

func parseSpan(c *wire.Reader, sp *obs.Span) {
	sp.Trace = c.U64()
	sp.ID = c.U64()
	sp.Parent = c.U64()
	sp.ISN = int(c.U64())
	sp.StartUS = int64(c.U64())
	sp.DurUS = int64(c.U64())
	sp.Name = c.Str()
	if n := c.Count(attrMinLen); n > 0 {
		sp.Attrs = make(map[string]string, n)
		for i := 0; i < n; i++ {
			k := c.Str()
			sp.Attrs[k] = c.Str()
		}
	}
}

// AppendRequest appends req to dst as one complete checksummed frame —
// exactly the bytes a Client puts on the wire. It fails with
// ErrBadRequest when the request is larger than any server will read.
func AppendRequest(dst []byte, req *Request) ([]byte, error) {
	start := len(dst)
	dst = appendRequest(beginFrame(dst), req)
	if err := sealFrame(dst, start, maxRequestPayload); err != nil {
		return dst[:start], fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return dst, nil
}

// AppendResponse appends resp to dst as one complete checksummed frame
// — exactly the bytes a Server puts on the wire.
func AppendResponse(dst []byte, resp *Response) ([]byte, error) {
	start := len(dst)
	dst = appendResponse(beginFrame(dst), resp)
	if err := sealFrame(dst, start, maxFramePayload); err != nil {
		return dst[:start], err
	}
	return dst, nil
}

// ParseRequest verifies and decodes the frame at the front of data the
// way a Server does, returning the bytes that follow it. Errors are
// io.EOF (data is empty), io.ErrUnexpectedEOF (the frame is cut short),
// ErrCorruptFrame (CRC mismatch) or ErrBadFrame (impossible length or a
// malformed message).
func ParseRequest(data []byte) (req Request, rest []byte, err error) {
	payload, rest, err := splitFrame(data, maxRequestPayload)
	if err == nil {
		err = parseRequest(payload, &req)
	}
	return req, rest, err
}

// ParseResponse is ParseRequest for the frames a Client reads.
func ParseResponse(data []byte) (resp Response, rest []byte, err error) {
	payload, rest, err := splitFrame(data, maxFramePayload)
	if err == nil {
		err = parseResponse(payload, &resp)
	}
	return resp, rest, err
}
