package rpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cottage/internal/index"
	"cottage/internal/integrity"
	"cottage/internal/overload"
	"cottage/internal/search"
)

// --- frame layer ---

// frameOf wraps payload in one sealed frame.
func frameOf(t testing.TB, payload []byte) []byte {
	t.Helper()
	f := append(beginFrame(nil), payload...)
	if err := sealFrame(f, 0, maxFramePayload); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFrameRoundTrip(t *testing.T) {
	// Payloads on both sides of the read buffer: small ones are handed
	// out in place, the large ones take the copy path.
	msgs := [][]byte{
		[]byte("alpha"),
		{},
		bytes.Repeat([]byte{0xAB}, frameReadBuf-frameHeaderLen),
		bytes.Repeat([]byte{0xCD}, frameReadBuf),
		bytes.Repeat([]byte{0xEF}, 3*frameReadBuf+17),
		[]byte("omega"),
	}
	var stream []byte
	for _, m := range msgs {
		stream = append(stream, frameOf(t, m)...)
	}
	// A plain reader delivers several frames per read — the hard case
	// for the in-place path, where the next frame's bytes already sit
	// behind the current one.
	fr := newFrameReader(bytes.NewReader(stream), maxFramePayload)
	for i, want := range msgs {
		got, err := fr.next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: got %d bytes, want %d", i, len(got), len(want))
		}
	}
	if _, err := fr.next(); err != io.EOF {
		t.Fatalf("after the last frame: got %v, want a clean io.EOF", err)
	}
}

func TestFrameReaderDetectsCorruptPayload(t *testing.T) {
	raw := frameOf(t, []byte("the payload under test"))
	raw[frameHeaderLen] ^= 0x01 // first payload byte

	fr := newFrameReader(bytes.NewReader(raw), maxFramePayload)
	if _, err := fr.next(); !IsCorruptFrame(err) {
		t.Fatalf("flipped payload bit: got %v, want ErrCorruptFrame", err)
	}
	// Sticky: the stream cannot be resynchronized after a lie.
	if _, err := fr.next(); !IsCorruptFrame(err) {
		t.Fatalf("second read after corruption: got %v, want sticky ErrCorruptFrame", err)
	}
	if _, _, err := splitFrame(raw, maxFramePayload); !IsCorruptFrame(err) {
		t.Fatalf("splitFrame on the same bytes: got %v, want ErrCorruptFrame", err)
	}
}

func TestFrameReaderRejectsImpossibleLength(t *testing.T) {
	for _, limit := range []int{maxFramePayload, maxRequestPayload} {
		var head [frameHeaderLen]byte
		binary.LittleEndian.PutUint32(head[0:4], uint32(limit)+1)
		fr := newFrameReader(bytes.NewReader(head[:]), limit)
		if _, err := fr.next(); !IsBadFrame(err) {
			t.Fatalf("limit %d, absurd length: got %v, want ErrBadFrame", limit, err)
		}
		if fr.big != nil {
			t.Fatalf("limit %d: a refused header still sized a %d-byte buffer", limit, cap(fr.big))
		}
		if _, _, err := splitFrame(head[:], limit); !IsBadFrame(err) {
			t.Fatalf("limit %d, splitFrame: got %v, want ErrBadFrame", limit, err)
		}
	}
}

// TestRequestFrameCap pins the server-side bound: the largest request
// validation could admit fits a request frame, anything a header claims
// beyond it is refused before a byte of payload is read, and a client
// refuses to send what no server would read.
func TestRequestFrameCap(t *testing.T) {
	terms := make([]string, MaxTerms)
	for i := range terms {
		terms[i] = strings.Repeat("t", MaxTermLen)
	}
	req := Request{Kind: KindSearch, ID: 1, Terms: terms, K: 10}
	frame, err := AppendRequest(nil, &req)
	if err != nil {
		t.Fatalf("largest valid request refused: %v", err)
	}
	if got := len(frame) - frameHeaderLen; got != maxRequestPayload {
		t.Fatalf("largest valid request is %d bytes, cap is %d", got, maxRequestPayload)
	}
	if maxRequestPayload > 1<<17 {
		t.Fatalf("request cap %d: a header must not size more than ~64 KiB of terms", maxRequestPayload)
	}
	req.Terms = append(req.Terms, "x")
	if _, err := AppendRequest(nil, &req); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("oversize request: got %v, want ErrBadRequest", err)
	}

	// Over the wire: the client refuses locally, untransiently, and the
	// connection stays usable.
	sh := buildShard(t, 73)
	addr, stop := startServer(t, sh, nil)
	defer stop()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetRetryPolicy(RetryPolicy{Max: 3})
	_, err = c.Search(req.Terms, 10, 0)
	if !errors.Is(err, ErrBadRequest) || IsTransient(err) || c.Broken() || c.Retries() != 0 {
		t.Fatalf("oversize search: err=%v transient=%v broken=%v retries=%d", err, IsTransient(err), c.Broken(), c.Retries())
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("connection unusable after a refused send: %v", err)
	}
}

func TestFrameReaderTruncatedPayload(t *testing.T) {
	raw := frameOf(t, []byte("will be cut short"))[:12] // header + 4 of 17 payload bytes
	fr := newFrameReader(bytes.NewReader(raw), maxFramePayload)
	if _, err := fr.next(); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated payload: got %v, want ErrUnexpectedEOF", err)
	}
	if _, err := newFrameReader(bytes.NewReader(raw[:5]), maxFramePayload).next(); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated header: got %v, want ErrUnexpectedEOF", err)
	}
	big := frameOf(t, make([]byte, 2*frameReadBuf))
	if _, err := newFrameReader(bytes.NewReader(big[:len(big)-1]), maxFramePayload).next(); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated large payload: got %v, want ErrUnexpectedEOF", err)
	}
}

func TestWrapDecodeErrClassification(t *testing.T) {
	if wrapDecodeErr("x", nil) != nil {
		t.Fatal("nil must stay nil")
	}
	if err := wrapDecodeErr("x", io.EOF); err != io.EOF {
		t.Fatalf("EOF must pass through, got %v", err)
	}
	if err := wrapDecodeErr("x", ErrCorruptFrame); !IsCorruptFrame(err) {
		t.Fatalf("frame identity lost: %v", err)
	}
	if err := wrapDecodeErr("x", io.ErrShortBuffer); !IsBadFrame(err) {
		t.Fatalf("gob garbage must become ErrBadFrame, got %v", err)
	}
}

// TestServerAnswersCodeCorruptOnMangledRequest speaks the wire protocol
// by hand: a request whose payload CRC is wrong must be answered with a
// typed CodeCorrupt response (then the connection closes) — never
// silently dropped, never misdecoded.
func TestServerAnswersCodeCorruptOnMangledRequest(t *testing.T) {
	sh := buildShard(t, 71)
	addr, stop := startServer(t, sh, nil)
	defer stop()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// A valid framed request with one payload bit flipped.
	raw, err := AppendRequest(nil, &Request{ID: 1, Kind: KindSearch, Terms: []string{"ga"}, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x40
	if _, err := conn.Write(raw); err != nil {
		t.Fatal(err)
	}

	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	fr := newFrameReader(conn, maxFramePayload)
	payload, err := fr.next()
	if err != nil {
		t.Fatalf("expected a typed response before close, got %v", err)
	}
	var resp Response
	if err := parseResponse(payload, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Code != CodeCorrupt {
		t.Fatalf("code = %v, want CodeCorrupt", resp.Code)
	}
}

// flipProxy forwards client<->server bytes, flipping one payload byte
// of the first server->client burst exactly once — a deterministic
// stand-in for faults.Corrupt aimed at the response path.
func flipProxy(t *testing.T, backend string) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var flipped atomic.Bool
	go func() {
		for {
			cc, err := ln.Accept()
			if err != nil {
				return
			}
			sc, err := net.Dial("tcp", backend)
			if err != nil {
				cc.Close()
				continue
			}
			go func() { io.Copy(sc, cc); sc.Close() }()
			go func() {
				defer cc.Close()
				defer sc.Close()
				if flipped.CompareAndSwap(false, true) {
					buf := make([]byte, 64<<10)
					n, err := sc.Read(buf)
					if err != nil {
						return
					}
					// Flip a payload byte when the burst carries one; fall
					// back to the last byte available (still detected, as a
					// header lie instead).
					if n > 8 {
						buf[8] ^= 0x20
					} else {
						buf[n-1] ^= 0x20
					}
					if _, err := cc.Write(buf[:n]); err != nil {
						return
					}
				}
				io.Copy(cc, sc)
			}()
		}
	}()
	return ln.Addr().String(), func() { ln.Close() }
}

// TestClientDetectsResponseCorruptionTyped drives a corrupted response
// through the client: without retries the error is typed (a detected
// frame-layer lie, transient), and with retries the very next attempt
// on a fresh connection succeeds with intact results.
func TestClientDetectsResponseCorruptionTyped(t *testing.T) {
	sh := buildShard(t, 72)
	want := search.MaxScore(sh, []string{"ga", "gb"}, 5)
	backend, stopSrv := startServer(t, sh, nil)
	defer stopSrv()
	addr, stopProxy := flipProxy(t, backend)
	defer stopProxy()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetTimeout(2 * time.Second)
	c.SetRetryPolicy(RetryPolicy{Max: 0})

	_, err = c.Search([]string{"ga", "gb"}, 5, 0)
	if err == nil {
		t.Fatal("corrupted response must not decode cleanly")
	}
	if !IsTransient(err) {
		t.Fatalf("detected corruption must be transient, got %v", err)
	}
	if !IsCorruptFrame(err) && !IsBadFrame(err) {
		t.Fatalf("detected corruption must keep frame identity, got %v", err)
	}

	c.SetRetryPolicy(RetryPolicy{Max: 3})
	r, err := c.Search([]string{"ga", "gb"}, 5, 0)
	if err != nil {
		t.Fatalf("fresh connection after corruption: %v", err)
	}
	if len(r.Hits) != len(want.Hits) {
		t.Fatalf("got %d hits, want %d", len(r.Hits), len(want.Hits))
	}
	for i := range r.Hits {
		if r.Hits[i] != want.Hits[i] {
			t.Fatalf("hit %d differs after recovery", i)
		}
	}
}

// --- quarantine, failover, repair ---

// findTerm returns the shard's TermInfo for text, for in-place rot.
func findTerm(tb testing.TB, sh *index.Shard, text string) *index.TermInfo {
	tb.Helper()
	for i := range sh.Terms {
		if sh.Terms[i].Text == text {
			return &sh.Terms[i]
		}
	}
	tb.Fatalf("term %q not in shard", text)
	return nil
}

// startIntegrityServer launches a Server supervised by an integrity
// manager for the given shard.
func startIntegrityServer(tb testing.TB, mgr *integrity.Manager) (addr string, stop func()) {
	tb.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	srv := &Server{Strategy: search.StrategyMaxScore, Integrity: mgr}
	go srv.Serve(l)
	return l.Addr().String(), func() { l.Close() }
}

// TestAllReplicasQuarantinedIsShardCorrupt: a shard whose every replica
// is quarantined fails its leg as corrupt, naming the shard, the way the
// twin files such a leg (LegCorrupt) — not as a shard with no replicas.
func TestAllReplicasQuarantinedIsShardCorrupt(t *testing.T) {
	var clients []*Client
	for s := 0; s < 2; s++ {
		addr, stop := startServer(t, buildShard(t, uint64(80+s)), nil)
		defer stop()
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients = append(clients, c)
	}
	agg := NewAggregator(clients, 5)
	for s := range clients {
		agg.noteCorrupt(s)
	}
	_, err := agg.SearchExhaustive([]string{"ga", "gb"})
	if !IsShardCorrupt(err) {
		t.Fatalf("SearchExhaustive error %v, want one wrapping ErrShardCorrupt", err)
	}
	if !strings.Contains(err.Error(), "shard 1") {
		t.Fatalf("SearchExhaustive error %q does not name the shard", err)
	}
}

// TestQuarantineFailoverAndRepair is the integrity plane end to end
// over real sockets: replica 0's shard rots in memory, the first query
// touching the bad block quarantines it server-side, the aggregator
// fails over to replica 1 and quarantines it coordinator-side (breaker
// untouched), FetchShard repairs replica 0 from the healthy sibling,
// and the prober re-admits it into selection.
func TestQuarantineFailoverAndRepair(t *testing.T) {
	sh0 := buildShard(t, 73)
	sh1 := buildShard(t, 73) // same seed: true replicas
	want := search.MaxScore(sh1, []string{"ga", "gb"}, 5)

	addr1, stop1 := startServer(t, sh1, nil)
	defer stop1()
	c1, err := Dial(addr1)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	// Replica 0 repairs from its healthy sibling over the wire.
	mgr := integrity.NewManager(integrity.Config{ShardID: 0, Replica: 0, ScrubBytesPerSec: 1 << 20,
		Fetch: c1.FetchShard}, sh0)
	addr0, stop0 := startIntegrityServer(t, mgr)
	defer stop0()
	c0, err := Dial(addr0)
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()

	agg := NewAggregator([]*Client{c0, c1}, 5)
	if err := agg.EnableReplicaGroups([][]int{{0, 1}}); err != nil {
		t.Fatal(err)
	}
	agg.EnableBreakers(3, time.Second)

	// Rot replica 0's copy before any traffic: flip a term frequency in
	// a queried term's postings and clear the verification memo (the
	// load-time pass already verified these blocks). With no service
	// measurements yet, ranking falls back to ID order, so the first
	// query leg goes to the corrupt replica — the hardest case.
	ti := findTerm(t, sh0, "ga")
	ti.BlockData(0)[0] ^= 1
	sh0.ResetVerification()

	// The query still succeeds — served by replica 1 — and never
	// includes a score computed from the flipped posting.
	res, err := agg.SearchExhaustive([]string{"ga", "gb"})
	if err != nil {
		t.Fatalf("query during corruption must fail over, got %v", err)
	}
	if len(res.Hits) != len(want.Hits) {
		t.Fatalf("failover: got %d hits, want %d", len(res.Hits), len(want.Hits))
	}
	for i := range res.Hits {
		if res.Hits[i] != want.Hits[i] {
			t.Fatalf("failover hit %d differs — corrupt posting leaked into scoring", i)
		}
	}

	// Server side quarantined itself; coordinator marked it too.
	if mgr.Shard() != nil {
		t.Fatal("server-side manager still Healthy after detection")
	}
	if !agg.clientQuarantined(0) {
		t.Fatal("coordinator did not quarantine replica 0")
	}
	if got := agg.rankShard(0, nil, nil); len(got) != 1 || got[0] != 1 {
		t.Fatalf("rankShard = %v, want [1] while replica 0 is quarantined", got)
	}
	// Data fault, not node death: the breaker must not have moved.
	if st := agg.Breakers[0].State(); st != overload.Closed {
		t.Fatalf("breaker state = %v, want Closed (corruption is breaker-neutral)", st)
	}
	// Quarantined replica refuses to serve and says so on ping.
	if _, err := c0.Search([]string{"ga"}, 5, 0); !IsShardCorrupt(err) {
		t.Fatalf("direct search on quarantined replica: got %v, want ErrShardCorrupt", err)
	}
	q, err := c0.PingStatus()
	if err != nil || !q {
		t.Fatalf("PingStatus = (%v, %v), want (true, nil)", q, err)
	}

	// Repair from the healthy sibling over the wire. The fetched bytes
	// re-verify end-to-end before the swap.
	if err := mgr.Repair(time.Now().UnixMilli()); err != nil {
		t.Fatalf("repair: %v", err)
	}
	if mgr.Shard() == nil {
		t.Fatalf("replica still out of service after repair: %+v", mgr.Snapshot().Replicas)
	}
	if q, err := c0.PingStatus(); err != nil || q {
		t.Fatalf("PingStatus after repair = (%v, %v), want (false, nil)", q, err)
	}
	if _, err := c0.Search([]string{"ga"}, 5, 0); err != nil {
		t.Fatalf("repaired replica must serve again: %v", err)
	}

	// The prober notices the repaired copy and re-admits it.
	agg.StartProber(2 * time.Millisecond)
	defer agg.StopProber()
	deadline := time.Now().Add(2 * time.Second)
	for agg.clientQuarantined(0) && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if agg.clientQuarantined(0) {
		t.Fatal("prober never re-admitted the repaired replica")
	}
	if got := agg.rankShard(0, nil, nil); len(got) != 2 {
		t.Fatalf("rankShard after readmit = %v, want both replicas", got)
	}
}
