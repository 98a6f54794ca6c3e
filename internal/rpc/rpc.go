// Package rpc implements a small TCP transport — checksummed frames
// carrying a fixed-layout binary codec (frame.go, codec.go) — so the
// partition-aggregate protocol can run across real processes, mirroring
// the Solr deployment of Section IV: each ISN process serves search and
// prediction requests for one shard, and an aggregator fans queries out,
// runs Algorithm 1 on the returned predictions, broadcasts the budget
// (as a per-request deadline) and merges the responses that make it back
// in time.
//
// The simulated cluster (internal/cluster) remains the measurement
// substrate for the paper's experiments — wall-clock latencies on a
// shared laptop are not reproducible — but this package demonstrates the
// same seven-step protocol end to end on real sockets
// (examples/distributed, cmd/cottage-server, cmd/cottage-client).
package rpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cottage/internal/faults"
	"cottage/internal/index"
	"cottage/internal/integrity"
	"cottage/internal/obs"
	"cottage/internal/overload"
	"cottage/internal/predict"
	"cottage/internal/search"
)

// Kind discriminates request types.
type Kind int

const (
	// KindSearch asks the ISN to evaluate the query and return its local
	// top-K (protocol steps 5–6).
	KindSearch Kind = iota
	// KindPredict asks only for the quality/latency predictions
	// (protocol steps 2–3).
	KindPredict
	// KindPing checks liveness.
	KindPing
	// Kind 3, the retired phrase verb, is reserved: kinds travel as
	// integers, so the verbs after it keep their numbers.
	_
	// KindFetchShard asks the ISN for its full serialized shard — the
	// repair transfer verb. The response carries the checksummed shard
	// file bytes; the fetching side re-reads and re-verifies them end to
	// end (index.ReadShard validates eagerly), so a transfer corrupted in
	// flight can never be re-admitted.
	KindFetchShard
)

// String implements fmt.Stringer (span names, metrics labels).
func (k Kind) String() string {
	switch k {
	case KindSearch:
		return "search"
	case KindPredict:
		return "predict"
	case KindPing:
		return "ping"
	case KindFetchShard:
		return "fetchshard"
	default:
		return fmt.Sprintf("kind%d", int(k))
	}
}

// Request is the wire request.
type Request struct {
	Kind  Kind
	ID    uint64
	Terms []string
	K     int
	// DeadlineUS is the search budget in microseconds (0 = none). The
	// server abandons result delivery past the deadline, mimicking
	// budget-bounded ISN processing.
	DeadlineUS int64
	// Anytime asks the server to evaluate KindSearch with the anytime
	// traversal: instead of abandoning a search that overruns DeadlineUS,
	// the ISN stops at the deadline and returns its exact best-so-far
	// top-K with the Terminated/ScoreBound certificate on the response.
	Anytime bool
	// Trace and Span propagate the aggregator's trace across the wire:
	// Trace is the query's trace ID, Span the client-side span that
	// parents whatever the server records. Zero means untraced — the
	// server skips span recording entirely, so tracing costs nothing on
	// the wire or the server unless the caller asks for it.
	Trace uint64
	Span  uint64
}

// Code classifies a Response beyond its payload, so clients can tell a
// shed request (transient — back off and retry) from a rejected one
// (permanent — fix the request) without parsing error strings.
type Code int

const (
	// CodeOK is the zero value: the request was served.
	CodeOK Code = iota
	// CodeOverloaded: admission control shed the request. The ISN is
	// healthy, just saturated; the client retries with backoff and must
	// not count this against the circuit breaker.
	CodeOverloaded
	// CodeBadRequest: the request decoded but failed validation.
	// Retrying the same bytes can never succeed.
	CodeBadRequest
	// CodeCorrupt: the request's frame arrived with a failed payload CRC
	// — the bytes were mangled in transit, not by the sender. Transient
	// and breaker-neutral: the client resends on a fresh connection.
	// (The server closes the stream after answering; a stream that has
	// lied once cannot be trusted further.)
	CodeCorrupt
	// CodeQuarantined: this replica's shard copy failed an integrity
	// check and is out of service until repaired. Not transient for this
	// replica — the client fails the leg over to a sibling — and
	// breaker-neutral: the node is healthy, its data is not.
	CodeQuarantined
)

// Response is the wire response.
type Response struct {
	ID    uint64
	Hits  []search.Hit
	Stats search.ExecStats
	Pred  predict.Prediction
	Err   string
	Code  Code
	// Terminated and ScoreBound echo an anytime search's certificate:
	// the hits are exact but possibly incomplete, and no unreturned
	// document on this shard scores above ScoreBound.
	Terminated bool
	ScoreBound float64
	// QueueDepth and AvgServiceUS ride on every response: the ISN's
	// admission-queue occupancy and its EWMA service time as the reply
	// left. The aggregator turns them into the Eq. 2 equivalent-latency
	// correction (core.QueueBacklogMS) before running Algorithm 1 — from
	// the KindPredict reply when it asked, from the ISN's latest reply of
	// any kind when the prediction came out of its memo (predmemo.go).
	QueueDepth   int
	AvgServiceUS int64
	// Spans carries the server-side spans recorded for this request
	// (admission wait, service time) back to the aggregator, which grafts
	// them into the query's trace so ISN-side timing lands in the same
	// tree as the fan-out that caused it.
	Spans []obs.Span
	// ShardBytes carries the serialized (checksummed) shard file on
	// KindFetchShard responses.
	ShardBytes []byte
	// Quarantined rides on KindPing responses: true while this replica's
	// shard copy is out of service (integrity quarantine or no shard
	// loaded). Ping itself still succeeds — the transport is healthy —
	// so the aggregator's prober can tell "node dead" from "data bad"
	// and re-admit the replica the moment repair completes.
	Quarantined bool
}

// Server serves one shard (one ISN) over a listener.
type Server struct {
	Shard    *index.Shard
	Pred     *predict.ISNPredictor // optional; KindPredict fails without it
	Strategy search.Strategy
	// Integrity, when set, supervises the shard: search requests
	// pass the lazy checksum gate (a mismatched block is never scored),
	// a detected corruption quarantines this replica (search answers
	// CodeQuarantined until repair re-admits it), and repair swaps in a
	// freshly verified shard. The manager's shard takes precedence over
	// the bare Shard field. Set before Serve.
	Integrity *integrity.Manager
	// Faults, when set, injects prediction-level failures (timeouts,
	// slowdowns) keyed by FaultISN — the application-layer complement of
	// faults.WrapListener, which mangles the transport underneath. Both
	// hang off the same injector so one seed replays a whole scenario.
	Faults   *faults.Injector
	FaultISN int
	// Limit, when set, is the admission gate for search work: KindSearch
	// must acquire a slot (or queue) before any index evaluation; shed requests get a CodeOverloaded response. KindPing
	// and KindPredict bypass it — the control plane must stay responsive
	// under overload, and their replies carry queue-depth feedback too.
	Limit *overload.Limiter
	// Obs, when set, receives the server's metrics (served/shed counters,
	// service-time histogram, queue depth) and enables server-side span
	// recording for traced requests. Set before Serve.
	Obs *obs.Observer
	mu  sync.Mutex // serializes predictor scratch use

	connMu     sync.Mutex
	conns      map[net.Conn]struct{}
	listeners  map[net.Listener]struct{}
	handlers   sync.WaitGroup
	inShutdown atomic.Bool

	served       obs.Counter  // search requests fully served
	shed         obs.Counter  // requests rejected with CodeOverloaded
	avgServiceUS atomic.Int64 // EWMA of search service time (µs)

	obsOnce     sync.Once
	serviceHist *obs.Histogram // nil when Obs is unset
}

// Served reports how many search requests this server completed.
func (s *Server) Served() uint64 { return s.served.Value() }

// Shed reports how many requests admission control rejected.
func (s *Server) Shed() uint64 { return s.shed.Value() }

// initObs registers the server's metrics with its observer's registry
// (idempotent; a no-op without an observer). The served/shed counters
// predate the registry and are adopted in place, so the accessor methods
// above and the registry read the same atomics.
func (s *Server) initObs() {
	s.obsOnce.Do(func() {
		if s.Obs == nil {
			return
		}
		reg := s.Obs.Reg
		reg.Register("cottage_server_served_total",
			"Search requests fully served.", &s.served)
		reg.Register("cottage_server_shed_total",
			"Requests rejected by admission control (CodeOverloaded).", &s.shed)
		s.serviceHist = reg.Histogram("cottage_server_service_ms",
			"Search service time (admission grant to response ready).",
			obs.LatencyBucketsMS())
		reg.GaugeFunc("cottage_server_queue_depth",
			"Admission-queue occupancy.", func() float64 { return float64(s.pendingDepth()) })
		reg.GaugeFunc("cottage_server_avg_service_us",
			"EWMA search service time reported to KindPredict (Eq. 2 feedback).",
			func() float64 { return float64(s.avgServiceUS.Load()) })
		if s.Limit != nil {
			s.Limit.Register(reg)
		}
	})
}

func (s *Server) trackListener(l net.Listener, add bool) {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if add {
		if s.listeners == nil {
			s.listeners = make(map[net.Listener]struct{})
		}
		s.listeners[l] = struct{}{}
	} else {
		delete(s.listeners, l)
	}
}

func (s *Server) trackConn(c net.Conn, add bool) {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if add {
		if s.conns == nil {
			s.conns = make(map[net.Conn]struct{})
		}
		s.conns[c] = struct{}{}
	} else {
		delete(s.conns, c)
	}
}

// Accept-loop backoff bounds for temporary errors (e.g. EMFILE under
// connection floods): start small, double, cap — same shape as
// net/http.Server.
const (
	acceptBackoffMin = 5 * time.Millisecond
	acceptBackoffMax = 250 * time.Millisecond
)

// Serve accepts connections until the listener is closed. Each connection
// gets its own goroutine and frame buffers. Temporary Accept errors are
// retried with capped exponential backoff instead of killing the server;
// after Shutdown (or closing the listener) Serve returns nil rather than
// surfacing the listener teardown as an error.
func (s *Server) Serve(l net.Listener) error {
	s.initObs()
	s.trackListener(l, true)
	defer s.trackListener(l, false)
	backoff := acceptBackoffMin
	for {
		conn, err := l.Accept()
		if err != nil {
			if s.inShutdown.Load() || errors.Is(err, net.ErrClosed) {
				return nil
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Temporary() {
				time.Sleep(backoff)
				if backoff *= 2; backoff > acceptBackoffMax {
					backoff = acceptBackoffMax
				}
				continue
			}
			return fmt.Errorf("rpc: accept: %w", err)
		}
		backoff = acceptBackoffMin
		if s.inShutdown.Load() {
			conn.Close()
			continue
		}
		s.handlers.Add(1)
		s.trackConn(conn, true)
		go s.handle(conn)
	}
}

// Shutdown gracefully stops the server: stop accepting, shed the
// admission queue, let in-flight requests finish, then close. Handlers
// idle in a blocking read are unblocked by expiring their read deadline
// — writes are unaffected, so responses already being served still
// drain. If ctx expires first, remaining connections are force-closed
// and ctx's error is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.inShutdown.Store(true)
	s.connMu.Lock()
	for l := range s.listeners {
		l.Close()
	}
	open := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		open = append(open, c)
	}
	s.connMu.Unlock()
	if s.Limit != nil {
		s.Limit.Close()
	}
	now := time.Now()
	for _, c := range open {
		c.SetReadDeadline(now)
	}
	done := make(chan struct{})
	go func() {
		s.handlers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.connMu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.connMu.Unlock()
		return ctx.Err()
	}
}

func (s *Server) handle(conn net.Conn) {
	defer func() {
		conn.Close()
		s.trackConn(conn, false)
		s.handlers.Done()
	}()
	fr := newFrameReader(conn, maxRequestPayload)
	var out []byte // response frame buffer, reused across requests
	send := func(resp *Response) error {
		var err error
		if out, err = AppendResponse(out[:0], resp); err != nil {
			return err
		}
		_, err = conn.Write(out)
		return err
	}
	for {
		payload, err := fr.next()
		if err != nil {
			if IsCorruptFrame(err) {
				// The request's bytes were mangled in transit — detected,
				// not guessed. Answer typed so the client retries breaker-
				// neutrally, then drop the connection: the stream behind a
				// lying frame cannot be resynchronized.
				_ = send(&Response{Code: CodeCorrupt, Err: "corrupt request frame"})
			}
			return // closed, garbled, or draining; drop it
		}
		var req Request
		if err := parseRequest(payload, &req); err != nil {
			return // checksum-clean garbage: sent malformed, drop it
		}
		resp := s.serve(&req)
		if resp == nil {
			return // injected prediction timeout: go silent like a hung process
		}
		// Load feedback on every reply (search, shed and ping as much as
		// predict), read after the request gave its admission slot back:
		// what the ISN looks like to the next query.
		resp.QueueDepth = s.pendingDepth()
		resp.AvgServiceUS = s.avgServiceUS.Load()
		if err := send(resp); err != nil {
			return
		}
		if s.inShutdown.Load() {
			return
		}
	}
}

// shard returns the serving shard: the integrity manager's (nil while
// quarantined) when supervision is on, the static field otherwise.
func (s *Server) shard() *index.Shard {
	if s.Integrity != nil {
		return s.Integrity.Shard()
	}
	return s.Shard
}

// serve runs one request through validation and admission control, then
// dispatches it.
func (s *Server) serve(req *Request) *Response {
	if err := ValidateRequest(req); err != nil {
		return &Response{ID: req.ID, Code: CodeBadRequest, Err: err.Error()}
	}
	heavy := req.Kind == KindSearch
	arrived := time.Now()
	var queueWait time.Duration
	if heavy && s.Limit != nil {
		// The request's own budget bounds its queue wait: a query that
		// queued past its deadline is shed, not served late (Eq. 2 —
		// queue wait is latency).
		if err := s.Limit.Acquire(time.Duration(req.DeadlineUS) * time.Microsecond); err != nil {
			s.shed.Inc()
			if req.Anytime && req.DeadlineUS > 0 {
				if deadline := arrived.Add(time.Duration(req.DeadlineUS) * time.Microsecond); time.Now().Before(deadline) {
					if sh := s.shard(); sh != nil {
						if bad := s.gate(req); bad != nil {
							return bad
						}
						// Shed with budget remaining: degrade to a truncated
						// anytime answer instead of an outright rejection.
						// The traversal stops at the remaining budget, so the
						// work stays bounded — early termination is itself
						// the load shedding the limiter wants.
						return s.anytimeSearch(sh, req, deadline)
					}
					return quarantinedResp(req.ID)
				}
			}
			return &Response{ID: req.ID, Code: CodeOverloaded, Err: err.Error()}
		}
		queueWait = time.Since(arrived)
		defer s.Limit.Release()
	}
	start := time.Now()
	resp := s.dispatch(req, arrived)
	service := time.Since(start)
	if heavy {
		s.observeService(service)
		if h := s.serviceHist; h != nil {
			h.Observe(float64(service.Microseconds()) / 1000)
		}
		if resp != nil && resp.Err == "" {
			s.served.Inc()
		}
	}
	if req.Trace != 0 && s.Obs != nil && resp != nil {
		// Traced request: record the ISN-side span under the client's span
		// and ship it back on the response, so queue wait and service time
		// land in the aggregator's tree.
		sp := obs.Span{
			Trace:   req.Trace,
			ID:      obs.NewID(),
			Parent:  req.Span,
			Name:    "serve." + req.Kind.String(),
			ISN:     -1, // the aggregator knows which leg this was
			StartUS: arrived.UnixMicro(),
			DurUS:   time.Since(arrived).Microseconds(),
			Attrs: map[string]string{
				"queue_wait_us": fmt.Sprintf("%d", queueWait.Microseconds()),
				"service_us":    fmt.Sprintf("%d", service.Microseconds()),
			},
		}
		resp.Spans = append(resp.Spans, sp)
		// Also record the span locally (re-rooted: the parent lives on the
		// aggregator) so the server's own /debug/traces and flight recorder
		// see its slowest requests without a client-side dump.
		local := sp
		local.Parent = 0
		s.Obs.AddTrace(&obs.Trace{ID: req.Trace, StartUnixUS: sp.StartUS, Spans: []obs.Span{local}})
	}
	return resp
}

// observeService folds one search's service time into the EWMA
// (alpha = 1/4) that replies report for Eq. 2.
func (s *Server) observeService(d time.Duration) {
	us := d.Microseconds()
	for {
		old := s.avgServiceUS.Load()
		next := us
		if old != 0 {
			next = old + (us-old)/4
		}
		if s.avgServiceUS.CompareAndSwap(old, next) {
			return
		}
	}
}

// pendingDepth is the admission-queue occupancy every reply reports.
func (s *Server) pendingDepth() int {
	if s.Limit == nil {
		return 0
	}
	return s.Limit.Pending()
}

// quarantinedResp is the typed answer for every data-plane request
// while this replica's shard copy is out of service.
func quarantinedResp(id uint64) *Response {
	return &Response{ID: id, Code: CodeQuarantined, Err: "shard replica quarantined"}
}

// gate runs the query-time integrity check for a data-plane request:
// every block of every query term is lazily verified before evaluation,
// so a mismatched block is never scored. A detected corruption
// quarantines the replica and answers CodeQuarantined — the
// aggregator's failover serves the query from a sibling.
func (s *Server) gate(req *Request) *Response {
	if s.Integrity == nil {
		return nil
	}
	if err := s.Integrity.VerifyQuery(req.Terms, time.Now().UnixMilli()); err != nil {
		return &Response{ID: req.ID, Code: CodeQuarantined, Err: err.Error()}
	}
	return nil
}

// dispatch answers one admitted request. arrived is when the request
// reached serve: a budget (DeadlineUS) is spent from there, whatever part
// of it went on waiting for admission — queue wait is latency (Eq. 2).
func (s *Server) dispatch(req *Request, arrived time.Time) *Response {
	resp := &Response{ID: req.ID}
	switch req.Kind {
	case KindPing:
		// Ping is transport health only — it succeeds even while the
		// shard copy is quarantined — but it reports the data-plane state
		// so the prober can drive coordinator-side readmission.
		resp.Quarantined = s.shard() == nil
	case KindSearch:
		sh := s.shard()
		if sh == nil {
			return quarantinedResp(req.ID)
		}
		if bad := s.gate(req); bad != nil {
			return bad
		}
		if req.Anytime && req.DeadlineUS > 0 {
			return s.anytimeSearch(sh, req, arrived.Add(time.Duration(req.DeadlineUS)*time.Microsecond))
		}
		r := search.Eval(s.Strategy, sh, req.Terms, req.K)
		if req.DeadlineUS > 0 && time.Since(arrived).Microseconds() > req.DeadlineUS {
			resp.Err = "deadline exceeded"
			return resp
		}
		resp.Hits = r.Hits
		resp.Stats = r.Stats
	case KindPredict:
		if s.Faults != nil {
			d := s.Faults.OnPredict(s.FaultISN)
			if d.DelayMS > 0 {
				time.Sleep(time.Duration(d.DelayMS * float64(time.Millisecond)))
			}
			if d.Kind == faults.PredictTimeout || d.Kind == faults.Drop || d.Kind == faults.Crash {
				return nil
			}
		}
		if s.Pred == nil {
			resp.Err = "no predictor loaded"
			return resp
		}
		sh := s.shard()
		if sh == nil {
			return quarantinedResp(req.ID)
		}
		s.mu.Lock()
		resp.Pred = s.Pred.Predict(sh, req.Terms)
		s.mu.Unlock()
	case KindFetchShard:
		// Repair transfer: hand out this replica's shard bytes, but only
		// from a healthy copy — a quarantined replica must never be a
		// repair source.
		sh := s.shard()
		if sh == nil {
			return quarantinedResp(req.ID)
		}
		var buf bytes.Buffer
		if err := sh.Encode(&buf); err != nil {
			resp.Err = fmt.Sprintf("encode shard: %v", err)
			return resp
		}
		resp.ShardBytes = buf.Bytes()
	default:
		resp.Err = fmt.Sprintf("unknown request kind %d", req.Kind)
	}
	return resp
}

// anytimeSearch evaluates a search with the deadline-aware anytime
// traversal: the wall clock is the injected budget, and the response
// carries the termination flag and the score-bound quality certificate.
func (s *Server) anytimeSearch(sh *index.Shard, req *Request, deadline time.Time) *Response {
	r := search.Anytime(sh, req.Terms, req.K, func(search.ExecStats) bool {
		return !time.Now().Before(deadline)
	})
	return &Response{
		ID: req.ID, Hits: r.Hits, Stats: r.Stats,
		Terminated: r.Terminated, ScoreBound: r.ScoreBound,
	}
}

// RetryPolicy bounds the client's transport-level retries. Retries
// reconnect (a broken stream cannot be resumed) and back off
// exponentially from DefaultBackoff, doubling per attempt, capped at
// 250 ms (maxBackoff). Application-level errors from the server (bad
// request, missing predictor) are never retried — only transport faults
// are.
type RetryPolicy struct {
	// Max is the number of additional attempts after the first (0
	// disables retrying).
	Max int
}

const (
	// DefaultBackoff is the first retry's delay.
	DefaultBackoff = 2 * time.Millisecond
	// maxBackoff caps the doubling.
	maxBackoff = 250 * time.Millisecond
)

// Client is a synchronous connection to one ISN server. It is safe for
// concurrent use; calls are serialized on the connection.
type Client struct {
	mu      sync.Mutex
	addr    string // redial target; empty for adopted connections
	conn    net.Conn
	fr      *frameReader // response frames off conn
	out     []byte       // request frame buffer, reused across calls
	broken  atomic.Bool  // the stream desynced; reconnect before reuse
	next    uint64
	timeout time.Duration
	retry   RetryPolicy
	retries atomic.Uint64
	// epoch names what is answering on this client: it moves with every
	// new connection (the process behind the address may be another one)
	// and when the aggregator quarantines the copy (repair may swap the
	// shard). Zero until the first connection. A memoised prediction is
	// only as good as the epoch it was made in (predmemo.go).
	epoch atomic.Uint64
	// quarantined is the aggregator's mark for a replica that answered
	// CodeQuarantined and has not pinged healthy since (quarantine.go).
	quarantined atomic.Bool
	// depth and avgServiceUS are the load feedback of the latest reply
	// of any kind; see lastLoad.
	depth        atomic.Int64
	avgServiceUS atomic.Int64
}

// Dial connects to an ISN server. The address is remembered so broken
// connections can be re-established by the retry loop.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rpc: dial %s: %w", addr, err)
	}
	c := NewClient(conn)
	c.addr = addr
	return c, nil
}

// NewClient wraps an established connection. Without a dialed address
// the client cannot reconnect, so transport faults are terminal even
// under a retry policy.
func NewClient(conn net.Conn) *Client {
	c := &Client{}
	c.attach(conn)
	return c
}

// attach makes conn the client's connection: a fresh stream, read
// through the client's (reused) frame buffers.
func (c *Client) attach(conn net.Conn) {
	c.conn = conn
	if c.fr == nil {
		c.fr = newFrameReader(conn, maxFramePayload)
	} else {
		c.fr.reset(conn)
	}
	c.epoch.Add(1)
	c.broken.Store(false)
}

// Offline returns a client for an address that could not be dialed yet.
// Every call goes through the normal reconnect/retry path first, so an
// ISN that is down at startup degrades exactly like one that dies later
// instead of being fatal to the whole aggregator.
func Offline(addr string) *Client {
	c := &Client{addr: addr}
	c.broken.Store(true)
	return c
}

// Close closes the underlying connection.
func (c *Client) Close() error {
	if c.conn == nil {
		return nil
	}
	return c.conn.Close()
}

// Addr returns the dialed address ("" for adopted connections).
func (c *Client) Addr() string { return c.addr }

// Timeout bounds each round trip; zero means no bound. Set it once,
// before concurrent use.
func (c *Client) SetTimeout(d time.Duration) { c.timeout = d }

// SetRetryPolicy configures transport-level retries. Set it once,
// before concurrent use.
func (c *Client) SetRetryPolicy(p RetryPolicy) { c.retry = p }

// Retries reports how many transport retries this client has performed,
// a cheap ledger for tests and operational stats.
func (c *Client) Retries() uint64 { return c.retries.Load() }

// errTransient wraps transport-level faults: the request may have never
// reached the server, or the reply was lost or mangled. These — and only
// these — are safe and useful to retry on a fresh connection.
type errTransient struct{ err error }

func (e errTransient) Error() string { return e.err.Error() }
func (e errTransient) Unwrap() error { return e.err }

// IsTransient reports whether err was a transport fault (connection
// drop, timeout, corrupted frame) rather than a server-side application
// error.
func IsTransient(err error) bool {
	var t errTransient
	return errors.As(err, &t)
}

// ErrOverloaded is the client-visible form of a shed request. It is
// transient (IsTransient returns true — the retry loop backs off and
// tries again) but distinguishable, because callers must NOT treat a
// shedding ISN as a dead one: it answers its control plane, its breaker
// stays closed, and the right response is backoff, not failover.
var ErrOverloaded = overload.ErrOverloaded

// IsOverloaded reports whether err is a server-shed rejection.
func IsOverloaded(err error) bool { return errors.Is(err, ErrOverloaded) }

// ErrShardCorrupt is the client-visible form of a CodeQuarantined
// response: the replica's shard copy failed an integrity check and is
// out of service until repaired. Not transient — retrying the same
// replica returns the same answer until its repair completes — and
// breaker-neutral: the node answered, its data is what failed. The
// aggregator fails the leg over to a sibling and ranks the replica out
// of selection (replica.Candidate.Quarantined) until it heals.
var ErrShardCorrupt = errors.New("rpc: shard replica quarantined")

// IsShardCorrupt reports whether err is a quarantined-replica
// rejection.
func IsShardCorrupt(err error) bool { return errors.Is(err, ErrShardCorrupt) }

// Broken reports whether the client's connection is currently marked
// broken (it will redial on the next call). The health prober uses this
// to pick probe targets, and replica ranking reads it on every leg — it
// must not wait behind c.mu, which an in-flight call holds for its whole
// round trip.
func (c *Client) Broken() bool { return c.broken.Load() }

// reconnect re-establishes the connection after a transport fault.
func (c *Client) reconnect() error {
	if c.addr == "" {
		return fmt.Errorf("rpc: connection broken and no address to redial")
	}
	if c.conn != nil {
		c.conn.Close()
	}
	conn, err := net.Dial("tcp", c.addr)
	if err != nil {
		return fmt.Errorf("rpc: redial %s: %w", c.addr, err)
	}
	c.attach(conn)
	return nil
}

// call performs one round trip into resp, retrying transport faults per
// the client's RetryPolicy with capped exponential backoff.
func (c *Client) call(req *Request, resp *Response) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	backoff := DefaultBackoff
	for attempt := 0; ; attempt++ {
		var err error
		if c.broken.Load() {
			// Redial failures burn an attempt and back off like any other
			// transport fault (the server may be restarting).
			if rerr := c.reconnect(); rerr != nil {
				err = errTransient{rerr}
			}
		}
		if err == nil {
			if err = c.callOnce(req, resp); err == nil {
				return nil
			}
		}
		if !IsTransient(err) || attempt >= c.retry.Max {
			return err
		}
		c.retries.Add(1)
		time.Sleep(backoff)
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// callOnce performs exactly one synchronous round trip on the current
// connection: the request is encoded into the client's frame buffer and
// written in one piece, the response parsed out of the frame reader's.
// Transport faults mark the connection broken (the next attempt
// reconnects) and come back wrapped as transient.
func (c *Client) callOnce(req *Request, resp *Response) error {
	c.next++
	req.ID = c.next
	var err error
	if c.out, err = AppendRequest(c.out[:0], req); err != nil {
		// Larger than any server would read: nothing was sent, the
		// connection is fine, and resending the same request cannot help.
		return fmt.Errorf("rpc: send: %w", err)
	}
	if c.timeout > 0 {
		if err := c.conn.SetDeadline(time.Now().Add(c.timeout)); err != nil {
			c.broken.Store(true)
			return errTransient{fmt.Errorf("rpc: deadline: %w", err)}
		}
	}
	if _, err := c.conn.Write(c.out); err != nil {
		c.broken.Store(true)
		return errTransient{fmt.Errorf("rpc: send: %w", err)}
	}
	payload, err := c.fr.next()
	if err == nil {
		err = parseResponse(payload, resp)
	}
	if err != nil {
		// A failed CRC or an undecodable message is the wire (or the peer)
		// lying, not the transport dying: still transient — resend on a
		// fresh connection — but typed ErrCorruptFrame/ErrBadFrame, so
		// breaker logic can stay neutral about a mangled wire.
		c.broken.Store(true)
		if errors.Is(err, io.EOF) {
			return errTransient{fmt.Errorf("rpc: server closed connection")}
		}
		return errTransient{fmt.Errorf("rpc: receive: %w", err)}
	}
	if resp.ID != req.ID {
		// A stale reply (e.g. to a request a previous timeout abandoned):
		// the stream is out of step, resync by reconnecting.
		c.broken.Store(true)
		return errTransient{fmt.Errorf("rpc: response ID %d for request %d", resp.ID, req.ID)}
	}
	c.depth.Store(int64(resp.QueueDepth))
	c.avgServiceUS.Store(resp.AvgServiceUS)
	switch resp.Code {
	case CodeOverloaded:
		// Shed by admission control: the transport and the stream are
		// fine (do NOT mark broken), the server is just saturated.
		// Transient, so the retry loop backs off and tries again.
		return errTransient{fmt.Errorf("rpc: %s: %w", c.addr, ErrOverloaded)}
	case CodeCorrupt:
		// The server detected our request frame was mangled in transit
		// and will drop the connection: reconnect and resend. Transient
		// and typed (breaker-neutral — nobody is dead, a wire lied).
		c.broken.Store(true)
		return errTransient{fmt.Errorf("rpc: %s: %w", c.addr, ErrCorruptFrame)}
	case CodeQuarantined:
		// The replica's shard copy is out of service. The connection is
		// fine (do NOT mark broken) and retrying here is pointless until
		// repair completes — surface typed so the caller fails over.
		return fmt.Errorf("rpc: %s: %w: %s", c.addr, ErrShardCorrupt, resp.Err)
	}
	if resp.Err != "" {
		// Application-level error: the transport is fine, don't retry.
		return fmt.Errorf("rpc: server error: %s", resp.Err)
	}
	return nil
}

// Ping checks liveness.
func (c *Client) Ping() error {
	_, err := c.PingStatus()
	return err
}

// PingStatus is Ping plus the replica's data-plane state: quarantined
// is true while the remote shard copy is out of service (integrity
// quarantine, repair in flight, or no shard loaded). The transport
// verdict and the data verdict are deliberately separate — a node can
// be perfectly reachable and still not trustworthy to serve.
func (c *Client) PingStatus() (quarantined bool, err error) {
	var resp Response
	if err := c.call(&Request{Kind: KindPing}, &resp); err != nil {
		return false, err
	}
	return resp.Quarantined, nil
}

// Search evaluates a query on the remote shard.
func (c *Client) Search(terms []string, k int, deadline time.Duration) (search.Result, error) {
	r, _, err := c.SearchSpan(obs.SpanContext{}, terms, k, deadline)
	return r, err
}

// SearchSpan is Search with trace propagation: sc's IDs ride on the
// request, and the server's spans (if it recorded any) come back for
// grafting into the caller's trace. A zero sc disables both.
func (c *Client) SearchSpan(sc obs.SpanContext, terms []string, k int, deadline time.Duration) (search.Result, []obs.Span, error) {
	return c.searchCall(sc, terms, k, deadline, false)
}

func (c *Client) searchCall(sc obs.SpanContext, terms []string, k int, deadline time.Duration, anytime bool) (search.Result, []obs.Span, error) {
	var resp Response
	err := c.call(&Request{
		Kind: KindSearch, Terms: terms, K: k, DeadlineUS: deadline.Microseconds(),
		Anytime: anytime, Trace: sc.Trace, Span: sc.Parent}, &resp)
	if err != nil {
		return search.Result{}, nil, err
	}
	return search.Result{Hits: resp.Hits, Stats: resp.Stats,
		Terminated: resp.Terminated, ScoreBound: resp.ScoreBound}, resp.Spans, nil
}

// QueueInfo is the load feedback a response carries: the ISN's
// admission-queue occupancy and its EWMA service time. Together they
// give the Eq. 2 queue-backlog term (depth × service time).
type QueueInfo struct {
	Depth        int
	AvgServiceUS int64
}

// lastLoad is the load feedback of the latest reply this client read,
// whatever the request was (a shed search counts: it is a reply). The
// two fields are stored one after the other, so a reader racing a reply
// may pair one reply's depth with the next one's service time; both are
// at most one reply old, which is all Eq. 2 asks of them. Never waits
// behind c.mu.
func (c *Client) lastLoad() QueueInfo {
	return QueueInfo{Depth: int(c.depth.Load()), AvgServiceUS: c.avgServiceUS.Load()}
}

// PredictLoad fetches predictions together with the ISN's current load
// feedback for the Eq. 2 equivalent-latency correction.
func (c *Client) PredictLoad(terms []string) (predict.Prediction, QueueInfo, error) {
	pred, load, _, err := c.PredictLoadSpan(obs.SpanContext{}, terms)
	return pred, load, err
}

// FetchShard pulls the remote ISN's full shard image for replica
// repair. The bytes travel as the shard file (per-block CRCs and digest
// intact) inside checksummed frames, and ReadShard re-verifies end-to-end on
// decode — a shard corrupted at the source, in transit, or by a buggy
// peer cannot be re-admitted. A quarantined source refuses to serve
// (CodeQuarantined → ErrShardCorrupt), so repair never copies from a
// replica that is itself lying.
func (c *Client) FetchShard() (*index.Shard, error) {
	var resp Response
	if err := c.call(&Request{Kind: KindFetchShard}, &resp); err != nil {
		return nil, err
	}
	if len(resp.ShardBytes) == 0 {
		return nil, fmt.Errorf("rpc: %s: fetchshard: empty shard payload", c.addr)
	}
	s, err := index.ReadShard(bytes.NewReader(resp.ShardBytes))
	if err != nil {
		return nil, fmt.Errorf("rpc: %s: fetchshard: %w", c.addr, err)
	}
	return s, nil
}

// PredictLoadSpan is PredictLoad with trace propagation (see
// SearchSpan).
func (c *Client) PredictLoadSpan(sc obs.SpanContext, terms []string) (predict.Prediction, QueueInfo, []obs.Span, error) {
	var resp Response
	err := c.call(&Request{Kind: KindPredict, Terms: terms, Trace: sc.Trace, Span: sc.Parent}, &resp)
	if err != nil {
		return predict.Prediction{}, QueueInfo{}, nil, err
	}
	return resp.Pred, QueueInfo{Depth: resp.QueueDepth, AvgServiceUS: resp.AvgServiceUS}, resp.Spans, nil
}
