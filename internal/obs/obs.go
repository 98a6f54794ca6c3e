// Package obs is the observability layer: a lock-cheap metrics registry
// (atomic counters, gauges and fixed-bucket latency histograms exported
// in Prometheus text format), per-query span traces with a ring buffer
// and JSONL export, rolling predictor-accuracy tracking (the paper's
// Fig. 5–7 quantities, live), and an HTTP debug listener exposing
// /metrics, /healthz, /debug/traces and net/http/pprof.
//
// Everything budget-related in Cottage is a measurable claim — the
// chosen budget T, the per-ISN boost/drop decisions, predictor error,
// tail latency — and this package is where those quantities become
// visible outside the experiment harness. Both serving paths feed it:
// the live transport (internal/rpc) records wall-clock spans that flow
// across the wire via injected trace/span IDs, and the simulated twin
// (internal/engine + internal/cluster) records the same span names and
// metrics in virtual time, so harness sweeps validate the
// instrumentation itself.
//
// Hot-path discipline: metric updates are single atomic operations —
// the registry's mutex guards only metric creation and scrapes, never
// updates. Trace recording takes one short mutex per span append and
// one per completed query (the ring buffer), far off the per-posting
// hot path.
package obs

import (
	"sync/atomic"
	"time"
)

// Observer bundles the observability surfaces a component needs: the
// metrics registry, the trace ring buffer, the rolling
// predictor-accuracy tracker, and (optionally) a flight recorder fed
// alongside the ring. A nil *Observer disables all recording; every
// integration point checks for nil before touching it.
type Observer struct {
	Reg    *Registry
	Traces *Recorder
	Acc    *Accuracy
	// Flight, when set, additionally keeps the slowest traces per window
	// plus a reservoir sample (see FlightRecorder). Feed it via AddTrace.
	Flight *FlightRecorder
}

// NewObserver builds an Observer with numISNs predictor-accuracy slots
// and a trace ring buffer of ringSize completed queries. The accuracy
// tracker's gauges are pre-registered under cottage_predictor_*.
func NewObserver(numISNs, ringSize int) *Observer {
	o := &Observer{
		Reg:    NewRegistry(),
		Traces: NewRecorder(ringSize),
		Acc:    NewAccuracy(numISNs),
	}
	o.Acc.Register(o.Reg)
	o.Reg.Register("cottage_trace_spans_dropped_total",
		"Grafted spans dropped by the per-trace span cap (process-wide).",
		&droppedSpans)
	return o
}

// AddTrace records a completed trace in the ring buffer and, when a
// flight recorder is attached, offers it there too. Nil-safe.
func (o *Observer) AddTrace(t *Trace) {
	if o == nil {
		return
	}
	o.Traces.Add(t)
	o.Flight.Add(t)
}

// ID generation: a process-seeded SplitMix64 stream. IDs are unique
// within a process and never zero (zero means "untraced" on the wire).
var (
	idCounter atomic.Uint64
	idSeed    = uint64(time.Now().UnixNano())
)

// NewID returns a fresh non-zero trace or span ID.
func NewID() uint64 {
	z := idSeed + idCounter.Add(1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// SpanContext is the propagation envelope injected into RPC requests:
// the trace the request belongs to and the client-side span that parents
// whatever the server records. The zero value means "untraced" and makes
// every downstream recording a no-op.
type SpanContext struct {
	Trace  uint64
	Parent uint64
}
