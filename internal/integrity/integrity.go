// Package integrity is the quarantine/repair plane over the checksummed
// shard format (internal/index). It supplies three cooperating pieces:
//
//   - Ledger: a corruption ledger — every detected mismatch becomes an
//     attributed event (which shard, which replica, detected where), and
//     per-replica state machines track healthy → quarantined → repairing
//     → healthy with MTTR accounting. The coordinator keeps one to rank
//     quarantined replicas out of selection; each ISN keeps one for its
//     own shard copy.
//   - Scrubber: a paced, pull-based background verifier. Step(nowMS)
//     checksums as many blocks as the elapsed time × bytes/sec budget
//     allows, so integrity checking never competes with query latency,
//     and the same code runs in wall-clock (a goroutine loop) and in the
//     twin's virtual time (deterministic across GOMAXPROCS).
//   - Manager: the per-ISN supervisor tying shard, scrubber, ledger and
//     metrics together: query-time verification gate, quarantine on any
//     mismatch, repair by re-fetching verified bytes (peer replica or
//     disk), re-validation, and re-admission.
//
// Detection without attribution is noise; the ledger makes every
// corruption actionable, and the manager makes it survivable.
package integrity

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"

	"cottage/internal/obs"
)

// State is one replica-shard's position in the integrity state machine.
type State int

const (
	// Healthy replicas serve queries and are scrubbed in the background.
	Healthy State = iota
	// Quarantined replicas failed a checksum and serve nothing until
	// repaired. Selection ranks them below breaker-open replicas: a
	// replica known to lie is worse than one that might be dead.
	Quarantined
	// Repairing replicas are mid-transfer: fresh verified bytes are
	// being fetched from a healthy peer (or re-read from disk).
	Repairing
)

func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Quarantined:
		return "quarantined"
	case Repairing:
		return "repairing"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// MarshalJSON renders states by name in /debug/integrity output.
func (s State) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON accepts the same by-name encoding, so snapshot
// consumers (tests, tooling) can round-trip /debug/integrity payloads.
func (s *State) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	switch name {
	case "healthy":
		*s = Healthy
	case "quarantined":
		*s = Quarantined
	case "repairing":
		*s = Repairing
	default:
		return fmt.Errorf("integrity: unknown state %q", name)
	}
	return nil
}

// Event is one ledger entry: a detected corruption or a state
// transition, attributed and timestamped (virtual or wall ms).
type Event struct {
	TimeMS  int64 `json:"time_ms"`
	Shard   int   `json:"shard"`
	Replica int   `json:"replica"`
	// Source is where detection happened: "load", "query", "scrub",
	// "frame" (RPC payload CRC), or the transitions "quarantine",
	// "repair-start", "repair-done", "repair-failed".
	Source string `json:"source"`
	Detail string `json:"detail,omitempty"`
}

// replicaKey identifies one shard copy.
type replicaKey struct{ shard, replica int }

// replicaState is the per-copy state machine plus repair accounting.
type replicaState struct {
	state           State
	quarantinedAtMS int64
	repairs         int
	mttrTotalMS     int64
}

// ReplicaStatus is one replica's externally visible integrity state.
type ReplicaStatus struct {
	Shard           int   `json:"shard"`
	Replica         int   `json:"replica"`
	State           State `json:"state"`
	QuarantinedAtMS int64 `json:"quarantined_at_ms,omitempty"`
	Repairs         int   `json:"repairs"`
	MeanMTTRMS      int64 `json:"mean_mttr_ms"`
}

// Snapshot is the ledger's full externally visible state — the
// /debug/integrity payload.
type Snapshot struct {
	Replicas    []ReplicaStatus `json:"replicas"`
	Events      []Event         `json:"events"`
	Mismatches  uint64          `json:"mismatches"`
	Quarantines uint64          `json:"quarantines"`
	Repairs     uint64          `json:"repairs"`
	MeanMTTRMS  int64           `json:"mean_mttr_ms"`
}

// Ledger records detected corruptions and tracks each replica-shard's
// quarantine/repair state machine. Safe for concurrent use.
type Ledger struct {
	mu       sync.Mutex
	events   []Event // ring buffer of the last ledgerEvents, newest last
	next     int     // ring cursor once full
	replicas map[replicaKey]*replicaState

	mismatches  uint64
	quarantines uint64
	repairs     uint64
	mttrTotalMS int64

	// Metrics, when set, mirrors transitions onto registry counters.
	Metrics *Metrics
}

// ledgerEvents is how many events a Ledger retains.
const ledgerEvents = 256

// NewLedger builds a ledger retaining the last ledgerEvents events.
func NewLedger() *Ledger {
	return &Ledger{replicas: make(map[replicaKey]*replicaState)}
}

func (l *Ledger) record(ev Event) {
	if len(l.events) < ledgerEvents {
		l.events = append(l.events, ev)
		return
	}
	l.events[l.next] = ev
	l.next = (l.next + 1) % ledgerEvents
}

func (l *Ledger) replica(shard, replica int) *replicaState {
	k := replicaKey{shard, replica}
	rs := l.replicas[k]
	if rs == nil {
		rs = &replicaState{}
		l.replicas[k] = rs
	}
	return rs
}

// RecordMismatch logs one detected corruption (it does not change
// state; callers decide whether the finding quarantines the replica).
func (l *Ledger) RecordMismatch(shard, replica int, nowMS int64, source, detail string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.mismatches++
	l.record(Event{TimeMS: nowMS, Shard: shard, Replica: replica, Source: source, Detail: detail})
	l.Metrics.mismatch()
}

// Quarantine moves a replica to Quarantined (idempotent: an already
// quarantined or repairing replica is left alone so MTTR measures the
// first detection to re-admission).
func (l *Ledger) Quarantine(shard, replica int, nowMS int64, detail string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	rs := l.replica(shard, replica)
	if rs.state != Healthy {
		return false
	}
	rs.state = Quarantined
	rs.quarantinedAtMS = nowMS
	l.quarantines++
	l.record(Event{TimeMS: nowMS, Shard: shard, Replica: replica, Source: "quarantine", Detail: detail})
	l.Metrics.quarantine()
	return true
}

// StartRepair marks a quarantined replica as mid-repair.
func (l *Ledger) StartRepair(shard, replica int, nowMS int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	rs := l.replica(shard, replica)
	if rs.state != Quarantined {
		return
	}
	rs.state = Repairing
	l.record(Event{TimeMS: nowMS, Shard: shard, Replica: replica, Source: "repair-start"})
}

// FailRepair returns a repairing replica to Quarantined (the fetch
// failed; the repair loop will retry).
func (l *Ledger) FailRepair(shard, replica int, nowMS int64, detail string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	rs := l.replica(shard, replica)
	if rs.state != Repairing {
		return
	}
	rs.state = Quarantined
	l.record(Event{TimeMS: nowMS, Shard: shard, Replica: replica, Source: "repair-failed", Detail: detail})
}

// Readmit completes a repair: the replica returns to Healthy and the
// quarantine-to-readmission interval feeds MTTR.
func (l *Ledger) Readmit(shard, replica int, nowMS int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	rs := l.replica(shard, replica)
	if rs.state == Healthy {
		return
	}
	mttr := nowMS - rs.quarantinedAtMS
	if mttr < 0 {
		mttr = 0
	}
	rs.state = Healthy
	rs.repairs++
	rs.mttrTotalMS += mttr
	l.repairs++
	l.mttrTotalMS += mttr
	l.record(Event{TimeMS: nowMS, Shard: shard, Replica: replica, Source: "repair-done",
		Detail: fmt.Sprintf("mttr=%dms", mttr)})
	l.Metrics.repair()
}

// IsQuarantined reports whether a replica is out of service (either
// Quarantined or Repairing — it serves nothing until re-admitted).
func (l *Ledger) IsQuarantined(shard, replica int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	rs := l.replicas[replicaKey{shard, replica}]
	return rs != nil && rs.state != Healthy
}

// Snapshot returns the full ledger state, events oldest-first.
func (l *Ledger) Snapshot() Snapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	snap := Snapshot{
		Mismatches:  l.mismatches,
		Quarantines: l.quarantines,
		Repairs:     l.repairs,
		Events:      make([]Event, 0, len(l.events)),
	}
	if l.repairs > 0 {
		snap.MeanMTTRMS = l.mttrTotalMS / int64(l.repairs)
	}
	// Ring order: next..end is the oldest run once wrapped.
	if len(l.events) == ledgerEvents {
		snap.Events = append(snap.Events, l.events[l.next:]...)
		snap.Events = append(snap.Events, l.events[:l.next]...)
	} else {
		snap.Events = append(snap.Events, l.events...)
	}
	for k, rs := range l.replicas {
		st := ReplicaStatus{Shard: k.shard, Replica: k.replica, State: rs.state, Repairs: rs.repairs}
		if rs.state != Healthy {
			st.QuarantinedAtMS = rs.quarantinedAtMS
		}
		if rs.repairs > 0 {
			st.MeanMTTRMS = rs.mttrTotalMS / int64(rs.repairs)
		}
		snap.Replicas = append(snap.Replicas, st)
	}
	sort.Slice(snap.Replicas, func(i, j int) bool {
		a, b := snap.Replicas[i], snap.Replicas[j]
		if a.Shard != b.Shard {
			return a.Shard < b.Shard
		}
		return a.Replica < b.Replica
	})
	return snap
}

// Metrics are the integrity plane's registry counters. All methods are
// nil-safe so wiring them up is optional everywhere.
type Metrics struct {
	ScrubbedBlocks *obs.Counter
	Mismatches     *obs.Counter
	Quarantines    *obs.Counter
	Repairs        *obs.Counter
}

// NewMetrics registers the integrity counters on reg.
func NewMetrics(reg *obs.Registry, labels ...obs.Label) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		ScrubbedBlocks: reg.Counter("cottage_integrity_scrubbed_blocks_total",
			"Posting blocks re-checksummed by the background scrubber.", labels...),
		Mismatches: reg.Counter("cottage_integrity_mismatches_total",
			"Checksum mismatches detected (load, query, scrub, or RPC frame).", labels...),
		Quarantines: reg.Counter("cottage_integrity_quarantines_total",
			"Shard replicas quarantined after a detected corruption.", labels...),
		Repairs: reg.Counter("cottage_integrity_repairs_total",
			"Quarantined replicas repaired and re-admitted.", labels...),
	}
}

func (m *Metrics) scrubbed(n int) {
	if m != nil && m.ScrubbedBlocks != nil && n > 0 {
		m.ScrubbedBlocks.Add(uint64(n))
	}
}
func (m *Metrics) mismatch() {
	if m != nil && m.Mismatches != nil {
		m.Mismatches.Inc()
	}
}
func (m *Metrics) quarantine() {
	if m != nil && m.Quarantines != nil {
		m.Quarantines.Inc()
	}
}
func (m *Metrics) repair() {
	if m != nil && m.Repairs != nil {
		m.Repairs.Inc()
	}
}

// Handler serves a ledger snapshot as JSON — the /debug/integrity
// endpoint (mount via obs.Endpoint on the debug mux).
func Handler(snap func() Snapshot) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(snap())
	})
}

// detailOf extracts a compact detail string from a verification error
// for ledger entries.
func detailOf(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
