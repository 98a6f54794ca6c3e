// Package integrity is the quarantine/repair plane over the checksummed
// shard format (internal/index). It supplies two cooperating pieces:
//
//   - Scrubber: a paced, pull-based background verifier. Step(nowMS)
//     checksums as many blocks as the elapsed time × bytes/sec budget
//     allows, so integrity checking never competes with query latency,
//     and the same code runs in wall-clock (a goroutine loop) and in the
//     twin's virtual time (deterministic across GOMAXPROCS).
//   - Manager: the per-ISN supervisor of one shard copy: query-time
//     verification gate, quarantine on any mismatch, repair by
//     re-fetching verified bytes (peer replica or disk), re-validation
//     and an identity check, and re-admission. It owns the copy's
//     healthy → quarantined → repairing → healthy state machine, its
//     MTTR accounting, and an event log in which every detected
//     mismatch is attributed (which shard, which replica, detected
//     where).
//
// Detection without attribution is noise; the event log makes every
// corruption actionable, and the manager makes it survivable.
package integrity

import (
	"encoding/json"
	"fmt"
	"net/http"

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

// Event is one log entry: a detected corruption or a state
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

// ReplicaStatus is one replica's externally visible integrity state.
type ReplicaStatus struct {
	Shard           int   `json:"shard"`
	Replica         int   `json:"replica"`
	State           State `json:"state"`
	QuarantinedAtMS int64 `json:"quarantined_at_ms,omitempty"`
	Repairs         int   `json:"repairs"`
	MeanMTTRMS      int64 `json:"mean_mttr_ms"`
}

// Snapshot is a Manager's full externally visible state — the
// /debug/integrity payload. Replicas is nil until the copy is first
// quarantined, and holds the one supervised copy from then on.
type Snapshot struct {
	Replicas    []ReplicaStatus `json:"replicas"`
	Events      []Event         `json:"events"`
	Mismatches  uint64          `json:"mismatches"`
	Quarantines uint64          `json:"quarantines"`
	Repairs     uint64          `json:"repairs"`
	MeanMTTRMS  int64           `json:"mean_mttr_ms"`
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

// Handler serves a snapshot as JSON — the /debug/integrity
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
// for log entries.
func detailOf(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
