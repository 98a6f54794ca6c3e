package integrity

import (
	"fmt"
	"sync"
	"time"

	"cottage/internal/index"
)

// Config parameterizes a Manager.
type Config struct {
	// ShardID / Replica attribute this copy in events and snapshots.
	ShardID int
	Replica int
	// ScrubBytesPerSec paces the background scrubber (<= 0 disables).
	ScrubBytesPerSec int
	// Metrics, when set, mirrors detections and transitions onto the
	// registry counters.
	Metrics *Metrics
	// Fetch, when set, is the repair source: it returns a fresh,
	// fully verified shard object (peer-replica transfer or a disk
	// re-read). Called by Repair / the scrub loop while quarantined.
	Fetch func() (*index.Shard, error)
}

// Manager supervises one ISN's shard copy: it gates queries on lazy
// checksum verification, paces the background scrubber, quarantines the
// replica on any detected mismatch, and repairs by swapping in freshly
// fetched verified bytes of the same shard. It owns the copy's state
// machine — healthy → quarantined → repairing → healthy — with MTTR
// measured from the first detection to re-admission, and keeps the last
// maxEvents events. All methods are safe for concurrent use; the query
// path costs one mutex acquisition for the shard pointer plus the
// shard's own lock-free block verification.
type Manager struct {
	cfg Config
	// id and digest name the supervised shard: a repair must bring back
	// the same bytes (builds are byte-deterministic), not merely valid
	// ones.
	id     int
	digest uint32

	mu              sync.Mutex
	shard           *index.Shard
	scrub           Scrubber
	state           State
	quarantinedAtMS int64
	events          []Event // ring of the last maxEvents, newest last
	next            int     // ring cursor once full
	mismatches      uint64
	quarantines     uint64
	repairs         uint64
	mttrTotalMS     int64
}

// maxEvents is how many events a Manager retains.
const maxEvents = 256

// WrongShardError is a repair refused because the fetched shard, valid
// as it may be, is not the supervised one: another partition, or
// another build of it.
type WrongShardError struct {
	WantID, GotID         int
	WantDigest, GotDigest uint32
}

func (e *WrongShardError) Error() string {
	return fmt.Sprintf("integrity: repair fetched shard %d (digest %08x), want shard %d (digest %08x)",
		e.GotID, e.GotDigest, e.WantID, e.WantDigest)
}

// NewManager supervises s under cfg. The shard should already be
// sealed (Finalize and ReadShard both leave it so).
func NewManager(cfg Config, s *index.Shard) *Manager {
	m := &Manager{cfg: cfg, id: s.ID, digest: s.Digest, shard: s}
	m.scrub.BytesPerSec = cfg.ScrubBytesPerSec
	return m
}

// record appends ev to the event ring. Callers hold mu.
func (m *Manager) record(nowMS int64, source, detail string) {
	ev := Event{TimeMS: nowMS, Shard: m.cfg.ShardID, Replica: m.cfg.Replica, Source: source, Detail: detail}
	if len(m.events) < maxEvents {
		m.events = append(m.events, ev)
		return
	}
	m.events[m.next] = ev
	m.next = (m.next + 1) % maxEvents
}

// Shard returns the serving shard, or nil while the replica is
// quarantined or repairing — callers must answer "unavailable", never
// serve from a copy that failed a checksum.
func (m *Manager) Shard() *index.Shard {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.state != Healthy {
		return nil
	}
	return m.shard
}

// VerifyQuery is the query-time integrity gate: it lazily verifies
// every block of every query term and, on a mismatch, records the
// event and quarantines the replica. The error returned is the
// localized corruption — the server maps it to a typed corrupt
// response so the coordinator retries a sibling.
func (m *Manager) VerifyQuery(terms []string, nowMS int64) error {
	m.mu.Lock()
	s := m.shard
	m.mu.Unlock()
	if s == nil {
		return nil
	}
	err := s.VerifyQuery(terms)
	if err == nil {
		return nil
	}
	if index.IsCorruption(err) {
		m.Quarantine(nowMS, "query", err)
	}
	return err
}

// Quarantine records a detected mismatch and takes the replica out of
// service for it (e.g. a typed decode error on load, or an operator
// action). Idempotent: an already quarantined or repairing replica only
// logs the mismatch, so MTTR runs from the first detection.
func (m *Manager) Quarantine(nowMS int64, source string, err error) {
	detail := detailOf(err)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.mismatches++
	m.record(nowMS, source, detail)
	m.cfg.Metrics.mismatch()
	if m.state != Healthy {
		return
	}
	m.state = Quarantined
	m.quarantinedAtMS = nowMS
	m.quarantines++
	m.record(nowMS, "quarantine", detail)
	m.cfg.Metrics.quarantine()
}

// ScrubStep advances the background scrub to nowMS; a mismatch found
// by the scrubber quarantines the replica exactly like a query-time
// detection. Returns blocks scrubbed this step.
func (m *Manager) ScrubStep(nowMS int64) int {
	m.mu.Lock()
	if m.shard == nil || m.state != Healthy {
		m.mu.Unlock()
		return 0
	}
	res := m.scrub.Step(m.shard, nowMS)
	m.mu.Unlock()
	m.cfg.Metrics.scrubbed(res.Scrubbed)
	if res.Err != nil && index.IsCorruption(res.Err) {
		m.Quarantine(nowMS, "scrub", res.Err)
	}
	return res.Scrubbed
}

// ScrubEpochMS reports one full scrub pass's duration at the configured
// pace (0 = scrubbing disabled).
func (m *Manager) ScrubEpochMS() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.scrub.EpochMS(m.shard)
}

// Repair fetches fresh verified shard bytes via cfg.Fetch, re-validates
// them, checks they are the supervised shard (WrongShardError
// otherwise), and swaps the new shard in, re-admitting the replica.
// No-op when healthy. A failed repair leaves the replica quarantined.
func (m *Manager) Repair(nowMS int64) error {
	fetch := m.cfg.Fetch
	m.mu.Lock()
	if m.state == Healthy {
		m.mu.Unlock()
		return nil
	}
	if fetch == nil {
		m.mu.Unlock()
		return fmt.Errorf("integrity: shard %d replica %d quarantined with no repair source",
			m.cfg.ShardID, m.cfg.Replica)
	}
	if m.state == Quarantined {
		m.state = Repairing
		m.record(nowMS, "repair-start", "")
	}
	m.mu.Unlock()

	fresh, err := fetch()
	if err == nil && fresh == nil {
		err = fmt.Errorf("integrity: repair fetch returned no shard")
	}
	if err == nil {
		// Trust nothing: the transferred bytes must verify end to end
		// before this replica serves again.
		err = fresh.Validate()
	}
	if err == nil && (fresh.ID != m.id || fresh.Digest != m.digest) {
		err = &WrongShardError{WantID: m.id, GotID: fresh.ID, WantDigest: m.digest, GotDigest: fresh.Digest}
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if err != nil {
		if m.state == Repairing {
			m.state = Quarantined
			m.record(nowMS, "repair-failed", detailOf(err))
		}
		return err
	}
	m.shard = fresh
	m.scrub.Reset()
	if m.state != Healthy {
		mttr := max(nowMS-m.quarantinedAtMS, 0)
		m.state = Healthy
		m.repairs++
		m.mttrTotalMS += mttr
		m.record(nowMS, "repair-done", fmt.Sprintf("mttr=%dms", mttr))
		m.cfg.Metrics.repair()
	}
	return nil
}

// Snapshot returns the copy's state, counters and events, oldest first.
func (m *Manager) Snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	snap := Snapshot{
		Mismatches:  m.mismatches,
		Quarantines: m.quarantines,
		Repairs:     m.repairs,
		Events:      make([]Event, 0, len(m.events)),
	}
	// Ring order: next..end is the oldest run once wrapped.
	snap.Events = append(snap.Events, m.events[m.next:]...)
	snap.Events = append(snap.Events, m.events[:m.next]...)
	if m.repairs > 0 {
		snap.MeanMTTRMS = m.mttrTotalMS / int64(m.repairs)
	}
	if m.quarantines > 0 {
		st := ReplicaStatus{Shard: m.cfg.ShardID, Replica: m.cfg.Replica, State: m.state,
			Repairs: int(m.repairs), MeanMTTRMS: snap.MeanMTTRMS}
		if m.state != Healthy {
			st.QuarantinedAtMS = m.quarantinedAtMS
		}
		snap.Replicas = []ReplicaStatus{st}
	}
	return snap
}

// RunLoop drives the manager on a wall-clock ticker until stop closes:
// each tick advances the scrub and, while quarantined, attempts a
// repair. This is the live-path wrapper around the same Step/Repair
// calls the twin drives in virtual time. tick must be positive.
func (m *Manager) RunLoop(stop <-chan struct{}, tick time.Duration) {
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case now := <-t.C:
			nowMS := now.UnixMilli()
			m.ScrubStep(nowMS)
			if m.Shard() == nil { // quarantined or repairing
				_ = m.Repair(nowMS) // failures stay quarantined; retried next tick
			}
		}
	}
}
