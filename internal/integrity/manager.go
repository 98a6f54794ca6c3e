package integrity

import (
	"fmt"
	"sync"
	"time"

	"cottage/internal/index"
)

// Config parameterizes a Manager.
type Config struct {
	// ShardID / Replica attribute this copy in ledger events.
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
// fetched verified bytes. All methods are safe for concurrent use; the
// query path costs one mutex acquisition for the shard pointer plus the
// shard's own lock-free block verification.
type Manager struct {
	cfg    Config
	ledger *Ledger

	mu    sync.Mutex
	shard *index.Shard
	scrub Scrubber
}

// NewManager supervises s under cfg. The shard should already be
// sealed (Finalize and ReadShard both leave it so).
func NewManager(cfg Config, s *index.Shard) *Manager {
	l := NewLedger()
	l.Metrics = cfg.Metrics
	m := &Manager{cfg: cfg, ledger: l, shard: s}
	m.scrub.BytesPerSec = cfg.ScrubBytesPerSec
	return m
}

// Shard returns the serving shard, or nil while the replica is
// quarantined or repairing — callers must answer "unavailable", never
// serve from a copy that failed a checksum.
func (m *Manager) Shard() *index.Shard {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.ledger.IsQuarantined(m.cfg.ShardID, m.cfg.Replica) {
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

// Quarantine takes the replica out of service for an externally
// detected integrity failure (e.g. a typed decode error on load, or an
// operator action). Idempotent.
func (m *Manager) Quarantine(nowMS int64, source string, err error) {
	m.ledger.RecordMismatch(m.cfg.ShardID, m.cfg.Replica, nowMS, source, detailOf(err))
	m.ledger.Quarantine(m.cfg.ShardID, m.cfg.Replica, nowMS, detailOf(err))
}

// ScrubStep advances the background scrub to nowMS; a mismatch found
// by the scrubber quarantines the replica exactly like a query-time
// detection. Returns blocks scrubbed this step.
func (m *Manager) ScrubStep(nowMS int64) int {
	m.mu.Lock()
	s := m.shard
	quarantined := m.ledger.IsQuarantined(m.cfg.ShardID, m.cfg.Replica)
	if s == nil || quarantined {
		m.mu.Unlock()
		return 0
	}
	res := m.scrub.Step(s, nowMS)
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

// Repair fetches fresh verified shard bytes via cfg.Fetch (or the
// explicit fetch argument when non-nil), re-validates them, and swaps
// the new shard in, re-admitting the replica. No-op when healthy.
func (m *Manager) Repair(nowMS int64, fetch func() (*index.Shard, error)) error {
	if !m.ledger.IsQuarantined(m.cfg.ShardID, m.cfg.Replica) {
		return nil
	}
	if fetch == nil {
		fetch = m.cfg.Fetch
	}
	if fetch == nil {
		return fmt.Errorf("integrity: shard %d replica %d quarantined with no repair source",
			m.cfg.ShardID, m.cfg.Replica)
	}
	m.ledger.StartRepair(m.cfg.ShardID, m.cfg.Replica, nowMS)
	fresh, err := fetch()
	if err == nil && fresh == nil {
		err = fmt.Errorf("integrity: repair fetch returned no shard")
	}
	if err == nil {
		// Trust nothing: the transferred bytes must verify end to end
		// before this replica serves again.
		err = fresh.Validate()
	}
	if err != nil {
		m.ledger.FailRepair(m.cfg.ShardID, m.cfg.Replica, nowMS, detailOf(err))
		return err
	}
	m.mu.Lock()
	m.shard = fresh
	m.scrub.Reset()
	m.mu.Unlock()
	m.ledger.Readmit(m.cfg.ShardID, m.cfg.Replica, nowMS)
	return nil
}

// Snapshot returns the ledger snapshot plus live scrub progress.
func (m *Manager) Snapshot() Snapshot { return m.ledger.Snapshot() }

// RunLoop drives the manager on a wall-clock ticker until stop closes:
// each tick advances the scrub and, while quarantined, attempts a
// repair. This is the live-path wrapper around the same Step/Repair
// calls the twin drives in virtual time.
func (m *Manager) RunLoop(stop <-chan struct{}, tick time.Duration) {
	if tick <= 0 {
		tick = 100 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case now := <-t.C:
			nowMS := now.UnixMilli()
			m.ScrubStep(nowMS)
			if m.ledger.IsQuarantined(m.cfg.ShardID, m.cfg.Replica) {
				_ = m.Repair(nowMS, nil) // failures stay quarantined; retried next tick
			}
		}
	}
}
