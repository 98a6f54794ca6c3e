package rpc

import (
	"time"

	"cottage/internal/integrity"
)

// Coordinator-side quarantine: the aggregator keeps its own integrity
// ledger over the replicas it routes to. A replica that answers
// CodeQuarantined (ErrShardCorrupt) is marked here and drops out of
// selection entirely — replica.RankInto excludes quarantined candidates
// outright, strictly below breaker-open, because an open breaker can
// still admit a probe while a replica known to serve corrupt bytes
// must never be chosen. Re-admission is driven by the prober: a ping
// whose status bit reports the remote copy healthy again (repair
// completed server-side) readmits the replica and records its MTTR.
//
// The ledger is deliberately separate from the server-side one: the
// coordinator's view is "what did this replica tell me", lag included,
// not ground truth about bytes on a remote disk.

// quarantineLedger lazily builds the aggregator's ledger so struct-
// literal construction (tests, tools) stays valid.
func (a *Aggregator) quarantineLedger() *integrity.Ledger {
	a.qOnce.Do(func() { a.quarantine = integrity.NewLedger() })
	return a.quarantine
}

// shardOf maps a client index back to its logical shard (the client's
// replica-group row key).
func (a *Aggregator) shardOf(ci int) int {
	for s, g := range a.Groups {
		for _, m := range g {
			if m == ci {
				return s
			}
		}
	}
	return ci
}

// clientQuarantined reports whether the coordinator currently considers
// client ci's shard copy out of service.
func (a *Aggregator) clientQuarantined(ci int) bool {
	return a.quarantineLedger().IsQuarantined(a.shardOf(ci), ci)
}

// noteCorrupt records a replica's typed corruption answer and
// quarantines it in the coordinator's ledger. Idempotent; later calls
// while already quarantined only extend the mismatch log. Quarantine
// also ends the client's epoch: the copy that comes back from repair is
// not the one that answered, so the prediction memo must ask it again
// (on the same connection — a quarantined replica's stream stays up).
func (a *Aggregator) noteCorrupt(shard, ci int, err error) {
	now := time.Now().UnixMilli()
	l := a.quarantineLedger()
	l.RecordMismatch(shard, ci, now, "rpc", err.Error())
	if l.Quarantine(shard, ci, now, err.Error()) {
		a.Clients[ci].epoch.Add(1)
	}
}

// readmitClient returns a quarantined replica to rotation after the
// prober observed its repair complete. No-op when not quarantined.
func (a *Aggregator) readmitClient(ci int) {
	a.quarantineLedger().Readmit(a.shardOf(ci), ci, time.Now().UnixMilli())
}
