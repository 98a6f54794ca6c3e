package rpc

// Coordinator-side quarantine: a replica that answers CodeQuarantined
// (ErrShardCorrupt) is marked on its Client and drops out of selection
// entirely — replica.RankInto excludes quarantined candidates outright,
// strictly below breaker-open, because an open breaker can still admit
// a probe while a replica known to serve corrupt bytes must never be
// chosen. Re-admission is driven by the prober: a ping whose status bit
// reports the remote copy healthy again (repair completed server-side)
// clears the mark.
//
// The mark is the coordinator's view — "what did this replica tell me",
// lag included — not ground truth about bytes on a remote disk. The
// ISN's integrity.Manager owns that, with its MTTR accounting and event
// log (/debug/integrity).

// clientQuarantined reports whether the coordinator currently considers
// client ci's shard copy out of service.
func (a *Aggregator) clientQuarantined(ci int) bool {
	return a.Clients[ci].quarantined.Load()
}

// noteCorrupt quarantines client ci after a typed corruption answer.
// Idempotent. Quarantine also ends the client's epoch: the copy that
// comes back from repair is not the one that answered, so the
// prediction memo must ask it again (on the same connection — a
// quarantined replica's stream stays up).
func (a *Aggregator) noteCorrupt(ci int) {
	c := a.Clients[ci]
	if c.quarantined.CompareAndSwap(false, true) {
		c.epoch.Add(1)
	}
}

// readmitClient returns a quarantined replica to rotation after the
// prober observed its repair complete. No-op when not quarantined.
func (a *Aggregator) readmitClient(ci int) {
	a.Clients[ci].quarantined.Store(false)
}
