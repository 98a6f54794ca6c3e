package replica

import "cottage/internal/overload"

// Candidate is one replica's health signals at selection time. All
// fields are observations, not commands: Rank orders candidates, it
// never mutates breakers or connections (breaker admission — Allow()
// and its half-open probe accounting — stays with the caller, on the
// replica it actually sends to).
type Candidate struct {
	// ID is the replica's node (or client) index; Rank returns IDs.
	ID int
	// Failed marks a replica known to be permanently dead (simulated
	// crash, operator removal). Failed replicas are never selected, no
	// matter what — the selector's one hard guarantee.
	Failed bool
	// Quarantined marks a replica whose shard copy failed an integrity
	// check (checksum mismatch, typed decode failure). Like Failed, it
	// is excluded outright — strictly below breaker-open in preference,
	// because an open breaker can still admit a probe while a replica
	// known to serve corrupt bytes must never be chosen until repair
	// re-admits it.
	Quarantined bool
	// Breaker is the replica's circuit-breaker position. Closed ranks
	// first, half-open next (one probe may be admitted), open last —
	// open replicas stay in the order as a last resort because an open
	// breaker past its cooldown can still admit a probe, and a group
	// whose every breaker is open should degrade by probing, not by
	// giving up. Unknown/invalid states rank with open.
	Breaker overload.State
	// Healthy is the transport's current belief (prober/connection
	// state): false means the last contact broke and the next call must
	// redial. Unhealthy replicas rank after healthy ones within the same
	// breaker class.
	Healthy bool
	// ServiceMS is the replica's rolling (EWMA) service time in
	// milliseconds; 0 means no data yet. Cold replicas rank before
	// measured ones within a class so they receive traffic and earn a
	// measurement.
	ServiceMS float64
	// AccErrPct is the replica's rolling absolute latency-prediction
	// error (percent of actual); 0 means no data. Used as the final
	// quality tiebreak: when two replicas look equally fast, prefer the
	// one whose predictor Algorithm 1 can trust.
	AccErrPct float64
}

// sane clamps a health signal: NaN and negative observations carry no
// information and rank like "no data" so adversarial inputs cannot make
// the comparator inconsistent.
func sane(v float64) float64 {
	if v != v || v < 0 {
		return 0
	}
	return v
}

// breakerRank maps breaker state to selection preference.
func breakerRank(s overload.State) int {
	switch s {
	case overload.Closed:
		return 0
	case overload.HalfOpen:
		return 1
	default: // Open and anything out of range
		return 2
	}
}

// Rank orders a replica group's candidates best-first and returns their
// IDs. Failed and Quarantined replicas are excluded entirely; an empty
// (or all-failed) group yields an empty slice, never a panic. The
// ranking rule, most significant first:
//
//  1. breaker state: closed < half-open < open,
//  2. transport health: healthy before broken,
//  3. rolling service time, ascending (0 = no data ranks first),
//  4. rolling predictor error, ascending,
//  5. ID, ascending (determinism).
//
// The rule is deliberately total and deterministic: two aggregators
// with the same observations route the same way, which keeps simulated
// sweeps and live traffic comparable. Rank reorders cands (see RankInto).
func Rank(cands []Candidate) []int { return RankInto(nil, cands) }

// RankInto is Rank without allocating: it moves the selectable
// candidates to the front of cands, sorts them there by Rank's rule, and
// writes their IDs into dst[:0], which it returns (grown only when dst
// is too short). Groups are a handful of replicas, so the sort is an
// insertion sort; the rule ends on the unique ID, so any correct sort
// gives the same order.
func RankInto(dst []int, cands []Candidate) []int {
	live := cands[:0]
	for _, c := range cands {
		if !c.Failed && !c.Quarantined {
			live = append(live, c)
		}
	}
	for i := 1; i < len(live); i++ {
		for j := i; j > 0 && ranksBefore(&live[j], &live[j-1]); j-- {
			live[j], live[j-1] = live[j-1], live[j]
		}
	}
	dst = dst[:0]
	for i := range live {
		dst = append(dst, live[i].ID)
	}
	return dst
}

// ranksBefore is Rank's rule: whether a is preferred to b.
func ranksBefore(a, b *Candidate) bool {
	if ra, rb := breakerRank(a.Breaker), breakerRank(b.Breaker); ra != rb {
		return ra < rb
	}
	if a.Healthy != b.Healthy {
		return a.Healthy
	}
	if sa, sb := sane(a.ServiceMS), sane(b.ServiceMS); sa != sb {
		return sa < sb
	}
	if ea, eb := sane(a.AccErrPct), sane(b.AccErrPct); ea != eb {
		return ea < eb
	}
	return a.ID < b.ID
}
