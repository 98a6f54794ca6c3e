package integrity

import (
	"cottage/internal/index"
)

// Scrubber walks a shard's posting blocks at a paced byte budget,
// re-checksumming each against its sealed CRC. It is pull-based: the
// owner calls Step with the current time (wall or virtual milliseconds)
// and the scrubber verifies however many blocks the elapsed-time ×
// bytes/sec budget covers. That inversion keeps the scrubber
// deterministic — the twin drives it in virtual time and gets identical
// behavior at GOMAXPROCS=1 and 8 — and keeps it cheap: a 2 MB shard
// scrubbed at 64 KB/s costs ~32 s per pass and never contends with a
// query for more than one block's CRC.
type Scrubber struct {
	// BytesPerSec is the pacing budget. <= 0 disables scrubbing
	// entirely (Step becomes a no-op).
	BytesPerSec int

	cursor  int     // next global block to verify
	lastMS  int64   // time of the previous Step
	started bool    // lastMS is valid
	carry   float64 // unspent byte budget carried between Steps
}

// StepResult summarizes one Step call.
type StepResult struct {
	// Scrubbed is how many blocks were verified this Step.
	Scrubbed int
	// Err is the first corruption found, nil when the pass was clean.
	// Scrubbing stops at the first mismatch — the owner quarantines the
	// whole replica, so localizing more blocks buys nothing.
	Err error
}

// Reset rewinds the scrubber for a fresh shard (after repair swaps the
// shard object, block indices and totals change).
func (sc *Scrubber) Reset() {
	sc.cursor = 0
	sc.carry = 0
	sc.started = false
}

// EpochMS returns how long one full pass over s takes at the configured
// pace, in milliseconds (0 when scrubbing is disabled or s is empty) —
// the scrub-pace half of the detection-latency bound: an at-rest flip
// is found at worst one epoch after it lands, sooner if a query
// touches the block first.
func (sc *Scrubber) EpochMS(s *index.Shard) int64 {
	if sc.BytesPerSec <= 0 || s == nil {
		return 0
	}
	return int64(s.PostingBytes()) * 1000 / int64(sc.BytesPerSec)
}

// Step advances the scrub over s to nowMS. The first call only anchors
// the clock; later calls verify floor(elapsed × BytesPerSec) bytes'
// worth of blocks, carrying any remainder. Completing a pass resets the
// shard's verification memo (see index.ResetVerification) so the next
// epoch re-checksums from scratch instead of trusting stale verdicts.
func (sc *Scrubber) Step(s *index.Shard, nowMS int64) StepResult {
	var res StepResult
	if sc.BytesPerSec <= 0 || s == nil || !s.HasChecksums() || s.TotalBlocks() == 0 {
		return res
	}
	if !sc.started {
		sc.started = true
		sc.lastMS = nowMS
		return res
	}
	elapsed := nowMS - sc.lastMS
	if elapsed < 0 {
		elapsed = 0
	}
	sc.lastMS = nowMS
	sc.carry += float64(elapsed) * float64(sc.BytesPerSec) / 1000.0
	// Cap the carry at one full pass: after a long idle gap one Step
	// should scrub at most the whole shard, not spin repeatedly.
	if max := float64(s.PostingBytes()); sc.carry > max && max > 0 {
		sc.carry = max
	}
	total := s.TotalBlocks()
	if sc.cursor >= total {
		sc.cursor = 0
	}
	for {
		cost := float64(s.BlockBytes(sc.cursor))
		if cost < 8 {
			cost = 8 // empty/degenerate blocks still cost one posting
		}
		if sc.carry < cost {
			return res
		}
		sc.carry -= cost
		if err := s.VerifyBlockAt(sc.cursor); err != nil {
			res.Err = err
			res.Scrubbed++
			return res
		}
		res.Scrubbed++
		sc.cursor++
		if sc.cursor == total {
			sc.cursor = 0
			s.ResetVerification()
		}
	}
}
