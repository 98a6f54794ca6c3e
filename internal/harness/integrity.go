package harness

import (
	"fmt"
	"io"

	"cottage/internal/core"
	"cottage/internal/engine"
	"cottage/internal/faults"
	"cottage/internal/index"
	"cottage/internal/trace"
)

// IntegritySweep is the end-to-end data-integrity study (DESIGN.md §16).
// Three parts, all deterministic:
//
//  1. At-rest detection, real bytes: a real shard is encoded, a ladder
//     of seeded bit flips (faults.FlipBits) is driven through the
//     encoded file, and every rotted file must fail the eager load-time
//     verification — either as a localized *CorruptionError from the
//     block checksums or as a structural decode error when the flip
//     lands on the container framing. Detection must be 100% at every
//     rung.
//
//  2. Query-time gate, real bytes: rot is planted under an already
//     loaded shard (flipping posting bits in memory, as a DMA scribble
//     would), and the evaluation trace is replayed through VerifyQuery.
//     A query whose terms touch a rotted block must be refused, a query
//     on clean terms must proceed, and corrupted postings served — the
//     invariant the whole plane exists for — must be exactly zero.
//
//  3. Quarantine/repair economics, twin: a Poisson rot schedule
//     (faults.CorruptionSchedule) replays against the replicated twin
//     (R=2) across a rot-rate x scrub-pace grid, measuring detection
//     latency (query path vs scrubber), MTTR, the corrupt-bounce rate
//     absorbed by shard-level failover, and the P@10 / latency cost of
//     serving through quarantines and repairs.
func IntegritySweep(s *Setup, w io.Writer) error {
	if err := integrityAtRest(s, w); err != nil {
		return err
	}
	if err := integrityQueryGate(s, w); err != nil {
		return err
	}
	return integrityTwinGrid(s, w)
}

// integrityAtRest drives the bit-flip ladder through a real encoded
// shard and reports how each rung was caught at load time.
func integrityAtRest(s *Setup, w io.Writer) error {
	clean := s.Engine.Shards[0].Append(nil)
	fmt.Fprintf(w, "(1) load-time detection: seeded bit flips over a %d-byte encoded shard\n", len(clean))
	fmt.Fprintf(w, "  %-8s %10s %12s %12s %10s\n", "flips", "detected", "checksummed", "structural", "served")
	for _, n := range []int{1, 4, 16, 64, 256} {
		rotted := append([]byte(nil), clean...)
		faults.FlipBits(rotted, n, uint64(2026+n))
		_, err := index.ParseShard(rotted)
		if err == nil {
			return fmt.Errorf("harness: %d-bit rot loaded clean", n)
		}
		typed, structural := 0, 0
		if index.IsCorruption(err) {
			typed = 1
		} else {
			structural = 1
		}
		fmt.Fprintf(w, "  %-8d %10d %12d %12d %10d\n", n, 1, typed, structural, 0)
	}
	return nil
}

// integrityQueryGate plants rot under a loaded shard and replays the
// evaluation trace through the query-time checksum gate.
func integrityQueryGate(s *Setup, w io.Writer) error {
	// A private clone, so rot never leaks into the shared setup.
	sh, err := index.ParseShard(s.Engine.Shards[0].Append(nil))
	if err != nil {
		return fmt.Errorf("harness: integrity clone: %w", err)
	}

	// Rot the first 8 distinct trace terms present on the shard: terms
	// real queries will actually touch.
	rotted := make(map[string]bool)
	for _, q := range s.WikiQueries {
		for _, term := range q.Terms {
			if rotted[term] {
				continue
			}
			if ti, ok := sh.Lookup(term); ok && ti.Len() > 0 && len(ti.BlockData(0)) > 0 {
				ti.BlockData(0)[0] ^= 1
				rotted[term] = true
			}
		}
		if len(rotted) >= 8 {
			break
		}
	}
	if len(rotted) == 0 {
		return fmt.Errorf("harness: no trace term found on shard 0")
	}
	sh.ResetVerification()

	evs := s.WikiEval
	if len(evs) > 2000 {
		evs = evs[:2000]
	}
	touched, blocked, servedCorrupt := 0, 0, 0
	for _, ev := range evs {
		touches := false
		for _, term := range ev.Query.Terms {
			if rotted[term] {
				touches = true
			}
		}
		verr := sh.VerifyQuery(ev.Query.Terms)
		if touches {
			touched++
		}
		if verr != nil {
			blocked++
			if !index.IsCorruption(verr) {
				return fmt.Errorf("harness: query gate returned untyped error: %v", verr)
			}
			if !touches {
				return fmt.Errorf("harness: clean query %v blocked: %v", ev.Query.Terms, verr)
			}
		} else if touches {
			servedCorrupt++
		}
	}
	if servedCorrupt != 0 {
		return fmt.Errorf("harness: %d queries served from rotted blocks", servedCorrupt)
	}

	// Localization: a full sweep must find exactly the planted blocks.
	found := 0
	for g := 0; g < sh.TotalBlocks(); g++ {
		if sh.VerifyBlockAt(g) != nil {
			found++
		}
	}
	fmt.Fprintf(w, "(2) query-time gate: %d terms rotted in memory under a loaded shard\n", len(rotted))
	fmt.Fprintf(w, "  queries replayed %d, touching rot %d, refused %d, corrupted postings served %d\n",
		len(evs), touched, blocked, servedCorrupt)
	fmt.Fprintf(w, "  scrub localization: %d/%d blocks flagged (%d planted)\n",
		found, sh.TotalBlocks(), len(rotted))
	if found != len(rotted) {
		return fmt.Errorf("harness: scrub flagged %d blocks, planted %d", found, len(rotted))
	}
	return nil
}

// integrityTwinGrid replays Poisson rot schedules against the
// replicated twin across a rot-rate x scrub-pace grid.
func integrityTwinGrid(s *Setup, w io.Writer) error {
	cfg := s.Config.EngineCfg
	cfg.Cluster.Replicas = 2
	eng := engine.New(s.Engine.Shards, cfg)
	// Replicas serve the same shard at the same speed, so the trained
	// per-ISN fleet transfers as-is: no retraining.
	eng.Fleet = s.Engine.Fleet
	pol := core.NewCottage()
	pol.Degraded = core.DegradedConservative

	horizonMS := trace.DurationMS(s.WikiQueries)
	nodes := len(s.Engine.Shards) * 2
	const repairMS = 50

	base := engine.Summarize(eng.Run(pol, s.WikiEval))
	fmt.Fprintf(w, "(3) twin quarantine/repair grid: R=2, %d nodes, %.0fs horizon, repair %d ms\n",
		nodes, horizonMS/1000, repairMS)
	fmt.Fprintf(w, "  baseline (no rot): P@10 %.3f, avg %.2f ms\n", base.MeanPAtK, base.MeanLatency)
	fmt.Fprintf(w, "  %-10s %-9s %4s %5s %5s %9s %7s %8s %7s %8s %9s\n",
		"rot/node/s", "scrub ms", "rot", "q-det", "s-det", "detect ms", "repairs", "mttr ms", "bounce", "P@10", "avg ms")
	for _, rate := range []float64{0.02, 0.1} {
		sched := faults.CorruptionSchedule(2026, nodes, horizonMS, rate)
		for _, epoch := range []float64{0, 2000, 500} {
			eng.Cluster.Rot = sched
			eng.Cluster.ScrubEpochMS = epoch
			eng.Cluster.RepairMS = repairMS
			sm := engine.Summarize(eng.Run(pol, s.WikiEval))
			st := eng.Cluster.IntegrityStats()
			fmt.Fprintf(w, "  %-10.2f %-9.0f %4d %5d %5d %9.1f %7d %8.1f %7d %8.3f %9.2f\n",
				rate, epoch, st.Corruptions, st.QueryDetections, st.ScrubDetections,
				st.MeanDetectionMS, st.Repairs, st.MeanMTTRMS, st.CorruptRejects,
				sm.MeanPAtK, sm.MeanLatency)
			// The invariants the grid exists to demonstrate: rot never
			// loses a query (R=2 failover absorbs every bounce), and with
			// scrubbing + repair on, quality holds near the clean run.
			if sm.FailedFrac > 0 {
				return fmt.Errorf("harness: rot rate %v lost %.4f of queries", rate, sm.FailedFrac)
			}
			if epoch > 0 && sm.MeanPAtK < base.MeanPAtK-0.05 {
				return fmt.Errorf("harness: P@10 %.3f fell >0.05 below clean %.3f (rate %v, scrub %v)",
					sm.MeanPAtK, base.MeanPAtK, rate, epoch)
			}
		}
	}
	return nil
}
