package cluster

import (
	"math"
	"testing"

	"cottage/internal/faults"
)

// integrityCluster is newReplicated with the scrubber and repair loop
// configured (one full sweep per 100 ms, 40 ms repairs).
func integrityCluster(t *testing.T, shards, r int, scrubEpoch, repair float64) *Cluster {
	t.Helper()
	c := newReplicated(t, shards, r)
	c.ScrubEpochMS = scrubEpoch
	c.RepairMS = repair
	return c
}

func TestQueryDetectsRotAndFailsOver(t *testing.T) {
	c := integrityCluster(t, 2, 2, 0, 0) // no scrub, no repair
	c.CorruptISN(0, 0, 0.5)              // shard 0 replica 0 rots at t=0

	ex := c.ExecuteShard(0, 10, 1e6, 1.8, math.Inf(1))
	if ex.Status != LegAnswered {
		t.Fatalf("query lost to a repairable fault: %+v", ex)
	}
	if ex.ISN != 2 || ex.Failovers != 1 {
		t.Fatalf("served by node %d after %d failovers, want sibling 2 after 1", ex.ISN, ex.Failovers)
	}
	if !c.NodeQuarantined(0) {
		t.Fatal("detected rot did not quarantine the node")
	}
	st := c.IntegrityStats()
	if st.Corruptions != 1 || st.QueryDetections != 1 || st.ScrubDetections != 0 ||
		st.Quarantines != 1 || st.CorruptRejects != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.MeanDetectionMS <= 0 {
		t.Fatalf("detection latency %v, want > 0 (rot at 0, query at 10)", st.MeanDetectionMS)
	}

	// Quarantine is sticky without repair: the node stays excluded.
	if got := c.rankShard(0, 1000); len(got) != 1 || got[0] != 2 {
		t.Fatalf("rankShard = %v, want [2]", got)
	}
}

func TestScrubDetectsUntouchedRot(t *testing.T) {
	c := integrityCluster(t, 1, 2, 100, 0)
	c.CorruptISN(0, 30, 0.5) // cursor reaches frac 0.5 at t=50

	// Before the scrubber's cursor arrives, the rotted copy still ranks.
	if got := c.rankShard(0, 49); len(got) != 2 {
		t.Fatalf("rankShard before detection = %v, want both replicas", got)
	}
	// After: quarantined without any query ever touching it.
	if got := c.rankShard(0, 60); len(got) != 1 || got[0] != 1 {
		t.Fatalf("rankShard after scrub detection = %v, want [1]", got)
	}
	st := c.IntegrityStats()
	if st.ScrubDetections != 1 || st.QueryDetections != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if st.MeanDetectionMS != 20 {
		t.Fatalf("detection latency %v, want 20 (rot at 30, cursor at 50)", st.MeanDetectionMS)
	}
}

func TestScrubDetectionBoundedByOneEpoch(t *testing.T) {
	c := integrityCluster(t, 1, 1, 100, 0)
	// Rot lands just after the cursor passed its position: worst case,
	// detection waits almost a full epoch for the next pass.
	c.CorruptISN(0, 51, 0.5) // cursor passed 0.5 at t=50; next pass at 150
	c.syncIntegrity(0, 149)
	if c.NodeQuarantined(0) {
		t.Fatal("detected before the cursor could have returned")
	}
	c.syncIntegrity(0, 150)
	if !c.NodeQuarantined(0) {
		t.Fatal("not detected by the next pass")
	}
	if st := c.IntegrityStats(); st.MeanDetectionMS != 99 {
		t.Fatalf("detection latency %v, want 99 (< one epoch)", st.MeanDetectionMS)
	}
}

func TestRepairReadmitsWithMTTR(t *testing.T) {
	c := integrityCluster(t, 1, 2, 100, 40)
	c.CorruptISN(0, 30, 0.5) // scrub detects at 50, repair lands at 90

	if got := c.rankShard(0, 89); len(got) != 1 {
		t.Fatalf("rankShard mid-repair = %v, want quarantined copy excluded", got)
	}
	if got := c.rankShard(0, 90); len(got) != 2 {
		t.Fatalf("rankShard after repair = %v, want both replicas back", got)
	}
	st := c.IntegrityStats()
	if st.Repairs != 1 {
		t.Fatalf("repairs = %d, want 1", st.Repairs)
	}
	if st.MeanMTTRMS != 40 {
		t.Fatalf("MTTR %v, want RepairMS=40", st.MeanMTTRMS)
	}
	// The repaired copy serves again.
	ex := c.ExecuteShard(0, 100, 1e6, 1.8, math.Inf(1))
	if ex.Status == LegCorrupt || ex.Status == LegFailed {
		t.Fatalf("repaired shard cannot serve: %+v", ex)
	}
	if c.QuarantinedCount() != 0 {
		t.Fatal("quarantine count nonzero after repair")
	}
}

// TestSoleReplicaRankingSyncsIntegrity: a group of one skips the sort,
// not the integrity sync, so routing alone still sees the scrubber's
// detection and the repair's readmission.
func TestSoleReplicaRankingSyncsIntegrity(t *testing.T) {
	c := integrityCluster(t, 1, 1, 100, 40)
	c.CorruptISN(0, 30, 0.5) // scrub detects at 50, repair lands at 90
	for _, step := range []struct {
		tMS  float64
		want int
	}{{49, 0}, {60, -1}, {89, -1}, {90, 0}} {
		if got := c.SelectReplica(0, step.tMS); got != step.want {
			t.Fatalf("SelectReplica at %v ms = %d, want %d", step.tMS, got, step.want)
		}
	}
	if st := c.IntegrityStats(); st.ScrubDetections != 1 || st.Repairs != 1 {
		t.Fatalf("stats: %+v, want one scrub detection and one repair", st)
	}
}

func TestWholeGroupQuarantinedBouncesTyped(t *testing.T) {
	c := integrityCluster(t, 1, 2, 0, 0)
	c.CorruptISN(0, 0, 0.2)
	c.CorruptISN(1, 0, 0.8)
	ex := c.ExecuteShard(0, 10, 1e6, 1.8, math.Inf(1))
	if ex.Status != LegCorrupt {
		t.Fatalf("whole-group corruption must surface typed, got %+v", ex)
	}
	if ex.ServiceMS != 0 {
		t.Fatal("a bounced request must do no index work")
	}
	if st := c.IntegrityStats(); st.CorruptRejects != 2 {
		t.Fatalf("corrupt rejects = %d, want 2 (both replicas bounced)", st.CorruptRejects)
	}
	// With the whole group now quarantined, later queries take the
	// empty-rank path — still a typed bounce, never a silent failure:
	// the group is alive and mid-repair, not dead.
	ex = c.ExecuteShard(0, 20, 1e6, 1.8, math.Inf(1))
	if ex.Status != LegCorrupt {
		t.Fatalf("fully quarantined group must bounce typed, got %+v", ex)
	}
	if st := c.IntegrityStats(); st.CorruptRejects != 3 {
		t.Fatalf("corrupt rejects = %d, want 3", st.CorruptRejects)
	}
}

func TestCorruptISNEdgeCases(t *testing.T) {
	c := integrityCluster(t, 1, 2, 0, 0)
	// Earliest rot wins; later events on the same node are no-ops.
	c.CorruptISN(0, 50, 0.5)
	c.CorruptISN(0, 20, 0.3)
	c.CorruptISN(0, 80, 0.9)
	if c.ISNs[0].corruptAtMS != 20 || c.ISNs[0].corruptFrac != 0.3 {
		t.Fatalf("pending rot = (%v, %v), want earliest (20, 0.3)",
			c.ISNs[0].corruptAtMS, c.ISNs[0].corruptFrac)
	}
	if c.IntegrityStats().Corruptions != 2 {
		t.Fatalf("corruptions = %d, want 2 (the later duplicate is a no-op)",
			c.IntegrityStats().Corruptions)
	}
	// New rot on a quarantined node is ignored: its bytes are about to
	// be replaced wholesale.
	c.quarantineNode(0, 30, false)
	c.CorruptISN(0, 40, 0.1)
	if c.IntegrityStats().Corruptions != 2 {
		t.Fatal("rot on a quarantined node must not count")
	}
}

func TestResetAndClearFaultsClearIntegrity(t *testing.T) {
	c := integrityCluster(t, 1, 2, 100, 40)
	c.CorruptISN(0, 0, 0.5)
	c.syncIntegrity(0, 60)
	if !c.NodeQuarantined(0) {
		t.Fatal("setup: node not quarantined")
	}

	c.ClearFaults()
	if c.NodeQuarantined(0) || !math.IsInf(c.ISNs[0].corruptAtMS, 1) {
		t.Fatal("ClearFaults left integrity fault state")
	}
	if c.IntegrityStats().Quarantines != 1 {
		t.Fatal("ClearFaults must keep the statistics ledger")
	}

	c.CorruptISN(1, 0, 0.5)
	c.Reset()
	if c.NodeQuarantined(1) || !math.IsInf(c.ISNs[1].corruptAtMS, 1) {
		t.Fatal("Reset left integrity fault state")
	}
	if st := c.IntegrityStats(); st != (IntegrityStats{}) {
		t.Fatalf("Reset left ledger %+v", st)
	}
}

func TestScheduledRotReplaysAcrossReset(t *testing.T) {
	c := integrityCluster(t, 1, 2, 100, 20)
	c.Rot = []faults.CorruptionEvent{
		{TimeMS: 30, Node: 0, OffsetFrac: 0.5},  // detect 50, repaired 70
		{TimeMS: 60, Node: 0, OffsetFrac: 0.2},  // lands mid-quarantine: moot
		{TimeMS: 130, Node: 0, OffsetFrac: 0.1}, // second rot after repair
	}
	run := func() IntegrityStats {
		c.Reset()
		c.syncIntegrity(0, 500)
		return c.IntegrityStats()
	}
	st := run()
	// Event 1 lands, is scrub-detected and repaired; event 2 is swallowed
	// by that repair; event 3 lands on the clean copy and goes through the
	// cycle again.
	if st.Corruptions != 2 || st.ScrubDetections != 2 || st.Repairs != 2 {
		t.Fatalf("schedule replay: %+v", st)
	}
	if again := run(); again != st {
		t.Fatalf("schedule not Reset-stable: %+v vs %+v", again, st)
	}
	c.ClearFaults()
	if c.Rot != nil || len(c.ISNs[0].rotQueue) != 0 {
		t.Fatal("ClearFaults left the rot schedule installed")
	}
}

func TestHedgingSkipsQuarantinedSibling(t *testing.T) {
	c := integrityCluster(t, 1, 2, 0, 0)
	c.CorruptISN(1, 0, 0.5) // the would-be hedge target is rotted
	// Force a hedge: primary (node 0) gets a slow leg via backlog.
	c.Execute(0, 0, 50e6, 1.8, math.Inf(1))
	ex, hr := c.ExecuteShardHedged(0, 1, 1e6, 1.8, math.Inf(1), 0)
	if ex.Status == LegCorrupt || ex.Status == LegFailed {
		t.Fatalf("primary leg lost: %+v", ex)
	}
	if hr.Hedged {
		t.Fatal("hedged to a quarantined replica")
	}
}
