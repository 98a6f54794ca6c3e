package integrity

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cottage/internal/index"
	"cottage/internal/obs"
	"cottage/internal/xrand"
)

// buildShard makes a small multi-term, multi-block sealed shard.
func buildShard(t testing.TB, id int) *index.Shard {
	t.Helper()
	b := index.NewBuilder(id, index.DefaultBM25(), 10)
	rng := xrand.New(uint64(41 + id))
	vocab := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	zipf := xrand.NewZipf(rng, 1.0, len(vocab))
	for d := 0; d < 300; d++ {
		terms := make(map[string]int)
		n := 15 + rng.Intn(40)
		for i := 0; i < n; i++ {
			terms[vocab[zipf.Draw()]]++
		}
		b.Add(int64(5000+d), terms, n)
	}
	s := b.Finalize()
	if err := s.Validate(); err != nil {
		t.Fatalf("shard invalid: %v", err)
	}
	return s
}

// corruptOneBlock flips a posting in the first multi-block term and
// returns (term text, block index).
func corruptOneBlock(t testing.TB, s *index.Shard) (string, int) {
	t.Helper()
	for i := range s.Terms {
		ti := &s.Terms[i]
		if len(ti.Blocks) > 1 && len(ti.BlockData(1)) > 0 {
			ti.BlockData(1)[0] ^= 1
			s.ResetVerification()
			return ti.Text, 1
		}
	}
	t.Fatal("no multi-block term")
	return "", 0
}

// managerState is the state of the replica a manager guards; a copy
// that was never quarantined is Healthy.
func managerState(m *Manager) State {
	if r := m.Snapshot().Replicas; len(r) > 0 {
		return r[0].State
	}
	return Healthy
}

// failingFetch is a repair source that is down.
func failingFetch() (*index.Shard, error) { return nil, errors.New("peer down") }

func TestManagerStateMachine(t *testing.T) {
	s := buildShard(t, 3)
	m := NewManager(Config{ShardID: 3, Replica: 1}, s)
	if managerState(m) != Healthy || m.Shard() == nil {
		t.Fatal("fresh replica not healthy")
	}
	m.Quarantine(100, "query", errors.New("block 1"))
	if managerState(m) != Quarantined || m.Shard() != nil {
		t.Fatalf("state = %v, want quarantined", managerState(m))
	}
	// Quarantine is idempotent: a second detection logs a mismatch but
	// neither re-quarantines nor moves the MTTR start.
	m.Quarantine(150, "scrub", errors.New("again"))
	if snap := m.Snapshot(); snap.Mismatches != 2 || snap.Quarantines != 1 ||
		snap.Replicas[0].QuarantinedAtMS != 100 {
		t.Fatalf("double quarantine: %+v", snap)
	}
	// A repair that fails returns to quarantined; the replica serves
	// nothing while the transfer runs.
	err := m.Repair(200, func() (*index.Shard, error) {
		if got := managerState(m); got != Repairing {
			t.Errorf("state during repair = %v, want repairing", got)
		}
		if m.Shard() != nil {
			t.Error("repairing replica must still be out of service")
		}
		return failingFetch()
	})
	if err == nil || managerState(m) != Quarantined {
		t.Fatalf("state after failed repair = %v (err %v)", managerState(m), err)
	}
	// MTTR keeps counting from the first detection.
	if err := m.Repair(600, func() (*index.Shard, error) { return buildShard(t, 3), nil }); err != nil {
		t.Fatalf("repair: %v", err)
	}
	snap := m.Snapshot()
	if managerState(m) != Healthy || m.Shard() == nil {
		t.Fatalf("state after readmit = %v", managerState(m))
	}
	if snap.Mismatches != 2 || snap.Quarantines != 1 || snap.Repairs != 1 {
		t.Fatalf("totals = %+v", snap)
	}
	if snap.MeanMTTRMS != 500 { // quarantined at 100, readmitted at 600
		t.Fatalf("MTTR = %d, want 500", snap.MeanMTTRMS)
	}
	if len(snap.Replicas) != 1 || snap.Replicas[0].Repairs != 1 || snap.Replicas[0].MeanMTTRMS != 500 ||
		snap.Replicas[0].Shard != 3 || snap.Replicas[0].Replica != 1 {
		t.Fatalf("replica status = %+v", snap.Replicas)
	}
	var sources []string
	for _, ev := range snap.Events {
		sources = append(sources, ev.Source)
	}
	want := "query quarantine scrub repair-start repair-failed repair-start repair-done"
	if got := strings.Join(sources, " "); got != want {
		t.Fatalf("events %q, want %q", got, want)
	}
	// Transition guards: a healthy replica does not start a repair.
	if err := m.Repair(700, failingFetch); err != nil {
		t.Fatalf("repair of a healthy replica: %v", err)
	}
	if got := m.Snapshot(); got.Repairs != 1 || len(got.Events) != len(snap.Events) || managerState(m) != Healthy {
		t.Fatalf("guards leaked transitions: %+v", got)
	}
	// A second outage measures its own MTTR from its own detection.
	m.Quarantine(1000, "query", errors.New("block 2"))
	if err := m.Repair(1100, func() (*index.Shard, error) { return buildShard(t, 3), nil }); err != nil {
		t.Fatal(err)
	}
	if snap := m.Snapshot(); snap.Repairs != 2 || snap.MeanMTTRMS != 300 { // (500+100)/2
		t.Fatalf("second outage: %+v", snap)
	}
}

func TestManagerEventRingWraps(t *testing.T) {
	m := NewManager(Config{}, buildShard(t, 0))
	// The first detection logs a mismatch and the quarantine; each later
	// one logs its mismatch alone.
	const total = maxEvents + 3
	for i := 0; i < total; i++ {
		m.Quarantine(int64(i), "scrub", fmt.Errorf("e%d", i))
	}
	snap := m.Snapshot()
	if len(snap.Events) != maxEvents {
		t.Fatalf("ring holds %d events, want %d", len(snap.Events), maxEvents)
	}
	for i, ev := range snap.Events {
		if want := fmt.Sprintf("e%d", i+3); ev.Detail != want {
			t.Fatalf("event %d = %q, want %q (oldest-first)", i, ev.Detail, want)
		}
	}
	if snap.Mismatches != total {
		t.Fatalf("mismatch total %d survived the ring, want %d", snap.Mismatches, total)
	}
}

func TestScrubberPacing(t *testing.T) {
	s := buildShard(t, 1)
	sc := &Scrubber{BytesPerSec: 1000}
	// First step anchors the clock — nothing scrubbed.
	if res := sc.Step(s, 0); res.Scrubbed != 0 || res.Err != nil {
		t.Fatalf("anchor step scrubbed %d", res.Scrubbed)
	}
	// 1 second at 1000 B/s = 1000 bytes ≈ one 64-posting block (512 B)
	// plus change; strictly fewer blocks than the whole shard.
	res := sc.Step(s, 1000)
	if res.Scrubbed == 0 || res.Scrubbed >= s.TotalBlocks() {
		t.Fatalf("paced step scrubbed %d of %d blocks", res.Scrubbed, s.TotalBlocks())
	}
	// Enough elapsed time covers the full shard and wraps the epoch. On
	// a clean shard the cursor starts at block 0 and never stops early,
	// so completed passes are the blocks scrubbed over the shard's total.
	scrubbed := res.Scrubbed
	total := int64(s.PostingBytes())
	scrubbed += sc.Step(s, 1000+total).Scrubbed // one full shard's worth of budget
	scrubbed += sc.Step(s, 2000+2*total).Scrubbed
	if scrubbed < s.TotalBlocks() {
		t.Fatalf("no epoch completed after %d bytes of budget (%d of %d blocks)", 2*total, scrubbed, s.TotalBlocks())
	}
	// Budget carry is capped: a huge idle gap can't scrub more than one
	// pass worth in a single step.
	res = sc.Step(s, 100_000_000)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Scrubbed > 2*s.TotalBlocks() {
		t.Fatalf("idle gap scrubbed %d blocks of %d in one step", res.Scrubbed, s.TotalBlocks())
	}
}

func TestScrubberFindsRotAcrossEpochs(t *testing.T) {
	s := buildShard(t, 2)
	sc := &Scrubber{BytesPerSec: 64_000}
	sc.Step(s, 0)
	// Clean first pass.
	if res := sc.Step(s, sc.EpochMS(s)+1000); res.Err != nil {
		t.Fatalf("clean shard scrubbed dirty: %v", res.Err)
	}
	// Rot lands after the first pass; the next epoch must find it even
	// though every block was previously verified.
	term, block := corruptOneBlock(t, s)
	var found error
	now := sc.EpochMS(s) + 1000
	for i := 0; i < 100 && found == nil; i++ {
		now += 500
		if res := sc.Step(s, now); res.Err != nil {
			found = res.Err
		}
	}
	var ce *index.CorruptionError
	if !errors.As(found, &ce) {
		t.Fatalf("scrub missed post-verification rot: %v", found)
	}
	if ce.Term != term || ce.Block != block {
		t.Fatalf("mislocalized: %+v, want term %q block %d", ce, term, block)
	}
}

func TestScrubberDisabledAndNil(t *testing.T) {
	s := buildShard(t, 3)
	sc := &Scrubber{BytesPerSec: 0}
	if res := sc.Step(s, 1000); res.Scrubbed != 0 {
		t.Fatal("disabled scrubber scrubbed")
	}
	if sc.EpochMS(s) != 0 || sc.EpochMS(nil) != 0 {
		t.Fatal("disabled scrubber reports an epoch")
	}
	sc = &Scrubber{BytesPerSec: 1000}
	if res := sc.Step(nil, 1000); res.Scrubbed != 0 {
		t.Fatal("nil shard scrubbed")
	}
}

func TestManagerQueryGateQuarantines(t *testing.T) {
	s := buildShard(t, 4)
	reg := obs.NewRegistry()
	met := NewMetrics(reg)
	m := NewManager(Config{ShardID: 4, Replica: 0, Metrics: met}, s)

	if m.Shard() != s || managerState(m) != Healthy {
		t.Fatal("healthy manager hides its shard")
	}
	if err := m.VerifyQuery([]string{"alpha"}, 10); err != nil {
		t.Fatalf("clean query gated: %v", err)
	}
	term, _ := corruptOneBlock(t, s)
	err := m.VerifyQuery([]string{term}, 20)
	if !index.IsCorruption(err) {
		t.Fatalf("gate missed corruption: %v", err)
	}
	if managerState(m) != Quarantined {
		t.Fatalf("state = %v, want quarantined", managerState(m))
	}
	if m.Shard() != nil {
		t.Fatal("quarantined manager still serves its shard")
	}
	// Quarantined replicas are not scrubbed.
	if n := m.ScrubStep(1000); n != 0 {
		t.Fatalf("quarantined replica scrubbed %d blocks", n)
	}
	if met.Mismatches.Value() != 1 || met.Quarantines.Value() != 1 {
		t.Fatalf("metrics: mismatches=%d quarantines=%d",
			met.Mismatches.Value(), met.Quarantines.Value())
	}
}

func TestManagerRepairReadmits(t *testing.T) {
	s := buildShard(t, 5)
	met := NewMetrics(obs.NewRegistry())
	fails := 1
	m := NewManager(Config{
		ShardID: 5, Replica: 1, ScrubBytesPerSec: 1 << 20, Metrics: met,
		Fetch: func() (*index.Shard, error) {
			if fails > 0 {
				fails--
				return nil, errors.New("peer unavailable")
			}
			return buildShard(t, 5), nil
		},
	}, s)

	// Repair on a healthy replica is a no-op.
	if err := m.Repair(0, nil); err != nil {
		t.Fatalf("healthy repair: %v", err)
	}
	term, _ := corruptOneBlock(t, s)
	if err := m.VerifyQuery([]string{term}, 100); !index.IsCorruption(err) {
		t.Fatalf("corruption missed: %v", err)
	}
	// First attempt fails (peer down) — still quarantined.
	if err := m.Repair(200, nil); err == nil {
		t.Fatal("failed fetch reported success")
	}
	if managerState(m) != Quarantined || m.Shard() != nil {
		t.Fatal("failed repair re-admitted the replica")
	}
	// Second attempt succeeds: fresh shard swaps in, state is healthy,
	// scrubbing resumes, MTTR covers detection → readmission.
	if err := m.Repair(600, nil); err != nil {
		t.Fatalf("repair: %v", err)
	}
	if managerState(m) != Healthy || m.Shard() == nil {
		t.Fatal("repair did not re-admit")
	}
	if err := m.VerifyQuery([]string{term}, 700); err != nil {
		t.Fatalf("repaired shard still gated: %v", err)
	}
	snap := m.Snapshot()
	if snap.Repairs != 1 || snap.MeanMTTRMS != 500 {
		t.Fatalf("repair accounting: %+v", snap)
	}
	if met.Repairs.Value() != 1 {
		t.Fatalf("repairs counter = %d", met.Repairs.Value())
	}
	if m.ScrubStep(1000) != 0 { // anchor
		t.Fatal("anchor step scrubbed")
	}
	if m.ScrubStep(2000) == 0 {
		t.Fatal("scrub did not resume after repair")
	}
}

func TestManagerRepairRejectsCorruptTransfer(t *testing.T) {
	s := buildShard(t, 6)
	m := NewManager(Config{ShardID: 6, Replica: 0}, s)
	term, _ := corruptOneBlock(t, s)
	if err := m.VerifyQuery([]string{term}, 10); !index.IsCorruption(err) {
		t.Fatalf("corruption missed: %v", err)
	}
	// The repair source itself hands back rotten bytes: re-validation
	// must reject them and the replica stays out of service.
	err := m.Repair(20, func() (*index.Shard, error) {
		bad := buildShard(t, 6)
		corruptOneBlock(t, bad)
		return bad, nil
	})
	if !index.IsCorruption(err) {
		t.Fatalf("corrupt transfer accepted: %v", err)
	}
	if managerState(m) != Quarantined {
		t.Fatalf("state = %v after corrupt transfer", managerState(m))
	}
	// No repair source configured at all: typed failure, still out.
	if err := m.Repair(30, nil); err == nil || !strings.Contains(err.Error(), "no repair source") {
		t.Fatalf("got %v, want no-repair-source error", err)
	}
}

func TestManagerScrubDetects(t *testing.T) {
	s := buildShard(t, 7)
	m := NewManager(Config{ShardID: 7, Replica: 0, ScrubBytesPerSec: 1 << 20}, s)
	m.ScrubStep(0) // anchor
	epoch := m.ScrubEpochMS()
	if epoch <= 0 {
		t.Fatalf("epoch = %d", epoch)
	}
	corruptOneBlock(t, s)
	now := int64(0)
	for i := 0; i < 200 && managerState(m) == Healthy; i++ {
		now += 100
		m.ScrubStep(now)
	}
	if managerState(m) != Quarantined {
		t.Fatal("scrub never found the rot")
	}
	ev := m.Snapshot().Events
	if len(ev) == 0 || ev[0].Source != "scrub" {
		t.Fatalf("detection not attributed to scrub: %+v", ev)
	}
}

func TestHandlerServesSnapshot(t *testing.T) {
	m := NewManager(Config{ShardID: 2, Replica: 1}, buildShard(t, 2))
	m.Quarantine(50, "frame", errors.New("payload crc"))
	h := Handler(m.Snapshot)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/integrity", nil))
	if rr.Code != 200 {
		t.Fatalf("status %d", rr.Code)
	}
	var snap Snapshot
	if err := json.Unmarshal(rr.Body.Bytes(), &snap); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if snap.Quarantines != 1 || len(snap.Replicas) != 1 || snap.Replicas[0].State != Quarantined {
		t.Fatalf("snapshot = %+v", snap)
	}
	if !strings.Contains(rr.Body.String(), `"quarantined"`) {
		t.Fatal("state not rendered by name")
	}
}

func TestStateStrings(t *testing.T) {
	for st, want := range map[State]string{Healthy: "healthy", Quarantined: "quarantined",
		Repairing: "repairing", State(9): "state(9)"} {
		if st.String() != want {
			t.Fatalf("%d → %q, want %q", int(st), st.String(), want)
		}
	}
}

// TestRunLoopScrubsAndRepairs drives the wall-clock wrapper end to end:
// the loop's scrub finds planted rot, quarantines, and self-repairs.
func TestRunLoopScrubsAndRepairs(t *testing.T) {
	s := buildShard(t, 8)
	corruptOneBlock(t, s)
	m := NewManager(Config{
		ShardID: 8, Replica: 0, ScrubBytesPerSec: 64 << 20,
		Fetch: func() (*index.Shard, error) { return buildShard(t, 8), nil },
	}, s)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() { defer close(done); m.RunLoop(stop, time.Millisecond) }()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		snap := m.Snapshot()
		if snap.Repairs >= 1 && managerState(m) == Healthy {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	<-done
	snap := m.Snapshot()
	if snap.Quarantines != 1 || snap.Repairs < 1 || managerState(m) != Healthy {
		t.Fatalf("loop did not heal: %+v (state %v)", snap, managerState(m))
	}
}

func TestNilMetricsSafe(t *testing.T) {
	var m *Metrics
	m.scrubbed(3)
	m.mismatch()
	m.quarantine()
	m.repair()
	if NewMetrics(nil) != nil {
		t.Fatal("NewMetrics(nil) registered counters")
	}
}

// TestManagerRepairRejectsOtherShard: a repair source that hands back a
// valid shard of another partition (a misconfigured peer, a stale
// build) must not re-admit the replica under this shard's identity.
func TestManagerRepairRejectsOtherShard(t *testing.T) {
	s := buildShard(t, 10)
	m := NewManager(Config{ShardID: 10, Replica: 0}, s)
	term, _ := corruptOneBlock(t, s)
	if err := m.VerifyQuery([]string{term}, 10); !index.IsCorruption(err) {
		t.Fatalf("corruption missed: %v", err)
	}
	err := m.Repair(20, func() (*index.Shard, error) { return buildShard(t, 11), nil })
	var wrong *WrongShardError
	if !errors.As(err, &wrong) {
		t.Fatalf("repair from another shard: got %v, want a WrongShardError", err)
	}
	if wrong.WantID != 10 || wrong.GotID != 11 {
		t.Fatalf("error = %+v, want shard 10 refused shard 11", wrong)
	}
	if managerState(m) != Quarantined || m.Shard() != nil {
		t.Fatal("a foreign shard re-admitted the replica")
	}
	// A fresh build of the same shard is byte-identical and re-admits.
	if err := m.Repair(30, func() (*index.Shard, error) { return buildShard(t, 10), nil }); err != nil {
		t.Fatalf("repair from a sibling build: %v", err)
	}
	if managerState(m) != Healthy {
		t.Fatal("sibling build did not re-admit")
	}
}
