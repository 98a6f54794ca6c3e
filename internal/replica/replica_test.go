package replica

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"cottage/internal/overload"
	"cottage/internal/xrand"
)

func TestTopologyLayout(t *testing.T) {
	tp := Topology{Shards: 4, R: 3}
	if tp.Nodes() != 12 {
		t.Fatalf("Nodes() = %d", tp.Nodes())
	}
	// Row-major: replica row 0 is nodes 0..3, row 1 is 4..7, row 2 8..11.
	for s := 0; s < tp.Shards; s++ {
		for r := 0; r < tp.R; r++ {
			n := tp.Node(s, r)
			if tp.ShardOf(n) != s || tp.ReplicaOf(n) != r {
				t.Fatalf("node %d: shard %d replica %d, want %d/%d",
					n, tp.ShardOf(n), tp.ReplicaOf(n), s, r)
			}
		}
	}
	if got := tp.Group(2); !reflect.DeepEqual(got, []int{2, 6, 10}) {
		t.Fatalf("Group(2) = %v", got)
	}
	if g := tp.Groups(); len(g) != 4 || !reflect.DeepEqual(g[0], []int{0, 4, 8}) {
		t.Fatalf("Groups() = %v", g)
	}
}

func TestParseGroups(t *testing.T) {
	got, err := ParseGroups("a:1, b:1 ; c:1,d:1")
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"a:1", "b:1"}, {"c:1", "d:1"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseGroups = %v", got)
	}
	// Flat list without ';': one singleton group per address.
	got, err = ParseGroups("x,y,z")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[1][0] != "y" {
		t.Fatalf("flat ParseGroups = %v", got)
	}
	for _, bad := range []string{"", "a,,b", "a;;b", " ; "} {
		if _, err := ParseGroups(bad); err == nil {
			t.Fatalf("ParseGroups(%q) accepted", bad)
		}
	}
}

func TestGroupFlat(t *testing.T) {
	got, err := GroupFlat([]string{"s0", "s1", "s0'", "s1'"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"s0", "s0'"}, {"s1", "s1'"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("GroupFlat = %v", got)
	}
	if _, err := GroupFlat([]string{"a", "b", "c"}, 2); err == nil {
		t.Fatal("uneven GroupFlat accepted")
	}
	if _, err := GroupFlat(nil, 2); err == nil {
		t.Fatal("empty GroupFlat accepted")
	}
}

func TestRankOrdering(t *testing.T) {
	cands := []Candidate{
		{ID: 0, Breaker: overload.Open, Healthy: true},
		{ID: 1, Breaker: overload.Closed, Healthy: true, ServiceMS: 20},
		{ID: 2, Breaker: overload.Closed, Healthy: true, ServiceMS: 5},
		{ID: 3, Breaker: overload.Closed, Healthy: false, ServiceMS: 1},
		{ID: 4, Breaker: overload.HalfOpen, Healthy: true},
		{ID: 5, Failed: true, Breaker: overload.Closed, Healthy: true},
	}
	got := RankInto(nil, cands)
	// Closed+healthy by service time (2 then 1), then closed+broken (3),
	// then half-open (4), then open (0); failed (5) excluded.
	want := []int{2, 1, 3, 4, 0}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("RankInto = %v, want %v", got, want)
	}
}

func TestRankNeverSelectsFailedOrPanics(t *testing.T) {
	if got := RankInto(nil, nil); len(got) != 0 {
		t.Fatalf("RankInto(nil, nil) = %v", got)
	}
	if got := RankInto(nil, []Candidate{{ID: 7, Failed: true}}); len(got) != 0 {
		t.Fatalf("all-failed group selected %v", got)
	}
	// Hostile observations (NaN, negatives, out-of-range breaker states)
	// must neither panic nor surface a failed replica.
	cands := []Candidate{
		{ID: 1, Breaker: overload.State(99), ServiceMS: math.NaN(), AccErrPct: -3},
		{ID: 2, Failed: true, ServiceMS: -1},
		{ID: 3, Breaker: overload.State(-5), Healthy: true, AccErrPct: math.NaN()},
	}
	for _, id := range RankInto(nil, cands) {
		if id == 2 {
			t.Fatal("failed replica selected")
		}
	}
}

func TestRankAccuracyTiebreak(t *testing.T) {
	cands := []Candidate{
		{ID: 0, Breaker: overload.Closed, Healthy: true, ServiceMS: 10, AccErrPct: 30},
		{ID: 1, Breaker: overload.Closed, Healthy: true, ServiceMS: 10, AccErrPct: 10},
	}
	if got := RankInto(nil, cands); got[0] != 1 {
		t.Fatalf("accuracy tiebreak picked %v", got)
	}
}

// stableRank is the ranking as it was written with sort.SliceStable over a
// filtered copy, kept as the oracle for the in-place insertion sort.
func stableRank(cands []Candidate) []int {
	live := make([]Candidate, 0, len(cands))
	for _, c := range cands {
		if c.Failed || c.Quarantined {
			continue
		}
		live = append(live, c)
	}
	sort.SliceStable(live, func(i, j int) bool {
		a, b := live[i], live[j]
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
	})
	out := make([]int, len(live))
	for i, c := range live {
		out[i] = c.ID
	}
	return out
}

// TestRankIntoMatchesStableSort compares RankInto with the stable-sort
// oracle on groups of 0-8 replicas whose signals come from a few values
// each — NaN, negative and +Inf among them — under every breaker state,
// with failed and quarantined members and tied (sometimes repeated)
// IDs. It also reuses one destination throughout, as the cluster does.
func TestRankIntoMatchesStableSort(t *testing.T) {
	rng := xrand.New(35)
	signal := []float64{0, 0, 1, 2.5, 2.5, -1, math.NaN(), math.Inf(1)}
	var dst []int
	for trial := 0; trial < 20000; trial++ {
		n := trial % 9
		cands := make([]Candidate, n)
		for i := range cands {
			cands[i] = Candidate{
				ID:          rng.Intn(n + 2),
				Failed:      rng.Intn(5) == 0,
				Quarantined: rng.Intn(6) == 0,
				Breaker:     overload.State(rng.Intn(5) - 1),
				Healthy:     rng.Intn(3) > 0,
				ServiceMS:   signal[rng.Intn(len(signal))],
				AccErrPct:   signal[rng.Intn(len(signal))],
			}
		}
		want := stableRank(cands)
		dst = RankInto(dst, cands)
		if len(dst)+len(want) > 0 && !reflect.DeepEqual(dst, want) {
			t.Fatalf("trial %d: RankInto = %v, stable sort = %v", trial, dst, want)
		}
	}
}

func TestRankIntoAllocatesNothing(t *testing.T) {
	cands := make([]Candidate, 8)
	dst := make([]int, 0, len(cands))
	allocs := testing.AllocsPerRun(100, func() {
		for i := range cands {
			cands[i] = Candidate{ID: i, ServiceMS: float64(8 - i), Healthy: i%3 > 0}
		}
		dst = RankInto(dst, cands)
	})
	if allocs != 0 || len(dst) != len(cands) {
		t.Fatalf("RankInto made %v allocations, ranked %v", allocs, dst)
	}
}

func TestTracker(t *testing.T) {
	tr := NewTracker(2)
	if tr.ServiceMS(0) != 0 {
		t.Fatal("cold tracker not zero")
	}
	tr.Observe(0, 10)
	if got := tr.ServiceMS(0); got != 10 {
		t.Fatalf("first sample EWMA = %v", got)
	}
	tr.Observe(0, 18)
	if got := tr.ServiceMS(0); got != 11 { // 10 + (18-10)/8
		t.Fatalf("EWMA = %v, want 11", got)
	}
	// Ignored inputs: out of range, non-positive, NaN.
	tr.Observe(5, 1)
	tr.Observe(-1, 1)
	tr.Observe(1, -2)
	tr.Observe(1, math.NaN())
	if tr.ServiceMS(1) != 0 || tr.ServiceMS(5) != 0 {
		t.Fatal("ignored observation leaked")
	}
	var nilT *Tracker
	nilT.Observe(0, 1) // nil-safe
	if nilT.ServiceMS(0) != 0 {
		t.Fatal("nil tracker")
	}
}
