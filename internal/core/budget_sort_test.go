package core

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"cottage/internal/cluster"
	"cottage/internal/xrand"
)

// reflectBudget is DetermineBudget as it was written with the
// reflection-based sort.Slice and sort.SliceStable, kept as the oracle
// for the generic sorts that replaced them.
func reflectBudget(reports []ISNReport, ladder cluster.Ladder, opts BudgetOptions) BudgetResult {
	var res BudgetResult
	cands := make([]ISNReport, 0, len(reports))
	for _, r := range reports {
		if !r.HasK {
			res.Cut = append(res.Cut, r.ISN)
			continue
		}
		cands = append(cands, r)
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].ExpQK > cands[j].ExpQK })
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].LBoosted > cands[j].LBoosted })
	if len(cands) == 0 {
		res.BudgetMS = math.Inf(1)
		res.BudgetISN = -1
		return res
	}
	T := cands[0].LBoosted
	res.BudgetISN = cands[0].ISN
	if !opts.StrictTopK {
		for _, c := range cands {
			if c.HasK2 {
				T = c.LBoosted
				res.BudgetISN = c.ISN
				break
			}
		}
	}
	res.BudgetMS = T
	const eps = 1e-9
	for _, c := range cands {
		if c.LBoosted > T+eps {
			res.Cut = append(res.Cut, c.ISN)
			continue
		}
		queue := c.LCurrent - cluster.ServiceMS(c.PredCycles, ladder.Default())
		if queue < 0 {
			queue = 0
		}
		need := ladder.Max()
		for _, f := range ladder.Levels {
			if !opts.Downclock && f < ladder.Default() {
				continue
			}
			if queue+cluster.ServiceMS(c.PredCycles, f) <= T+eps {
				need = f
				break
			}
		}
		res.Selected = append(res.Selected, Assignment{
			ISN:         c.ISN,
			Freq:        need,
			Boosted:     need > ladder.Default(),
			Downclocked: need < ladder.Default(),
		})
	}
	sort.Slice(res.Selected, func(i, j int) bool { return res.Selected[i].ISN < res.Selected[j].ISN })
	sort.Ints(res.Cut)
	return res
}

// tiedReports draws up to 64 reports whose ExpQK and LBoosted come from
// a few values each (NaN among them), so both sorts meet long runs of
// ties and the order among tied candidates decides which ISN sets the
// budget.
func tiedReports(rng *xrand.RNG, ladder cluster.Ladder) []ISNReport {
	n := rng.Intn(65)
	exp := []float64{0, 0.5, 1, 1, 2, math.NaN()}
	lat := []float64{3, 5, 5, 8, 13, math.NaN()}
	reports := make([]ISNReport, n)
	for i := range reports {
		cycles := lat[rng.Intn(len(lat)-1)] * ladder.Max() * 1e6
		queue := float64(rng.Intn(3))
		reports[i] = ISNReport{
			ISN:        i,
			HasK:       rng.Float64() < 0.8,
			HasK2:      rng.Float64() < 0.3,
			ExpQK:      exp[rng.Intn(len(exp))],
			LCurrent:   queue + cluster.ServiceMS(cycles, ladder.Default()),
			LBoosted:   queue + cluster.ServiceMS(cycles, ladder.Max()),
			PredCycles: cycles,
		}
		if rng.Intn(40) == 0 {
			reports[i].LBoosted = lat[len(lat)-1]
		}
	}
	xrand.Shuffle(rng, reports)
	return reports
}

// TestDetermineBudgetMatchesReflectSorts: slices.SortFunc and
// slices.SortStableFunc come from the same pdqsort and insertion-merge
// templates as sort.Slice and sort.SliceStable, so with comparators
// that are negative exactly when the old less is true they permute
// every input the same way — ties and NaN included. Algorithm 1's
// budget ISN depends on that order.
func TestDetermineBudgetMatchesReflectSorts(t *testing.T) {
	ladder := cluster.DefaultLadder()
	rng := xrand.New(35)
	for trial := 0; trial < 3000; trial++ {
		reports := tiedReports(rng, ladder)
		opts := BudgetOptions{StrictTopK: rng.Intn(4) == 0, Downclock: rng.Intn(2) == 0}
		want := reflectBudget(reports, ladder, opts)
		got := DetermineBudget(reports, ladder, opts)
		if got.BudgetISN != want.BudgetISN || math.Float64bits(got.BudgetMS) != math.Float64bits(want.BudgetMS) ||
			len(got.Cut)+len(want.Cut) > 0 && !reflect.DeepEqual(got.Cut, want.Cut) ||
			len(got.Selected)+len(want.Selected) > 0 && !reflect.DeepEqual(got.Selected, want.Selected) {
			t.Fatalf("trial %d (%d reports): got %+v, want %+v", trial, len(reports), got, want)
		}
	}
}
