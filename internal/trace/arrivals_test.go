package trace

import (
	"math"
	"reflect"
	"testing"
)

// TestNonStationaryDeterministic: every profile regenerates bit-identical
// traces from the same seed, and distinct profiles produce distinct
// arrival sequences.
func TestNonStationaryDeterministic(t *testing.T) {
	c := testCorpus()
	profiles := []Profile{Stationary, Diurnal, Flash}
	firstArrivals := make(map[Profile]float64)
	for _, p := range profiles {
		cfg := Config{Kind: Wikipedia, Seed: 11, NumQueries: 400, QPS: 20,
			Arrivals: ArrivalConfig{Profile: p}}
		a := Generate(c, cfg)
		b := Generate(c, cfg)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%v trace differs across identical runs", p)
		}
		firstArrivals[p] = a[len(a)-1].ArrivalMS
	}
	if firstArrivals[Diurnal] == firstArrivals[Stationary] &&
		firstArrivals[Flash] == firstArrivals[Stationary] {
		t.Fatal("non-stationary profiles did not change the arrival process")
	}
}

// TestStationaryUnchangedByProfileField: a zero-valued ArrivalConfig is
// the pre-profile stationary trace, bit for bit — committed figures
// depend on it.
func TestStationaryUnchangedByProfileField(t *testing.T) {
	c := testCorpus()
	plain := Generate(c, Config{Kind: Lucene, Seed: 7, NumQueries: 300, QPS: 15})
	zeroed := Generate(c, Config{Kind: Lucene, Seed: 7, NumQueries: 300, QPS: 15,
		Arrivals: ArrivalConfig{Profile: Stationary}})
	if !reflect.DeepEqual(plain, zeroed) {
		t.Fatal("explicit stationary profile changed the trace")
	}
}

// TestDiurnalRateShape: the realized arrival density tracks λ(t) —
// dense near the sinusoid's peak, sparse near its trough — and the
// overall mean stays near the base QPS.
func TestDiurnalRateShape(t *testing.T) {
	c := testCorpus()
	ac := ArrivalConfig{Profile: Diurnal, DiurnalPeriodMS: 20_000, DiurnalAmp: 0.8}
	qs := Generate(c, Config{Kind: Wikipedia, Seed: 3, NumQueries: 8000, QPS: 40, Arrivals: ac})

	// Count arrivals in peak vs trough quarters of each period.
	peak, trough := 0, 0
	for _, q := range qs {
		phase := math.Mod(q.ArrivalMS, ac.DiurnalPeriodMS) / ac.DiurnalPeriodMS
		switch {
		case phase >= 0.125 && phase < 0.375: // around sin's maximum
			peak++
		case phase >= 0.625 && phase < 0.875: // around sin's minimum
			trough++
		}
	}
	if peak <= 2*trough {
		t.Errorf("diurnal peak/trough arrival ratio %d/%d; want clearly peaked", peak, trough)
	}
	gotQPS := float64(len(qs)) / (DurationMS(qs) / 1000)
	if math.Abs(gotQPS-40) > 6 {
		t.Errorf("diurnal realized rate %.1f QPS, want ~40", gotQPS)
	}
}

// TestFlashRateShape: burst windows are several times denser than the
// baseline, and the first cadence interval is burst-free (the
// controller's calibration stretch).
func TestFlashRateShape(t *testing.T) {
	c := testCorpus()
	ac := ArrivalConfig{Profile: Flash, FlashEveryMS: 10_000, FlashDurationMS: 2_000, FlashFactor: 5}
	qs := Generate(c, Config{Kind: Wikipedia, Seed: 5, NumQueries: 8000, QPS: 30, Arrivals: ac})

	inBurst, base := 0, 0
	var burstMS, baseMS float64
	horizon := DurationMS(qs)
	for _, q := range qs {
		if q.ArrivalMS < ac.FlashEveryMS {
			base++
			continue
		}
		if math.Mod(q.ArrivalMS, ac.FlashEveryMS) < ac.FlashDurationMS {
			inBurst++
		} else {
			base++
		}
	}
	periods := math.Floor(horizon / ac.FlashEveryMS) // completed cadences past the first
	burstMS = periods * ac.FlashDurationMS
	baseMS = horizon - burstMS
	burstRate := float64(inBurst) / burstMS
	baseRate := float64(base) / baseMS
	if burstRate < 3*baseRate {
		t.Errorf("flash burst rate %.3f/ms vs base %.3f/ms; want >= 3x", burstRate, baseRate)
	}
}

// TestFlashDipKeepsBaseRate: a FlashFactor below 1 models a traffic
// dip. Off-burst arrivals must still come at the base rate, and the dip
// windows at the reduced one.
func TestFlashDipKeepsBaseRate(t *testing.T) {
	c := testCorpus()
	ac := ArrivalConfig{Profile: Flash, FlashEveryMS: 10_000, FlashDurationMS: 4_000, FlashFactor: 0.5}
	qs := Generate(c, Config{Kind: Wikipedia, Seed: 9, NumQueries: 4000, QPS: 100, Arrivals: ac})

	inDip, base := 0, 0
	horizon := DurationMS(qs)
	for _, q := range qs {
		if q.ArrivalMS >= ac.FlashEveryMS && math.Mod(q.ArrivalMS, ac.FlashEveryMS) < ac.FlashDurationMS {
			inDip++
		} else {
			base++
		}
	}
	dipMS := math.Floor(horizon/ac.FlashEveryMS) * ac.FlashDurationMS
	baseRate := float64(base) / (horizon - dipMS)
	dipRate := float64(inDip) / dipMS
	if math.Abs(baseRate-0.1) > 0.01 {
		t.Errorf("off-dip rate %.4f/ms, want ~0.1 (100 QPS)", baseRate)
	}
	if math.Abs(dipRate-0.05) > 0.01 {
		t.Errorf("dip rate %.4f/ms, want ~0.05 (50 QPS)", dipRate)
	}
}

// TestRateAtMS pins the closed-form rate functions the planner's oracle
// uses.
func TestRateAtMS(t *testing.T) {
	d := ArrivalConfig{Profile: Diurnal, DiurnalPeriodMS: 1000, DiurnalAmp: 0.5}
	if got := d.RateAtMS(10, 250); math.Abs(got-15) > 1e-9 {
		t.Errorf("diurnal peak rate %v, want 15", got)
	}
	if got := d.RateAtMS(10, 750); math.Abs(got-5) > 1e-9 {
		t.Errorf("diurnal trough rate %v, want 5", got)
	}
	f := ArrivalConfig{Profile: Flash, FlashEveryMS: 1000, FlashDurationMS: 100, FlashFactor: 3}
	if got := f.RateAtMS(10, 1050); got != 30 {
		t.Errorf("flash burst rate %v, want 30", got)
	}
	if got := f.RateAtMS(10, 500); got != 10 {
		t.Errorf("flash base rate %v, want 10", got)
	}
	if got := f.RateAtMS(10, 50); got != 10 {
		t.Errorf("flash first-cadence rate %v, want 10 (no burst before one cadence)", got)
	}
}

// TestDiurnalAmpValidation: an amplitude >= 1 would drive the rate to
// zero or negative; Generate must refuse it.
func TestDiurnalAmpValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Generate accepted diurnal amplitude 1.0")
		}
	}()
	Generate(testCorpus(), Config{Kind: Wikipedia, Seed: 1, NumQueries: 10, QPS: 10,
		Arrivals: ArrivalConfig{Profile: Diurnal, DiurnalAmp: 1.0}})
}
