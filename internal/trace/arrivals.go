package trace

import (
	"fmt"
	"math"

	"cottage/internal/xrand"
)

// Profile selects the arrival process's rate shape over time. The
// stationary profile is the original homogeneous Poisson trace; the
// others modulate the instantaneous rate λ(t) to reproduce the traffic
// regimes a fixed-capacity fleet cannot serve efficiently — diurnal
// swings and flash crowds — which is what the autoscaling experiments
// stress.
type Profile int

const (
	// Stationary is a homogeneous Poisson process at Config.QPS — the
	// original trace, bit-identical to traces generated before profiles
	// existed.
	Stationary Profile = iota
	// Diurnal modulates the rate sinusoidally around Config.QPS:
	// λ(t) = QPS · (1 + DiurnalAmp·sin(2πt/DiurnalPeriodMS)). One period
	// is a compressed "day"; the peak-to-trough ratio is
	// (1+amp)/(1−amp).
	Diurnal
	// Flash keeps the base rate at Config.QPS but overlays deterministic
	// flash-crowd bursts: every FlashEveryMS, the rate multiplies by
	// FlashFactor for FlashDurationMS — the breaking-news spike that
	// arrives faster than any human can re-provision a fleet.
	Flash
)

// String names the profile.
func (p Profile) String() string {
	switch p {
	case Stationary:
		return "stationary"
	case Diurnal:
		return "diurnal"
	case Flash:
		return "flash"
	default:
		return "unknown"
	}
}

// ArrivalConfig parameterizes the non-stationary profiles. The zero
// value of every field selects a sensible default (DefaultArrivals
// documents them), so Config literals that predate profiles keep
// working unchanged.
type ArrivalConfig struct {
	Profile Profile

	// Diurnal.
	DiurnalPeriodMS float64 // one "day" (default 60 000 ms)
	DiurnalAmp      float64 // rate swing as a fraction of QPS, in [0,1) (default 0.6)

	// Flash.
	FlashEveryMS    float64 // burst cadence (default 30 000 ms)
	FlashDurationMS float64 // burst length (default 4 000 ms)
	FlashFactor     float64 // rate multiplier during a burst (default 4)
}

// withDefaults fills zero fields with the documented defaults.
func (a ArrivalConfig) withDefaults() ArrivalConfig {
	if a.DiurnalPeriodMS <= 0 {
		a.DiurnalPeriodMS = 60_000
	}
	if a.DiurnalAmp <= 0 {
		a.DiurnalAmp = 0.6
	}
	if a.FlashEveryMS <= 0 {
		a.FlashEveryMS = 30_000
	}
	if a.FlashDurationMS <= 0 {
		a.FlashDurationMS = 4_000
	}
	if a.FlashFactor <= 0 {
		a.FlashFactor = 4
	}
	return a
}

// validate rejects parameterizations the thinning sampler cannot handle.
func (a ArrivalConfig) validate() error {
	if a.Profile == Diurnal && a.DiurnalAmp >= 1 {
		return fmt.Errorf("trace: diurnal amplitude %v must be < 1 (the rate must stay positive)", a.DiurnalAmp)
	}
	return nil
}

// RateAtMS returns the instantaneous arrival rate λ(t) in queries per
// second for a profile around baseQPS. Exported so tests and the
// capacity planner's oracle can evaluate the ground-truth rate the
// trace was generated from.
func (a ArrivalConfig) RateAtMS(baseQPS, tMS float64) float64 {
	a = a.withDefaults()
	switch a.Profile {
	case Diurnal:
		return baseQPS * (1 + a.DiurnalAmp*math.Sin(2*math.Pi*tMS/a.DiurnalPeriodMS))
	case Flash:
		if math.Mod(tMS, a.FlashEveryMS) < a.FlashDurationMS && tMS >= a.FlashEveryMS {
			// The first burst fires one cadence in, so every trace opens
			// with a stretch of base load the controller can calibrate on.
			return baseQPS * a.FlashFactor
		}
		return baseQPS
	default:
		return baseQPS
	}
}

// maxRate bounds λ(t) from above — the thinning envelope.
func (a ArrivalConfig) maxRate(baseQPS float64) float64 {
	a = a.withDefaults()
	switch a.Profile {
	case Diurnal:
		return baseQPS * (1 + a.DiurnalAmp)
	case Flash:
		// A FlashFactor below 1 is a dip, not a burst: the off-burst
		// base rate is then the maximum.
		return baseQPS * math.Max(1, a.FlashFactor)
	default:
		return baseQPS
	}
}

// nextArrival advances a non-homogeneous Poisson process from nowMS via
// Lewis–Shedler thinning: candidate arrivals are drawn from a
// homogeneous process at the envelope rate and accepted with
// probability λ(t)/λmax. Exactness does not depend on the envelope
// being tight, only on it dominating λ(t); determinism comes from the
// seeded RNG consuming a data-dependent but seed-stable number of
// draws.
func (a ArrivalConfig) nextArrival(rng *xrand.RNG, baseQPS, nowMS float64) float64 {
	lambdaMax := a.maxRate(baseQPS)
	meanGapMS := 1000 / lambdaMax
	for {
		nowMS += rng.ExpFloat64() * meanGapMS
		rate := a.RateAtMS(baseQPS, nowMS)
		if rng.Float64()*lambdaMax <= rate {
			return nowMS
		}
	}
}
