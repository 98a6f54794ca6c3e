// Package trace generates the query workloads the paper replays against
// its testbed: a Wikipedia-like trace and a Lucene-nightly-benchmark-like
// trace (Section IV). Real trace files are not redistributable, so the two
// generators mirror the properties the evaluation depends on — Zipfian
// term popularity, a head-heavy query-length mix, topical coherence (the
// same query's terms tend to come from one topic), and Poisson arrivals —
// with deliberately different parameter mixes per trace so the two
// workloads produce distinct results, as in Figs. 10–15.
package trace

import (
	"fmt"

	"cottage/internal/qcache"
	"cottage/internal/textgen"
	"cottage/internal/xrand"
)

// Query is one search request in a trace.
type Query struct {
	ID        int
	Terms     []string
	ArrivalMS float64
}

// Kind selects a trace flavor.
type Kind int

const (
	// Wikipedia mimics the Wikipedia access trace: strongly topical
	// queries, head-heavy popularity, mostly 1-2 terms.
	Wikipedia Kind = iota
	// Lucene mimics the Lucene nightly benchmark: flatter term
	// popularity, more multi-term queries.
	Lucene
)

// String names the trace kind.
func (k Kind) String() string {
	switch k {
	case Wikipedia:
		return "wikipedia"
	case Lucene:
		return "lucene"
	default:
		return "unknown"
	}
}

// Config controls trace generation.
type Config struct {
	Kind Kind
	Seed uint64
	// NumQueries is the trace length.
	NumQueries int
	// QPS is the mean arrival rate (Poisson process). Non-stationary
	// profiles (Arrivals.Profile) treat it as the base rate their shapes
	// modulate.
	QPS float64
	// Arrivals shapes the arrival process over time. The zero value is
	// the stationary Poisson process traces always had, so existing
	// Config literals generate bit-identical traces.
	Arrivals ArrivalConfig
}

// DefaultConfig returns the workload used by the harness: 10K queries at
// 45 QPS. The paper replays its traces for 1000 seconds; we keep the
// query count and raise the arrival rate so the 16-ISN cluster sees
// utilization in the regime the paper's power measurements imply
// (~36 W ≈ 20% busy at 1.8 GHz under our power model).
func DefaultConfig(kind Kind, seed uint64) Config {
	return Config{Kind: kind, Seed: seed, NumQueries: 10000, QPS: 45}
}

// profile captures the per-kind generation parameters.
type profile struct {
	lengthCDF   []float64 // P(len <= i+1)
	topicZipfS  float64   // popularity skew across topics
	withinZipfS float64   // popularity skew within a topic's term list
	offTopicP   float64   // chance a term is drawn from the background
}

func profileFor(kind Kind) profile {
	switch kind {
	case Wikipedia:
		return profile{
			lengthCDF:   []float64{0.45, 0.80, 0.95, 1.0},
			topicZipfS:  1.0,
			withinZipfS: 1.1,
			offTopicP:   0.10,
		}
	case Lucene:
		return profile{
			lengthCDF:   []float64{0.30, 0.60, 0.85, 1.0},
			topicZipfS:  0.6,
			withinZipfS: 0.8,
			offTopicP:   0.25,
		}
	default:
		panic(fmt.Sprintf("trace: unknown kind %d", kind))
	}
}

// Generate produces a query trace over the corpus's vocabulary and topic
// structure. It is deterministic given cfg.Seed.
func Generate(c *textgen.Corpus, cfg Config) []Query {
	if cfg.NumQueries <= 0 {
		panic("trace: NumQueries must be positive")
	}
	if cfg.QPS <= 0 {
		panic("trace: QPS must be positive")
	}
	if err := cfg.Arrivals.validate(); err != nil {
		panic(err)
	}
	p := profileFor(cfg.Kind)
	rng := xrand.New(cfg.Seed).SplitName("trace-" + cfg.Kind.String())
	topicPick := xrand.NewZipf(rng, p.topicZipfS, len(c.TopicTerms))
	withinPick := xrand.NewZipf(rng, p.withinZipfS, len(c.TopicTerms[0]))
	background := xrand.NewZipf(rng, 1.0, len(c.Vocab))

	meanGapMS := 1000 / cfg.QPS
	stationary := cfg.Arrivals.Profile == Stationary
	queries := make([]Query, cfg.NumQueries)
	now := 0.0
	for i := range queries {
		if stationary {
			// The original single-draw path — kept verbatim so stationary
			// traces are bit-identical to those generated before arrival
			// profiles existed (every committed figure depends on them).
			now += rng.ExpFloat64() * meanGapMS
		} else {
			now = cfg.Arrivals.nextArrival(rng, cfg.QPS, now)
		}
		topic := topicPick.Draw()
		n := drawLength(rng, p.lengthCDF)
		terms := make([]string, 0, n)
		seen := make(map[string]bool, n)
		for len(terms) < n {
			var term string
			if rng.Float64() < p.offTopicP {
				term = c.Vocab[background.Draw()]
			} else {
				term = c.Vocab[c.TopicTerms[topic][withinPick.Draw()]]
			}
			if !seen[term] {
				seen[term] = true
				terms = append(terms, term)
			}
		}
		queries[i] = Query{ID: i, Terms: terms, ArrivalMS: now}
	}
	return queries
}

func drawLength(rng *xrand.RNG, cdf []float64) int {
	u := rng.Float64()
	for i, c := range cdf {
		if u <= c {
			return i + 1
		}
	}
	return len(cdf)
}

// DurationMS returns the span of the trace (last arrival time).
func DurationMS(qs []Query) float64 {
	if len(qs) == 0 {
		return 0
	}
	return qs[len(qs)-1].ArrivalMS
}

// TrainTestSplit partitions a trace into a training prefix and an
// evaluation suffix. The predictors are trained on one part and evaluated
// on the other, never on their own training data.
func TrainTestSplit(qs []Query, trainFrac float64) (train, test []Query) {
	if trainFrac < 0 || trainFrac > 1 {
		panic("trace: trainFrac must be in [0,1]")
	}
	cut := int(float64(len(qs)) * trainFrac)
	return qs[:cut], qs[cut:]
}

// RepeatRate measures how much of a trace is repetition, which is what
// anything that remembers answers per query can hope to reuse: whole is
// the share of queries whose term set (qcache.Key — order-insensitive)
// already occurred earlier in qs, terms the share whose every term
// occurred in some earlier query. The first is the hit rate of an
// unbounded per-query memo over one pass of the trace, the second the
// ceiling of a per-term one.
func RepeatRate(qs []Query) (whole, terms float64) {
	if len(qs) == 0 {
		return 0, 0
	}
	seenQuery := make(map[string]bool, len(qs))
	seenTerm := make(map[string]bool)
	nWhole, nTerms := 0, 0
	for _, q := range qs {
		key := qcache.Key(q.Terms)
		if seenQuery[key] {
			nWhole++
		}
		seenQuery[key] = true
		all := true
		for _, t := range q.Terms {
			if !seenTerm[t] {
				all = false
				seenTerm[t] = true
			}
		}
		if all {
			nTerms++
		}
	}
	return float64(nWhole) / float64(len(qs)), float64(nTerms) / float64(len(qs))
}
