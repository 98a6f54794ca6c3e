package features

import (
	"math"
	"testing"

	"cottage/internal/index"
)

func buildShard(t testing.TB) *index.Shard {
	t.Helper()
	b := index.NewBuilder(0, index.DefaultBM25(), 10)
	docs := []map[string]int{
		{"tokyo": 3, "city": 1},
		{"tokyo": 1, "japan": 2},
		{"toyota": 5, "car": 1},
		{"tokyo": 2, "toyota": 1},
		{"city": 4},
		{"japan": 1, "city": 2, "tokyo": 1},
	}
	for i, d := range docs {
		n := 0
		for _, tf := range d {
			n += tf
		}
		b.Add(int64(i), d, n+10)
	}
	return b.Finalize()
}

func TestQualityVector(t *testing.T) {
	s := buildShard(t)
	vec, ok := Quality(s, []string{"tokyo"})
	if !ok {
		t.Fatal("tokyo should match")
	}
	ti, _ := s.Lookup("tokyo")
	st := ti.Stats
	want := []float64{st.Q1, st.Mean, st.Median, st.GeoMean, st.HarmMean,
		st.Q3, st.KthScore, st.MaxScore, st.Variance, float64(st.PostingLen),
		float64(st.DocsEverInTopK), float64(st.DocsWithin5OfKth), float64(st.DocsWithin5OfMax),
		float64(st.NumMaxScore), st.IDF}
	for i, w := range want {
		if vec[i] != w {
			t.Errorf("%s = %v, want %v", QualityNames[i], vec[i], w)
		}
	}
}

func TestQualityMaxAggregation(t *testing.T) {
	s := buildShard(t)
	a, _ := Quality(s, []string{"tokyo"})
	b, _ := Quality(s, []string{"city"})
	both, _ := Quality(s, []string{"tokyo", "city"})
	for i := range both {
		want := a[i]
		if b[i] > want {
			want = b[i]
		}
		if both[i] != want {
			t.Errorf("%s: MAX aggregation wrong: %v, want %v", QualityNames[i], both[i], want)
		}
	}
}

func TestQualityNoMatch(t *testing.T) {
	s := buildShard(t)
	vec, ok := Quality(s, []string{"absent"})
	if ok {
		t.Fatal("absent term should not match")
	}
	for i, v := range vec {
		if v != 0 {
			t.Errorf("feature %d non-zero for absent term: %v", i, v)
		}
	}
	// Partial match: absent terms ignored.
	full, _ := Quality(s, []string{"tokyo"})
	part, ok := Quality(s, []string{"tokyo", "absent"})
	if !ok || part != full {
		t.Error("partial match should equal the matching term's vector")
	}
}

func TestLatencyVector(t *testing.T) {
	s := buildShard(t)
	vec, ok := Latency(s, []string{"toyota", "car"})
	if !ok {
		t.Fatal("should match")
	}
	if vec[5] != 2 {
		t.Errorf("query length feature = %v, want 2", vec[5])
	}
	// Posting list length must be the max of the two terms'.
	toyota, _ := s.Lookup("toyota")
	car, _ := s.Lookup("car")
	wantLen := float64(toyota.Stats.PostingLen)
	if float64(car.Stats.PostingLen) > wantLen {
		wantLen = float64(car.Stats.PostingLen)
	}
	if vec[0] != wantLen {
		t.Errorf("posting length feature = %v, want %v", vec[0], wantLen)
	}
	// IDF is the max IDF.
	wantIDF := toyota.Stats.IDF
	if car.Stats.IDF > wantIDF {
		wantIDF = car.Stats.IDF
	}
	if vec[14] != wantIDF {
		t.Errorf("idf feature = %v, want %v", vec[14], wantIDF)
	}
}

func TestLatencyQueryLengthCountsAllTerms(t *testing.T) {
	s := buildShard(t)
	// Query length counts requested terms, matched or not (the aggregator
	// does not know which terms a shard holds when it builds the query).
	vec, ok := Latency(s, []string{"tokyo", "absent", "alsoabsent"})
	if !ok {
		t.Fatal("one term matches")
	}
	if vec[5] != 3 {
		t.Errorf("query length = %v, want 3", vec[5])
	}
}

func TestLatencyNoMatch(t *testing.T) {
	s := buildShard(t)
	vec, ok := Latency(s, []string{"absent"})
	if ok {
		t.Fatal("should not match")
	}
	// Only the query-length slot may be non-zero.
	for i, v := range vec {
		if i != 5 && v != 0 {
			t.Errorf("feature %d non-zero: %v", i, v)
		}
	}
}

func TestDimsMatchNames(t *testing.T) {
	if len(QualityNames) != QualityDim || len(LatencyNames) != LatencyDim {
		t.Fatal("name tables out of sync with dims")
	}
	for _, n := range QualityNames {
		if n == "" {
			t.Fatal("empty quality feature name")
		}
	}
	for _, n := range LatencyNames {
		if n == "" {
			t.Fatal("empty latency feature name")
		}
	}
}

func BenchmarkQuality(b *testing.B) {
	s := buildShard(b)
	q := []string{"tokyo", "city"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = Quality(s, q)
	}
}

func BenchmarkLatency(b *testing.B) {
	s := buildShard(b)
	q := []string{"tokyo", "city"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = Latency(s, q)
	}
}

func TestExtractorsZeroAlloc(t *testing.T) {
	// The extractors run per query per shard on the serving hot path; the
	// fixed-size vectors they return must stay on the caller's stack.
	s := buildShard(t)
	q := []string{"tokyo", "city", "nosuchterm"}
	if allocs := testing.AllocsPerRun(100, func() { _, _ = Quality(s, q) }); allocs != 0 {
		t.Errorf("Quality allocates %v per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _ = Latency(s, q) }); allocs != 0 {
		t.Errorf("Latency allocates %v per run, want 0", allocs)
	}
	var qv [QualityDim]float64
	var lv [LatencyDim]float64
	if allocs := testing.AllocsPerRun(100, func() { _ = Extract(s, q, &qv, &lv) }); allocs != 0 {
		t.Errorf("Extract allocates %v per run, want 0", allocs)
	}
}

// refRows maps one term's statistics onto Table I's and Table II's vector
// orders (query length left 0), the per-term rows Extract takes the MAX of.
func refRows(st *index.TermStats) (q [QualityDim]float64, l [LatencyDim]float64) {
	q = [QualityDim]float64{
		st.Q1, st.Mean, st.Median, st.GeoMean, st.HarmMean, st.Q3, st.KthScore,
		st.MaxScore, st.Variance, float64(st.PostingLen), float64(st.DocsEverInTopK),
		float64(st.DocsWithin5OfKth), float64(st.DocsWithin5OfMax),
		float64(st.NumMaxScore), st.IDF,
	}
	l = [LatencyDim]float64{
		float64(st.PostingLen), float64(st.DocsEverInTopK), float64(st.NumLocalMaxima),
		float64(st.NumMaximaAboveMean), float64(st.NumMaxScore), 0,
		float64(st.DocsWithin5OfMax), float64(st.DocsWithin5OfKth), st.Mean,
		st.GeoMean, st.HarmMean, st.MaxScore, st.EstMaxScore, st.Variance, st.IDF,
	}
	return q, l
}

// TestExtractMaxRule holds Extract to the per-term MAX rule bit for bit —
// a statistic replaces the running value only when it is greater, from a
// +0 start — on statistics no index build produces: NaN (Shard.Validate
// checks only IDF), −0 and negatives, for every ordering of the terms.
// Quality and Latency must give the same vectors.
func TestExtractMaxRule(t *testing.T) {
	s := buildShard(t)
	odd := []func(st *index.TermStats){
		func(st *index.TermStats) {
			st.Q1, st.Mean, st.Variance, st.EstMaxScore = math.NaN(), math.NaN(), math.NaN(), math.NaN()
		},
		func(st *index.TermStats) {
			st.Median, st.GeoMean, st.KthScore = math.Copysign(0, -1), math.Copysign(0, -1), math.Copysign(0, -1)
			st.HarmMean, st.Q3 = -2, math.Inf(-1)
		},
		func(st *index.TermStats) { st.MaxScore, st.IDF = math.Inf(1), math.NaN() },
	}
	for i, name := range []string{"tokyo", "city", "japan"} {
		ti, ok := s.Lookup(name)
		if !ok {
			t.Fatalf("%s missing", name)
		}
		odd[i](&ti.Stats)
	}
	for _, terms := range [][]string{
		{"tokyo"}, {"city"}, {"tokyo", "city"}, {"city", "tokyo"},
		{"japan", "tokyo", "absent"}, {"tokyo", "japan", "city", "toyota"},
		{"toyota", "city", "japan", "tokyo"}, {"absent"},
	} {
		var wantQ [QualityDim]float64
		var wantL [LatencyDim]float64
		wantOK := false
		for _, term := range terms {
			ti, found := s.Lookup(term)
			if !found {
				continue
			}
			wantOK = true
			rq, rl := refRows(&ti.Stats)
			for i := range wantQ {
				if rq[i] > wantQ[i] {
					wantQ[i] = rq[i]
				}
			}
			for i := range wantL {
				if rl[i] > wantL[i] {
					wantL[i] = rl[i]
				}
			}
		}
		wantL[5] = float64(len(terms))

		q, l := [QualityDim]float64{1, 2, 3}, [LatencyDim]float64{4, 5, 6} // stale contents Extract must overwrite
		ok := Extract(s, terms, &q, &l)
		qv, qok := Quality(s, terms)
		lv, lok := Latency(s, terms)
		if ok != wantOK || qok != wantOK || lok != wantOK {
			t.Fatalf("%v: matched %v/%v/%v, want %v", terms, ok, qok, lok, wantOK)
		}
		for i := range wantQ {
			for _, got := range []float64{q[i], qv[i]} {
				if math.Float64bits(got) != math.Float64bits(wantQ[i]) {
					t.Errorf("%v: %s = %v, want %v", terms, QualityNames[i], got, wantQ[i])
				}
			}
		}
		for i := range wantL {
			for _, got := range []float64{l[i], lv[i]} {
				if math.Float64bits(got) != math.Float64bits(wantL[i]) {
					t.Errorf("%v: %s = %v, want %v", terms, LatencyNames[i], got, wantL[i])
				}
			}
		}
	}
}
