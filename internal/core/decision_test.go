package core

import (
	"slices"
	"strconv"
	"sync"
	"testing"

	"cottage/internal/cluster"
	"cottage/internal/engine"
	"cottage/internal/faults"
	"cottage/internal/obs"
	"cottage/internal/predict"
	"cottage/internal/textgen"
	"cottage/internal/trace"
)

// TestReportAppliesMarginAndQueue pins the one report builder: the raw
// prediction is kept, the margin inflates the cycles Algorithm 1 sees,
// and Eq. 2's queue term lands on both latencies, so the current/boosted
// gap is the service-time gap alone (what assignFrequencies relies on to
// recover the queue). Params.Report thresholds the zero-class
// probabilities at the calibrated cutoffs.
func TestReportAppliesMarginAndQueue(t *testing.T) {
	ladder := cluster.DefaultLadder()
	p := Params{DropZeroProb: 0.8, K2ZeroProb: 0.95}
	pred := predict.Prediction{Matched: true, QK: 3, QK2: 1, Cycles: 9e6, PZeroK: 0.5, PZeroK2: 0.96, ExpQK: 2.5}

	var r ISNReport
	p.Report(&r, 7, pred, 0.5, 4, 1, ladder)
	if r.ISN != 7 || r.Replica != 1 || r.QK != 3 || r.QK2 != 1 || r.ExpQK != 2.5 || !r.HasK || r.HasK2 {
		t.Fatalf("quality half wrong: %+v", r)
	}
	if r.RawCycles != 9e6 || r.PredCycles != 9e6*1.5 {
		t.Fatalf("cycles raw %v pred %v, want 9e6 and 1.35e7", r.RawCycles, r.PredCycles)
	}
	if want := 4 + cluster.ServiceMS(r.PredCycles, ladder.Default()); r.LCurrent != want {
		t.Fatalf("LCurrent %v, want queue + margined service %v", r.LCurrent, want)
	}
	if want := 4 + cluster.ServiceMS(r.PredCycles, ladder.Max()); r.LBoosted != want {
		t.Fatalf("LBoosted %v, want queue + margined service %v", r.LBoosted, want)
	}

	// No margin and no queue: the bare service times, bit for bit — the
	// live aggregator's unmargined reports.
	var bare ISNReport
	p.Report(&bare, 7, pred, 0, 0, 1, ladder)
	if bare.PredCycles != bare.RawCycles || bare.LCurrent != cluster.ServiceMS(9e6, ladder.Default()) {
		t.Fatalf("unmargined report %+v", bare)
	}
}

// twinFixture is a small trained twin: four topical shards, predictors
// fitted on 200 queries, and 60 evaluated queries to replay. The tests
// that share it run one after the other and restore what they change.
var twinFixture struct {
	once sync.Once
	eng  *engine.Engine
	evs  []*engine.Evaluated
	err  error
}

func trainedTwin(t testing.TB) (*engine.Engine, []*engine.Evaluated) {
	t.Helper()
	if testing.Short() {
		t.Skip("trains predictors")
	}
	f := &twinFixture
	f.once.Do(func() {
		ccfg := textgen.DefaultConfig()
		ccfg.NumDocs = 2400
		ccfg.VocabSize = 3000
		ccfg.NumTopics = 12
		ccfg.TopicTermCount = 100
		corpus := textgen.Generate(ccfg)
		ecfg := engine.DefaultConfig()
		ecfg.NumShards = 4
		eng := engine.New(engine.BuildShards(corpus, ecfg, 3), ecfg)
		qs := trace.Generate(corpus, trace.Config{Kind: trace.Wikipedia, Seed: 5, NumQueries: 260, QPS: 50})
		pcfg := predict.DefaultConfig(ecfg.K)
		pcfg.QualitySteps = 150
		pcfg.LatencySteps = 80
		if _, f.err = eng.TrainFleet(qs[:200], pcfg); f.err == nil {
			f.eng, f.evs = eng, eng.EvaluateAll(qs[200:])
		}
	})
	if f.err != nil {
		t.Fatal(f.err)
	}
	return f.eng, f.evs
}

// tracedRun replays evs under pol with an observer holding every trace,
// and detaches it again.
func tracedRun(eng *engine.Engine, pol engine.Policy, evs []*engine.Evaluated) []*obs.Trace {
	eng.Obs = obs.NewObserver(len(eng.Shards), len(evs))
	defer func() { eng.Obs = nil }()
	eng.Run(pol, evs)
	return eng.Obs.Traces.Recent(0)
}

// TestAblationReportsScoreRawPrediction: the oracle and Cottage-withoutML
// inflate predicted cycles by their latency margin like Cottage does, but
// what their decision records (and the twin's latency-accuracy samples)
// score is the model's own prediction at the assigned frequency.
func TestAblationReportsScoreRawPrediction(t *testing.T) {
	eng, evs := trainedTwin(t)
	terms := make(map[string][]string, len(evs))
	for _, ev := range evs {
		terms[strconv.Itoa(ev.Query.ID)] = ev.Query.Terms
	}
	for _, pol := range []engine.Policy{NewCottageOracle(eng, evs), NewCottageNoML()} {
		checked := 0
		for _, tr := range tracedRun(eng, pol, evs) {
			preds := eng.Fleet.PredictAll(eng.Shards, terms[tr.Root().Attrs["query_id"]])
			for _, r := range tr.Find("budget").Decision.Reports {
				if want := cluster.ServiceMS(preds[r.ISN].Cycles, r.FreqGHz); r.PredServiceMS != want {
					t.Fatalf("%s: ISN %d PredServiceMS %v, want the unmargined %v", pol.Name(), r.ISN, r.PredServiceMS, want)
				}
				checked++
			}
		}
		if checked == 0 {
			t.Fatalf("%s: no reports recorded", pol.Name())
		}
	}
}

// TestTwinRecordsTruncatedLegs: an anytime leg that overruns its budget
// answers truncated, and the twin's decision record says so the way the
// live aggregator's does — the shard in Truncated, its report marked with
// the leg's score bound.
func TestTwinRecordsTruncatedLegs(t *testing.T) {
	eng, evs := trainedTwin(t)
	// A straggler the predictors cannot see: every leg on shard 0 runs
	// 30 ms long, so it overruns Cottage's budget.
	eng.Anytime = true
	eng.Cluster.Faults = faults.NewInjector(0)
	eng.Cluster.Faults.SetPlan(0, faults.Plan{SlowMS: 30})
	defer func() {
		eng.Anytime = false
		eng.Cluster.Faults = nil
	}()
	truncated := 0
	for _, tr := range tracedRun(eng, NewCottage(), evs) {
		rec := tr.Find("budget").Decision
		for _, leg := range tr.Spans {
			if leg.Name != "search.isn" || leg.Attrs["truncated"] != "true" {
				continue
			}
			bound, err := strconv.ParseFloat(leg.Attrs["score_bound"], 64)
			if err != nil {
				t.Fatal(err)
			}
			i := slices.IndexFunc(rec.Reports, func(r obs.ReportRecord) bool { return r.ISN == leg.ISN })
			if i < 0 || !rec.Reports[i].Truncated || rec.Reports[i].ScoreBound != bound || !slices.Contains(rec.Truncated, leg.ISN) {
				t.Fatalf("truncated leg on ISN %d (bound %v) not in the decision record: %+v", leg.ISN, bound, rec)
			}
			truncated++
		}
	}
	if truncated == 0 {
		t.Fatal("no leg answered truncated; test is vacuous")
	}
}
