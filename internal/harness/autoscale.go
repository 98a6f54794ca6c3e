package harness

import (
	"fmt"
	"io"
	"math"

	"cottage/internal/autoscale"
	"cottage/internal/cluster"
	"cottage/internal/core"
	"cottage/internal/engine"
	"cottage/internal/faults"
	"cottage/internal/trace"
)

// Autoscale experiment constants. The SLO is deliberately loose against
// the quick-scale exhaustive latency distribution (most services are a
// few ms) and tight against a flash crowd queueing on an underprovisioned
// row — the regime where capacity, not service time, sets the tail.
const (
	// autoscaleMaxR bounds both the fixed-R ladder and the controller.
	autoscaleMaxR = 3
	// autoscaleQPS is the base arrival rate; the profiles modulate it.
	// At ~2.4 ms mean leg service it puts a single replica row around
	// 41% utilization — comfortable at base load, hopeless in a burst.
	autoscaleQPS = 170
	// autoscaleQueries bounds each non-stationary trace.
	autoscaleQueries = 2200
)

// Controller knobs, overridable from the cottage-bench command line
// (-slo-p99-ms, -replan-interval-ms, -scale-cooldown-ms). Variables
// rather than constants so the acceptance-gate defaults and the CLI
// share one source of truth.
var (
	// AutoscaleSLOp99MS is the p99 latency target the planner provisions
	// for and the sweep's miss column is measured against.
	AutoscaleSLOp99MS float64 = 40
	// AutoscaleReplanIntervalMS is the control cadence in virtual ms.
	AutoscaleReplanIntervalMS float64 = 100
	// AutoscaleScaleCooldownMS is the scale-down cooldown; 0 defers to
	// the controller's default (3x the replan interval).
	AutoscaleScaleCooldownMS float64 = 0
)

// autoscaleTraces generates the two non-stationary traces the sweep
// replays: a compressed diurnal "day" and a flash-crowd trace whose
// bursts multiply the base rate faster than any cadence-long warning.
func autoscaleTraces(s *Setup) (diurnal, flash []trace.Query) {
	diurnal = trace.Generate(s.Corpus, trace.Config{
		Kind: trace.Wikipedia, Seed: 404, NumQueries: autoscaleQueries, QPS: autoscaleQPS,
		Arrivals: trace.ArrivalConfig{
			Profile: trace.Diurnal, DiurnalPeriodMS: 10_000, DiurnalAmp: 0.6,
		},
	})
	flash = trace.Generate(s.Corpus, trace.Config{
		Kind: trace.Wikipedia, Seed: 505, NumQueries: autoscaleQueries, QPS: autoscaleQPS,
		Arrivals: trace.ArrivalConfig{
			Profile: trace.Flash, FlashEveryMS: 4_000, FlashDurationMS: 1_200, FlashFactor: 2.5,
		},
	})
	return diurnal, flash
}

// dynamicEngine builds a replicated engine over the setup's shards with
// machine-time power accounting on. The trained fleet transfers as-is
// (replicas serve the same shard at the same speed).
func dynamicEngine(s *Setup, r int) *engine.Engine {
	cfg := s.Config.EngineCfg
	cfg.Cluster.Replicas = r
	cfg.Cluster.DynamicMachines = true
	eng := engine.New(s.Engine.Shards, cfg)
	eng.Fleet = s.Engine.Fleet
	return eng
}

// autoscaleController is the closed-loop configuration under test:
// provision for the sweep's SLO, replan every 100 ms of virtual time
// (a flash crowd builds queue at a fraction of a ms per ms, so the
// cadence bounds the backlog any burst can accumulate before capacity
// arrives), and boost on standing queues half the SLO deep.
func autoscaleController(shards int) *autoscale.Controller {
	return autoscale.New(autoscale.Config{
		Planner:             autoscale.PlannerConfig{SLOp99MS: AutoscaleSLOp99MS, MaxReplicas: autoscaleMaxR},
		ReplanIntervalMS:    AutoscaleReplanIntervalMS,
		ScaleDownCooldownMS: AutoscaleScaleCooldownMS,
	}, shards)
}

// autoscaleRow is one sweep configuration's outcome.
type autoscaleRow struct {
	label       string
	p99MS       float64
	missFrac    float64 // share of queries over the SLO
	machineMS   float64 // integrated node·ms billed
	powerW      float64
	meanRows    float64 // machine time normalized to always-on rows
	scaleEvents int
}

// sloMissFrac is the share of queries whose latency exceeded the SLO.
func sloMissFrac(r engine.RunResult, sloMS float64) float64 {
	if len(r.Outcomes) == 0 {
		return 0
	}
	miss := 0
	for _, o := range r.Outcomes {
		if o.LatencyMS > sloMS {
			miss++
		}
	}
	return float64(miss) / float64(len(r.Outcomes))
}

// runAutoscaleConfigs replays one trace under the fixed-R ladder and the
// closed-loop controller, all on dynamic machine accounting so the
// machine-time column is comparable.
func runAutoscaleConfigs(s *Setup, qs []trace.Query) []autoscaleRow {
	evs := s.Engine.EvaluateAll(qs)
	pol := FixedBudget{BudgetMS: math.Inf(1)}
	rows := make([]autoscaleRow, 0, autoscaleMaxR+1)
	row := func(label string, eng *engine.Engine) autoscaleRow {
		r := eng.Run(pol, evs)
		sm := engine.Summarize(r)
		shards := float64(len(eng.Shards))
		return autoscaleRow{
			label:       label,
			p99MS:       sm.P99Latency,
			missFrac:    sloMissFrac(r, AutoscaleSLOp99MS),
			machineMS:   r.MachineMS,
			powerW:      sm.AvgPowerW,
			meanRows:    r.MachineMS / (r.DurationMS * shards),
			scaleEvents: len(r.ScaleLog),
		}
	}
	for r := 1; r <= autoscaleMaxR; r++ {
		rows = append(rows, row(fmt.Sprintf("fixed-R%d", r), dynamicEngine(s, r)))
	}
	eng := dynamicEngine(s, autoscaleMaxR)
	eng.Scaler = autoscaleController(len(eng.Shards))
	rows = append(rows, row("closed-loop", eng))
	return rows
}

// AutoscaleSweep contrasts fixed provisioning (R = 1..3, always on)
// with the closed-loop capacity planner under diurnal and flash-crowd
// traffic. Fixed fleets pay for their peak all day; the planner follows
// the observed arrival rate and service EWMA, so it meets the same p99
// SLO on flash crowds at a fraction of the machine-hours — the
// coordinated latency/power trade the paper makes per query, lifted to
// fleet capacity.
func AutoscaleSweep(s *Setup, w io.Writer) error {
	diurnal, flash := autoscaleTraces(s)
	for _, tr := range []struct {
		name string
		qs   []trace.Query
	}{{"diurnal", diurnal}, {"flash", flash}} {
		fmt.Fprintf(w, "== %s trace (p99 SLO %.0f ms) ==\n", tr.name, AutoscaleSLOp99MS)
		fmt.Fprintf(w, "%-12s %9s %8s %12s %9s %9s %8s\n",
			"config", "p99 ms", "miss%", "machine-s", "power W", "avg rows", "replans")
		for _, row := range runAutoscaleConfigs(s, tr.qs) {
			fmt.Fprintf(w, "%-12s %9.2f %8.2f %12.1f %9.2f %9.2f %8d\n",
				row.label, row.p99MS, 100*row.missFrac, row.machineMS/1000,
				row.powerW, row.meanRows, row.scaleEvents)
		}
	}
	return nil
}

// Hedging experiment constants. The straggler's injected delay is far
// above any honest service time; the fixed timer is low enough to
// rescue it, and the predictive threshold sits between the heaviest
// honest leg and the straggler's observed defect.
const (
	hedgeStragglerMS  = 80
	hedgeFixedDelayMS = 6
	hedgeThresholdMS  = 40
	hedgeTraceQueries = 2000
	hedgeTraceQPS     = 30
)

// predictiveAll is the hedging experiment's policy: every shard
// participates with no budget (so hedging, not selection, is the only
// variable), but Cottage's per-ISN predictions still ride along in
// Decision.PredCycles to arm the predictive hedger.
type predictiveAll struct{ cot *core.Cottage }

// Name implements engine.Policy.
func (predictiveAll) Name() string { return "predictive-all" }

// Decide implements engine.Policy.
func (p predictiveAll) Decide(e *engine.Engine, q trace.Query, nowMS float64) engine.Decision {
	d := engine.Decision{
		Participate:    make([]bool, len(e.Shards)),
		PredCycles:     make([]float64, len(e.Shards)),
		BudgetMS:       math.Inf(1),
		UsedPredictors: true,
	}
	for i := range d.Participate {
		d.Participate[i] = true
	}
	for _, r := range p.cot.Reports(e, q, nowMS) {
		d.PredCycles[r.ISN] = r.PredCycles
	}
	return d
}

// limpReplica makes shard 0's row-0 replica the straggler: every
// request it serves takes hedgeStragglerMS longer. It replaces the
// cluster's fault injector.
func limpReplica(c *cluster.Cluster) {
	c.Faults = faults.NewInjector(0)
	c.Faults.SetPlan(c.Topo().Node(0, 0), faults.Plan{SlowMS: hedgeStragglerMS})
}

// hedgingRow is one hedging mode's outcome.
type hedgingRow struct {
	label     string
	p99MS     float64
	hedgeRate float64 // hedged legs per participating leg
	winFrac   float64 // hedges whose duplicate won
	dupFrac   float64 // duplicate busy time / total busy time
}

// runHedgingRows replays a stationary trace against a fleet with one
// limping replica (row 0 of shard 0) under three hedging modes: none,
// the classic fixed-delay timer, and predictive (hedge at dispatch only
// when the predicted leg latency — Eq. 2 plus the replica's observed
// defect — crosses the threshold).
func runHedgingRows(s *Setup) []hedgingRow {
	qs := trace.Generate(s.Corpus, trace.Config{
		Kind: trace.Wikipedia, Seed: 606, NumQueries: hedgeTraceQueries, QPS: hedgeTraceQPS,
	})
	eng := dynamicEngine(s, 2)
	limpReplica(eng.Cluster)
	evs := s.Engine.EvaluateAll(qs)
	pol := predictiveAll{cot: core.NewCottage()}

	rows := make([]hedgingRow, 0, 3)
	row := func(label string) hedgingRow {
		r := eng.Run(pol, evs)
		sm := engine.Summarize(r)
		return hedgingRow{
			label:     label,
			p99MS:     sm.P99Latency,
			hedgeRate: sm.HedgeLegRate,
			winFrac:   sm.HedgeWinFrac,
			dupFrac:   sm.DuplicateWorkFrac,
		}
	}
	rows = append(rows, row("no-hedge"))
	eng.Hedge = cluster.Hedge{AfterMS: hedgeFixedDelayMS}
	rows = append(rows, row(fmt.Sprintf("fixed-%dms", hedgeFixedDelayMS)))
	eng.Hedge = cluster.Hedge{Predictive: true, ThresholdMS: hedgeThresholdMS}
	rows = append(rows, row(fmt.Sprintf("predictive-%dms", hedgeThresholdMS)))
	eng.Hedge = cluster.Hedge{}
	return rows
}

// HedgingSweep contrasts fixed-delay and predictive hedging against an
// injected straggler replica. Both rescue the straggler-bound tail; the
// difference is the bill: the fixed timer duplicates every leg that is
// merely slow (heavy honest queries included), while the predictive
// hedger duplicates only legs whose prediction — queue backlog plus the
// serving replica's observed latency defect — flags a straggler.
func HedgingSweep(s *Setup, w io.Writer) error {
	fmt.Fprintf(w, "%-16s %9s %11s %9s %9s\n",
		"mode", "p99 ms", "hedge rate", "win frac", "dup work")
	for _, row := range runHedgingRows(s) {
		fmt.Fprintf(w, "%-16s %9.2f %11.4f %9.3f %9.4f\n",
			row.label, row.p99MS, row.hedgeRate, row.winFrac, row.dupFrac)
	}
	return nil
}
