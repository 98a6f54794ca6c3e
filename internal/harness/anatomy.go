package harness

import (
	"fmt"
	"io"

	"cottage/internal/cluster"
	"cottage/internal/core"
	"cottage/internal/engine"
	"cottage/internal/obs"
	"cottage/internal/obs/anatomy"
	"cottage/internal/obs/slo"
	"cottage/internal/stats"
)

// anatomyTightBudgetMS is the fixed deadline for the anytime variant —
// low enough (see AnytimeBudgets) that budget misses are routine.
const anatomyTightBudgetMS = 4

// anatomyVariant is one tail-anatomy run: an engine configuration whose
// phase decomposition the experiment prints.
type anatomyVariant struct {
	label    string
	replicas int
	pol      engine.Policy
	mut      func(eng *engine.Engine)
}

// anatomyEngine builds a fresh engine (shared shards and fleet, private
// cluster) with an observer and a phase-attribution collector attached.
func anatomyEngine(s *Setup, r, window int) *engine.Engine {
	cfg := s.Config.EngineCfg
	cfg.Cluster.Replicas = r
	eng := engine.New(s.Engine.Shards, cfg)
	eng.Fleet = s.Engine.Fleet
	eng.Obs = obs.NewObserver(len(eng.Shards), 64)
	eng.Anatomy = anatomy.NewCollector(window)
	return eng
}

// Anatomy replays the Wikipedia trace under Cottage through the
// simulated twin with per-phase latency attribution attached, and prints
// the tail-anatomy table for three variants: the stock protocol, anytime
// truncation (budget misses answer truncated instead of waiting out the
// deadline), and hedged replicas against an injected straggler. The
// interesting read is the p99-owner line: anytime and hedging do not
// just shrink the p99, they move which phase owns it. A burn-rate
// monitor on the twin's virtual clock then demonstrates the paging path:
// a latency objective set below the observed median must page, and the
// breach snapshots the flight recorder.
func Anatomy(s *Setup, w io.Writer) error {
	variants := []anatomyVariant{
		{"cottage", 1, core.NewCottage(), nil},
		// A 4 ms fixed deadline forces real budget misses; anytime
		// truncation answers them instead of waiting, capping the search
		// phase at the deadline and handing the tail to whoever is next.
		{"anytime-4ms", 1, FixedBudget{BudgetMS: anatomyTightBudgetMS},
			func(eng *engine.Engine) { eng.Anytime = true }},
		{"cottage+hedge", 2, core.NewCottage(), func(eng *engine.Engine) {
			// Replicated fleet with a limping row-0 replica on shard 0 —
			// the setup where hedge-wait time shows up on the tail.
			eng.Hedge = cluster.Hedge{AfterMS: hedgeFixedDelayMS}
			limpReplica(eng.Cluster)
		}},
	}
	var medianMS float64
	for _, v := range variants {
		eng := anatomyEngine(s, v.replicas, len(s.WikiEval))
		if v.mut != nil {
			v.mut(eng)
		}
		r := eng.Run(v.pol, s.WikiEval)
		if v.label == "cottage" {
			lats := make([]float64, len(r.Outcomes))
			for i, o := range r.Outcomes {
				lats[i] = o.LatencyMS
			}
			medianMS = stats.Percentile(lats, 50)
		}
		fmt.Fprintf(w, "== %s (%d queries) ==\n", v.label, len(r.Outcomes))
		if err := eng.Anatomy.Report().WriteText(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}

	// SLO burn-rate demo on the twin's virtual clock: a latency target at
	// the stock run's median makes roughly half the queries "bad" — a
	// burn around 50x a 1% budget — so both windows breach, the monitor
	// pages, and the page snapshots the flight recorder.
	eng := anatomyEngine(s, 1, len(s.WikiEval))
	eng.Obs.Flight = obs.NewFlightRecorder(8, 8, 0)
	mon := slo.New(slo.Config{
		FastWindowMS: 1_000,
		SlowWindowMS: 10_000,
		NowMS:        eng.Cluster.NowMS,
	})
	eng.SLO = &slo.QuerySLO{
		LatencyMS: medianMS,
		Latency:   mon.Objective("latency", 0.01),
		Quality:   mon.Objective("quality", 0.05),
	}
	dumpLines := -1
	mon.OnPage(func(o *slo.Objective) {
		if dumpLines >= 0 {
			return // only the first breach snapshots
		}
		dumpLines, _ = eng.Obs.Flight.WriteJSONL(io.Discard)
	})
	eng.Run(core.NewCottage(), s.WikiEval)
	fmt.Fprintf(w, "== slo burn-rate demo (latency target = stock median %.2f ms) ==\n", medianMS)
	for _, o := range mon.Objectives() {
		fast, slow := o.Burn()
		fmt.Fprintf(w, "%-10s state=%-5s alert-gauge=%.0f pages=%d burn fast=%.1f slow=%.1f\n",
			o.Name(), o.State(), float64(o.State()), o.Pages(), fast, slow)
	}
	if dumpLines >= 0 {
		fmt.Fprintf(w, "flight-recorder dump at first page: %d traces\n", dumpLines)
	} else {
		fmt.Fprintln(w, "flight-recorder dump at first page: (never paged)")
	}
	return nil
}
