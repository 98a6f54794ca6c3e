// Command loadgen is the repository's benchmark. It builds one
// workload's fleet in-process — N rpc.Servers on loopback listeners, the
// rpc.Aggregator with one rpc.Client per ISN over real TCP, gob and
// frame CRCs, and the virtual-time twin over the same shards — drives it
// with a closed-loop and an open-loop load generator, checks every
// answer against an in-process ground truth, and prints every metric by
// name with its unit as one JSON object on the last line of standard
// output. See bench/README.md for the metrics and BENCHMARK.json for
// the contract.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setupRuns is how many times an untraced run sets the fleet up, one
// after the other: setup_s is the median of them (the benchmark contract
// asks for that) and the last fleet is the one measured.
const setupRuns = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what a run leaves in the output directory: the result, the
// diagnostics that are not contract metrics, and where it was measured.
type report struct {
	Workload       string             `json:"workload"`
	Trace          bool               `json:"trace"`
	Seconds        float64            `json:"seconds"`
	Env            environment        `json:"env"`
	DecisionDigest string             `json:"decision_digest"`
	CheckFailure   string             `json:"check_failure,omitempty"`
	FirstFailure   string             `json:"first_failure,omitempty"`
	Result         result             `json:"result"`
	Diagnostics    map[string]float64 `json:"diagnostics,omitempty"`
	// Windows holds the per-window values behind every metric measured
	// once per window.
	Windows map[string][]float64 `json:"windows"`
	Sigma   map[string]float64   `json:"sigma,omitempty"`
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run (see BENCHMARK.json)")
		seed         = flag.Uint64("seed", 202, "seed of the evaluation trace and the arrival schedule")
		seconds      = flag.Float64("seconds", 20, "seconds of measuring")
		traced       = flag.Int("trace", 0, "1 records spans around every layer call and reports the per-layer metrics")
		outDir       = flag.String("out", "bench/out", "directory for span files, layer tables and full reports")
		all          = flag.Bool("all", false, "run every workload, untraced and traced, and print one combined report")
		repeat       = flag.Int("repeat", 0, "run the workload this many times on the same inputs and print each metric's min, median, max and spread")
	)
	flag.Parse()
	// Whatever the environment says, use every CPU and say so in the
	// report: the closed loop runs exactly this many clients.
	runtime.GOMAXPROCS(runtime.NumCPU())

	var err error
	switch {
	case *all:
		err = runAll(*seed, *seconds, *outDir)
	case *repeat > 0:
		err = runRepeat(*workloadName, *seed, *seconds, *traced != 0, *repeat, *outDir)
	default:
		err = runOne(*workloadName, *seed, *seconds, *traced != 0, *outDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// runOne is one run of one workload: set-up, measurement, output check,
// and the result line.
func runOne(name string, seed uint64, seconds float64, traced bool, outDir string) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	rep, err := run(w, seed, seconds, traced, outDir)
	if err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(outDir, reportName(w.name, traced)), rep); err != nil {
		return err
	}
	line, err := json.Marshal(rep.Result)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%s: decision_digest %s, %d attempted, %d failed %s\n",
		w.name, rep.DecisionDigest, rep.Result.Attempted, rep.Result.Failed, rep.FirstFailure)
	fmt.Println(string(line))
	if !rep.Result.Correct {
		return fmt.Errorf("output check failed: %s", rep.CheckFailure)
	}
	return nil
}

func reportName(workload string, traced bool) string {
	if traced {
		return workload + ".traced.json"
	}
	return workload + ".result.json"
}

// run sets the fleet up, measures it and fills in the report.
func run(w workload, seed uint64, seconds float64, traced bool, outDir string) (*report, error) {
	runs, roundSeconds := setupRuns, seconds
	if traced {
		// setup_s is an end-to-end metric; the traced run does not report
		// it. It still measures the untraced windows, in less time: the
		// layer table's residual and the tracing overhead are taken against
		// this run's own serial windows, and the open-loop and process
		// diagnostics are reported with the layers.
		runs, roundSeconds = 1, seconds*untracedShare
	}
	var f *fleet
	var setupS []float64
	for i := 0; i < runs; i++ {
		if f != nil {
			f.close()
			f = nil
			runtime.GC()
		}
		start := time.Now()
		var err error
		if f, err = setup(w, seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer f.close()

	start := time.Now()
	evs := f.eng.EvaluateAll(f.queries)
	evaluateUS := usPer(time.Since(start), len(evs))
	r := newRunner(f, groundTruth(f.eng.Shards, f.queries), seed)
	r.rounds(roundSeconds, evs)

	rep := &report{Workload: w.name, Trace: traced, Seconds: seconds, Env: readEnvironment(seed)}
	m := r.finish()
	if traced {
		m["engine.evaluate_us"] = evaluateUS
		sigma, err := r.traceLayers(seconds*(1-untracedShare), evs, m, outDir)
		if err != nil {
			return nil, err
		}
		rep.Sigma = sigma
	} else {
		m["setup_s"] = median(setupS)
	}

	_, _, rep.DecisionDigest = r.ck.quality()
	ok, why := r.verdict(m["p_at_10"])
	rep.CheckFailure, rep.FirstFailure = why, r.ck.firstFailed
	rep.Result = result{Correct: ok, Attempted: r.ck.attempted, Failed: r.ck.failed, Metrics: map[string]metric{}}
	rep.Diagnostics, rep.Windows = map[string]float64{}, r.windows
	units := endToEndUnits
	if traced {
		units = perLayerUnits
	}
	for name, v := range m {
		if unit, ok := units[name]; ok {
			rep.Result.Metrics[name] = metric{Value: v, Unit: unit}
		} else {
			rep.Diagnostics[name] = v
		}
	}
	for name := range units {
		if _, ok := rep.Result.Metrics[name]; !ok {
			return nil, fmt.Errorf("metric %s was not measured", name)
		}
	}
	return rep, nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
