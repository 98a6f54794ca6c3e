package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// tiny shrinks a workload to a corpus the test suite can afford. The
// shape — which entry point, which trace, heavy or not — stays.
func tiny(w workload) workload {
	w.docs, w.shards, w.home = 2000, 4, 1
	w.rateQPS = 300
	w.sizes = sizes{trainQueries: 200, evalQueries: 200, warmup: 50, tracedMax: 100,
		qualitySteps: 60, latencySteps: 30}
	return w
}

// Every workload, untraced and traced, on a tiny fleet with 0.2 s
// windows: every metric of the contract is reported, every answer
// matches the ground truth, and the traced run leaves a span file whose
// spans nest the way the README says.
func TestSmokeAllWorkloads(t *testing.T) {
	const seconds = 4 // 0.2 s serial and closed windows
	for _, full := range workloads {
		w := tiny(full)
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			out := t.TempDir()
			for _, traced := range []bool{false, true} {
				rep, err := run(w, 202, seconds, traced, out)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				// The quality floor is for the real fleets; a predictor
				// trained on 200 queries may sit below it. Everything else
				// the output check covers must hold.
				if why := rep.CheckFailure; why != "" && !strings.HasPrefix(why, "p_at_10") {
					t.Errorf("traced=%v: output check: %s", traced, why)
				}
				if rep.Result.Failed != 0 || rep.Result.Attempted < 200 {
					t.Errorf("traced=%v: %d attempted, %d failed (%s)", traced,
						rep.Result.Attempted, rep.Result.Failed, rep.FirstFailure)
				}
				want := endToEndUnits
				if traced {
					want = perLayerUnits
				}
				if len(rep.Result.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics, want %d", traced, len(rep.Result.Metrics), len(want))
				}
				if rep.DecisionDigest == "" {
					t.Errorf("traced=%v: no decision digest", traced)
				}
			}
			checkSpanFile(t, filepath.Join(out, w.name+".spans.jsonl"), w.exhaustive)
			if _, err := os.Stat(filepath.Join(out, w.name+".layers.md")); err != nil {
				t.Error(err)
			}
		})
	}
}

func checkSpanFile(t *testing.T, path string, exhaustive bool) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	for sc := bufio.NewScanner(f); sc.Scan(); {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("span file: %v", err)
		}
		spans = append(spans, s)
	}
	parentName := map[string]string{
		"query": "", "rpc.predict_rtt": "query", "predict.predict": "rpc.predict_rtt",
		"core.budget": "query", "rpc.search_rtt": "query", "search.eval": "rpc.search_rtt",
		"search.merge": "query",
	}
	seen := map[string]bool{}
	for i, s := range spans {
		if s.ID != i+1 || s.EndNS < s.StartNS {
			t.Fatalf("span %d: id %d, %d..%d ns", i+1, s.ID, s.StartNS, s.EndNS)
		}
		want, known := parentName[s.Name]
		if !known {
			t.Fatalf("span %d has unknown name %q", s.ID, s.Name)
		}
		got := ""
		if s.Parent != 0 {
			got = spans[s.Parent-1].Name
			if spans[s.Parent-1].Query != s.Query {
				t.Fatalf("span %d belongs to query %d, its parent to %d", s.ID, s.Query, spans[s.Parent-1].Query)
			}
		}
		if got != want {
			t.Fatalf("span %d (%s) has parent %q, want %q", s.ID, s.Name, got, want)
		}
		// Under SearchExhaustive the predictor and Algorithm 1 are probes.
		offPath := s.Name == "rpc.predict_rtt" || s.Name == "predict.predict" || s.Name == "core.budget"
		if s.Probe != (exhaustive && offPath) {
			t.Fatalf("span %d (%s): probe = %v", s.ID, s.Name, s.Probe)
		}
		seen[s.Name] = true
	}
	if len(seen) != len(parentName) {
		t.Errorf("span file has %v, want every one of %v", seen, parentName)
	}
}

// The README's end-to-end table must carry the units, directions and
// bounds BENCHMARK.json fixes.
func TestReadmeTableMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json above the benchmark's directory: ", err)
	}
	var doc struct {
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile("../README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range doc.EndToEnd {
		row := fmt.Sprintf("| `%s` | %s | %s | %v |", m.Name, m.Unit, m.Better, m.Bound)
		if !strings.Contains(string(readme), row) {
			t.Errorf("README.md has no row %q", row)
		}
	}
}

// BENCHMARK.json and the program must name the same workloads and
// metrics with the same units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json above the benchmark's directory: ", err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var have, want []string
	for _, w := range doc.Workloads {
		have = append(have, w.Name)
	}
	for _, w := range workloads {
		want = append(want, w.name)
	}
	sort.Strings(have)
	sort.Strings(want)
	if !reflect.DeepEqual(have, want) {
		t.Errorf("workloads %v, program has %v", have, want)
	}
	for _, c := range []struct {
		what string
		json []struct{ Name, Unit string }
		prog map[string]string
	}{{"end_to_end", doc.EndToEnd, endToEndUnits}, {"per_layer", doc.PerLayer, perLayerUnits}} {
		got := map[string]string{}
		for _, m := range c.json {
			got[m.Name] = m.Unit
		}
		if !reflect.DeepEqual(got, c.prog) {
			t.Errorf("%s: BENCHMARK.json has %v, program has %v", c.what, got, c.prog)
		}
	}
}
