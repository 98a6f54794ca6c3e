package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"

	"cottage/internal/stats"
)

// child runs this program again for a single run and returns its result
// line. Every run of -all and -repeat is a fresh process, as the
// benchmark driver's runs are, so heap and scheduler state never carry
// over from one run to the next.
func child(workload string, seed uint64, seconds float64, traced bool, outDir string) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	traceArg := "0"
	if traced {
		traceArg = "1"
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", traceArg, "-out", outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("run of %s: %w", workload, err)
	}
	var last []byte
	for sc := bufio.NewScanner(bytes.NewReader(out)); sc.Scan(); {
		last = append(last[:0], sc.Bytes()...)
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return result{}, fmt.Errorf("result line of %s: %w", workload, err)
	}
	return res, nil
}

// runAll runs every workload untraced and traced and prints one
// document with the environment and all results: the form committed
// under bench/results/.
func runAll(seed uint64, seconds float64, outDir string) error {
	type entry struct {
		DecisionDigest string `json:"decision_digest"`
		EndToEnd       result `json:"end_to_end"`
		PerLayer       result `json:"per_layer"`
	}
	doc := struct {
		Env       environment      `json:"env"`
		Seconds   float64          `json:"seconds"`
		Workloads map[string]entry `json:"workloads"`
	}{Env: readEnvironment(seed), Seconds: seconds, Workloads: map[string]entry{}}
	for _, w := range workloads {
		var e entry
		var err error
		if e.EndToEnd, err = child(w.name, seed, seconds, false, outDir); err != nil {
			return err
		}
		if e.PerLayer, err = child(w.name, seed, seconds, true, outDir); err != nil {
			return err
		}
		// The digest is not part of the result line; the run's report has it.
		var rep report
		raw, err := os.ReadFile(filepath.Join(outDir, reportName(w.name, false)))
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, &rep); err != nil {
			return err
		}
		e.DecisionDigest = rep.DecisionDigest
		doc.Workloads[w.name] = e
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// runRepeat runs one workload n times on the same inputs and prints, per
// metric, the minimum, median, maximum and the quartile spread as a share
// of the median: the run-to-run noise of the box.
func runRepeat(workload string, seed uint64, seconds float64, traced bool, n int, outDir string) error {
	values := map[string][]float64{}
	units := map[string]string{}
	failed := 0
	for i := 0; i < n; i++ {
		res, err := child(workload, seed, seconds, traced, outDir)
		if err != nil {
			return err
		}
		failed += res.Failed
		for name, mt := range res.Metrics {
			values[name] = append(values[name], mt.Value)
			units[name] = mt.Unit
		}
	}
	fmt.Printf("%s: %d runs, seed %d, %d failed queries\n", workload, n, seed, failed)
	fmt.Printf("%-30s %-7s %14s %14s %14s %8s\n", "metric", "unit", "min", "median", "max", "spread")
	for _, name := range sortedKeys(values) {
		v := values[name]
		fmt.Printf("%-30s %-7s %14.6g %14.6g %14.6g %7.2f%%\n", name, units[name],
			stats.Percentile(v, 0), median(v), stats.Percentile(v, 100), 100*quartileSpread(v))
	}
	return nil
}
