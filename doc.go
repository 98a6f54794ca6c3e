// Package cottage is a from-scratch Go reproduction of "Cottage:
// Coordinated Time Budget Assignment for Latency, Quality and Power
// Optimization in Web Search" (HPCA 2022): a distributed search engine
// substrate (inverted index, BM25, MaxScore pruning), per-ISN neural
// quality/latency predictors, the coordinated time-budget optimizer
// (Algorithm 1) with DVFS frequency boosting, the paper's baselines
// (exhaustive, aggregation policy, Rank-S, Taily) and a benchmark harness
// that regenerates every table and figure of the paper's evaluation.
//
// See README.md for a tour, DESIGN.md for the system inventory and
// substitutions, and EXPERIMENTS.md for paper-vs-measured results. The
// public entry points live under internal/ because this module is a
// research artifact consumed through its binaries (cmd/...) and examples
// (examples/...); promote packages out of internal/ if you embed it.
package cottage
