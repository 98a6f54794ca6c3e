package main

// The metric names and units below are the ones BENCHMARK.json lists; a
// test keeps the two in step. An untraced run prints every end-to-end
// metric, a traced run every per-layer metric; anything else a run
// measures goes to the report file as a diagnostic.

// endToEndUnits are what a user of the system would see.
var endToEndUnits = map[string]string{
	"setup_s":          "s",      // corpus + shards + training + listen/dial + warm-up, median of 3
	"lat_p50_ms":       "ms",     // serial phase, one closed-loop client
	"lat_p95_ms":       "ms",     // serial phase
	"qps_closed":       "1/s",    // nproc closed-loop clients
	"open_p50_ms":      "ms",     // Poisson open loop at the workload's fixed rate, from due time
	"cpu_us_per_query": "us",     // process user+system CPU per query, serial phase: the energy proxy
	"allocs_per_query": "count",  // heap allocations per query, serial phase
	"p_at_10":          "frac",   // mean overlap of the answer with the exact top 10
	"isn_frac":         "frac",   // mean share of ISNs searched: the paper's power lever
	"twin_qps":         "1/s",    // queries the virtual-time twin replays per wall second
	"twin_lat_ms":      "sim_ms", // the twin's mean query latency, in simulated milliseconds
	"twin_power_w":     "W",      // the twin's average fleet power
}

// perLayerUnits are measured from outside, by timing calls into each
// internal package's public functions on the workload's own fleet and
// trace. Rows of layers that are not on the workload's query path (the
// predictor under SearchExhaustive, the limiter everywhere) are probes
// of the same fleet, there so the tables of all workloads line up.
var perLayerUnits = map[string]string{
	"rpc.ping_rtt_us":             "us",
	"rpc.predict_rtt_us":          "us",
	"rpc.search_rtt_us":           "us",
	"rpc.predict_overhead_us":     "us", // predict_rtt − predict.predict_us
	"rpc.search_overhead_us":      "us", // search_rtt − search.eval_us
	"rpc.codec_req_us":            "us",
	"rpc.codec_predict_resp_us":   "us",
	"rpc.codec_search_resp_us":    "us",
	"rpc.wire_req_bytes":          "B",
	"rpc.wire_predict_resp_bytes": "B",
	"rpc.wire_search_resp_bytes":  "B",
	"rpc.agg_other_us":            "us", // cpu_us_per_query − Σ layer busy per query

	"predict.predict_us": "us",
	"core.reports_us":    "us",
	"core.budget_us":     "us",

	"search.eval_us":               "us",
	"search.merge_us":              "us",
	"search.docs_scored_per_query": "count",
	"search.postings_per_query":    "count",
	"index.decode_ns_per_posting":  "ns",

	"engine.run_us_per_query":     "us",
	"engine.run_exh_us_per_query": "us",
	"engine.evaluate_us":          "us",

	"overload.acquire_ns": "ns",

	"obs.overhead_frac":            "frac",
	"obs.anatomy_from_trace_us":    "us",
	"obs.coverage_frac":            "frac",
	"obs.phase.predict_us":         "us",
	"obs.phase.budget_us":          "us",
	"obs.phase.admission-queue_us": "us",
	"obs.phase.network_us":         "us",
	"obs.phase.search_us":          "us",
	"obs.phase.merge_us":           "us",
	"obs.phase.other_us":           "us",

	"loadgen.lat_p99_ms":          "ms", // serial phase, same pooling as lat_p95_ms
	"loadgen.open_p90_ms":         "ms",
	"loadgen.open_p99_ms":         "ms",
	"loadgen.open_p999_ms":        "ms",
	"loadgen.slo_miss_frac":       "frac",
	"loadgen.dropped_frac":        "frac", // queries that lost an ISN to its time budget
	"loadgen.late_us":             "us",
	"loadgen.backlog_max":         "count",
	"loadgen.trace_overhead_frac": "frac",
	"proc.bytes_per_query":        "B",
	"proc.gc_count":               "count",
	"proc.gc_pause_ms":            "ms",
	"proc.heap_mb":                "MB",
}
