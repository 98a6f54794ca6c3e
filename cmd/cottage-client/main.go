// Command cottage-client is the aggregator-side CLI: it connects to a set
// of cottage-server ISNs, replays queries against them under either the
// exhaustive or the Cottage coordinated protocol, and reports latency and
// result agreement.
//
//	cottage-client -servers 127.0.0.1:7001,127.0.0.1:7002 -mode cottage \
//	               -queries queries.txt
//
// queries.txt holds one query per line (whitespace-separated terms). With
// -compare, every query runs under both protocols and the client reports
// Cottage's overlap with the exhaustive top-K.
//
// Replicated fleets group the addresses into replica groups — one group
// per logical shard, every per-query leg routed to the group's best live
// replica with mid-query failover. Either list groups explicitly (';'
// between shards, ',' between a shard's replicas):
//
//	cottage-client -servers '127.0.0.1:7001,127.0.0.1:8001;127.0.0.1:7002,127.0.0.1:8002'
//
// or give a flat list plus -replicas R (row-major: the first half is
// replica row 0, the second half row 1 — the layout from starting the
// whole server fleet once per row):
//
//	cottage-client -servers 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:8001,127.0.0.1:8002 -replicas 2
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"sync"
	"time"

	"cottage/internal/cluster"
	"cottage/internal/core"
	"cottage/internal/obs"
	"cottage/internal/obs/anatomy"
	"cottage/internal/obs/slo"
	"cottage/internal/replica"
	"cottage/internal/rpc"
	"cottage/internal/search"
	"cottage/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cottage-client: ")
	var (
		servers   = flag.String("servers", "", "ISN addresses: ',' between replicas/shards, ';' between shard groups (required)")
		replicas  = flag.Int("replicas", 1, "replicas per shard for a flat -servers list (row-major); ignored when -servers uses ';' groups")
		mode      = flag.String("mode", "cottage", "protocol: exhaustive|cottage")
		queries   = flag.String("queries", "", "file with one query per line")
		tracePath = flag.String("trace", "", "timed trace file (from cottage-indexer -traceout) for paced replay")
		speedup   = flag.Float64("speedup", 1, "replay the trace this many times faster than recorded")
		k         = flag.Int("k", 10, "results per query")
		compare   = flag.Bool("compare", false, "run both protocols and report overlap")
		retries   = flag.Int("retries", 2, "transport retries per request (reconnect + capped exponential backoff)")
		hedgeMS   = flag.Float64("hedge-after-ms", 0, "issue a hedged duplicate request after this many ms (0 = off)")
		hedgePred = flag.Bool("hedge-predictive", false, "hedge from the latency prediction instead of a fixed timer: legs whose queue-corrected prediction exceeds -hedge-threshold-ms are duplicated at dispatch, the rest never (cottage mode only)")
		hedgeThMS = flag.Float64("hedge-threshold-ms", 0, "predicted queue-inclusive latency above which a predictive hedge fires, in ms")
		timeoutMS = flag.Float64("timeout-ms", 2000, "per-round-trip timeout in ms (0 = none)")
		degraded  = flag.String("degraded", "exclude", "budget policy for ISNs with missing predictions: exclude|conservative")
		brkN      = flag.Int("breaker-threshold", 3, "open an ISN's circuit breaker after this many consecutive transport failures (0 = off)")
		brkCoolMS = flag.Float64("breaker-cooldown-ms", 500, "circuit-breaker cooldown before a half-open probe, in ms")
		probeMS   = flag.Float64("probe-interval-ms", 0, "background health-probe interval for broken/open ISNs, in ms (0 = off)")
		anytime   = flag.Bool("anytime", false, "budget-missing ISNs return exact truncated top-K answers with a score bound instead of being dropped")
		debugAddr = flag.String("debug-addr", "", "HTTP debug listener (/metrics, /healthz, /debug/traces, /debug/accuracy, /debug/anatomy, /debug/slo, /debug/flight, /debug/pprof); empty = off")
		traceOut  = flag.String("trace-out", "", "write the recorded query traces as JSONL to this file on exit")
		sloLatMS  = flag.Float64("slo-latency-ms", 0, "latency SLO threshold in ms: queries above it burn the error budget and drive multi-window burn-rate alerting (0 = off)")
		sloTarget = flag.Float64("slo-target", 0.01, "SLO error budget: tolerated bad fraction for the latency and quality objectives (0.01 = 99% SLO)")
		flightOut = flag.String("flight-out", "", "flight-recorder JSONL dump path: written at the first SLO page, else at exit (empty = off)")
		pageProf  = flag.String("page-cpuprofile", "", "capture a 5 s CPU profile to this file on the first SLO page (empty = off)")
	)
	flag.Parse()
	if *servers == "" || (*queries == "" && *tracePath == "") {
		flag.Usage()
		os.Exit(2)
	}

	addrGroups, err := replica.ParseGroups(*servers)
	if err != nil {
		log.Fatal(err)
	}
	if !strings.Contains(*servers, ";") && *replicas > 1 {
		flat := make([]string, len(addrGroups))
		for i, g := range addrGroups {
			flat[i] = g[0]
		}
		if addrGroups, err = replica.GroupFlat(flat, *replicas); err != nil {
			log.Fatal(err)
		}
	}
	var clients []*rpc.Client
	var groups [][]int
	replicated := false
	for _, g := range addrGroups {
		idx := make([]int, 0, len(g))
		if len(g) > 1 {
			replicated = true
		}
		for _, addr := range g {
			c, err := rpc.Dial(addr)
			if err != nil {
				// Not fatal: treat an ISN that is down at startup like one
				// that dies later — every call redials through the retry
				// path, and the aggregator degrades around it meanwhile.
				log.Printf("warning: %s unreachable: %v (will redial per request)", addr, err)
				c = rpc.Offline(addr)
			}
			defer c.Close()
			if *timeoutMS > 0 {
				c.SetTimeout(time.Duration(*timeoutMS * float64(time.Millisecond)))
			}
			c.SetRetryPolicy(rpc.RetryPolicy{Max: *retries})
			if err := c.Ping(); err != nil {
				// Not fatal: the aggregator degrades around unhealthy ISNs
				// per query, and retries may yet bring this one back.
				log.Printf("warning: %s unhealthy: %v", addr, err)
			}
			idx = append(idx, len(clients))
			clients = append(clients, c)
		}
		groups = append(groups, idx)
	}
	agg := rpc.NewAggregator(clients, *k)
	if replicated {
		if err := agg.EnableReplicaGroups(groups); err != nil {
			log.Fatal(err)
		}
		log.Printf("%d shards x replica groups over %d servers", len(groups), len(clients))
	}
	agg.Hedge = cluster.Hedge{AfterMS: *hedgeMS, Predictive: *hedgePred, ThresholdMS: *hedgeThMS}
	if *hedgePred && *hedgeThMS <= 0 {
		log.Fatal("-hedge-predictive needs -hedge-threshold-ms > 0")
	}
	agg.Anytime = *anytime
	if *debugAddr != "" || *traceOut != "" || *flightOut != "" || *sloLatMS > 0 {
		agg.Obs = obs.NewObserver(len(clients), 512)
		// Always-on flight recorder: slowest 32 traces per minute plus a
		// 32-trace reservoir sample, browsable at /debug/flight.
		agg.Obs.Flight = obs.NewFlightRecorder(32, 32, 60_000_000)
		agg.Anatomy = anatomy.NewCollector(1024)
	}
	var extras []obs.Endpoint
	if agg.Anatomy != nil {
		extras = append(extras, obs.Endpoint{Path: "/debug/anatomy", Handler: anatomy.Handler(agg.Anatomy)})
	}
	paged := false
	var profWait sync.WaitGroup
	defer profWait.Wait() // don't exit mid-capture: the profile flushes on return
	if *sloLatMS > 0 {
		mon := slo.New(slo.Config{})
		agg.SLO = &slo.QuerySLO{
			LatencyMS: *sloLatMS,
			Latency:   mon.Objective("latency", *sloTarget),
			Quality:   mon.Objective("quality", *sloTarget),
		}
		mon.OnPage(func(o *slo.Objective) {
			log.Printf("SLO PAGE: objective %q burning error budget in both windows", o.Name())
			if paged {
				return
			}
			paged = true
			if *flightOut != "" {
				if n, err := agg.Obs.Flight.DumpFile(*flightOut); err != nil {
					log.Printf("flight dump: %v", err)
				} else {
					log.Printf("flight recorder: dumped %d traces to %s", n, *flightOut)
				}
			}
			if *pageProf != "" {
				profWait.Add(1)
				go func() {
					defer profWait.Done()
					if err := obs.CaptureCPUProfile(*pageProf, 5*time.Second); err != nil {
						log.Printf("page CPU profile: %v", err)
					} else {
						log.Printf("page CPU profile written to %s", *pageProf)
					}
				}()
			}
		})
		mon.Register(agg.Obs.Reg)
		extras = append(extras, obs.Endpoint{Path: "/debug/slo", Handler: slo.Handler(mon)})
	}
	if *debugAddr != "" {
		dbg, err := obs.StartDebug(*debugAddr, agg.Obs, extras...)
		if err != nil {
			log.Fatal(err)
		}
		defer dbg.Close()
		log.Printf("debug listener on http://%s (/metrics, /debug/traces, /debug/accuracy, /debug/anatomy, /debug/slo, /debug/flight)", dbg.Addr())
	}
	if *brkN > 0 {
		agg.EnableBreakers(*brkN, time.Duration(*brkCoolMS*float64(time.Millisecond)))
	}
	var prober *rpc.Prober
	if *probeMS > 0 {
		prober = agg.StartProber(time.Duration(*probeMS * float64(time.Millisecond)))
		defer agg.StopProber()
	}
	switch *degraded {
	case "exclude":
		agg.Degraded = core.DegradedExclude
	case "conservative":
		agg.Degraded = core.DegradedConservative
	default:
		log.Fatalf("unknown degraded mode %q", *degraded)
	}

	var queryList [][]string
	var arrivals []float64
	if *tracePath != "" {
		qs, err := trace.LoadFile(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		for _, q := range qs {
			queryList = append(queryList, q.Terms)
			arrivals = append(arrivals, q.ArrivalMS)
		}
		log.Printf("replaying %d-query trace at %.1fx speed", len(qs), *speedup)
	} else {
		f, err := os.Open(*queries)
		if err != nil {
			log.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			terms := strings.Fields(sc.Text())
			if len(terms) == 0 {
				continue
			}
			queryList = append(queryList, terms)
		}
		if err := sc.Err(); err != nil {
			f.Close()
			log.Fatal(err)
		}
		f.Close()
	}

	var totalMS, overlapSum float64
	n := 0
	replayStart := time.Now()
	for qi, terms := range queryList {
		if arrivals != nil && *speedup > 0 {
			// Paced replay: wait until the recorded (scaled) arrival time.
			due := time.Duration(arrivals[qi] / *speedup * float64(time.Millisecond))
			if wait := due - time.Since(replayStart); wait > 0 {
				time.Sleep(wait)
			}
		}
		start := time.Now()
		var res rpc.Result
		var err error
		switch *mode {
		case "exhaustive":
			res, err = agg.SearchExhaustive(terms)
		case "cottage":
			res, err = agg.SearchCottage(terms)
		default:
			log.Fatalf("unknown mode %q", *mode)
		}
		if err != nil {
			log.Fatalf("query %v: %v", terms, err)
		}
		elapsed := time.Since(start)
		totalMS += float64(elapsed.Microseconds()) / 1000
		n++
		failed := ""
		if len(res.Failed) > 0 {
			failed = fmt.Sprintf("  DEGRADED (ISNs %v down)", res.Failed)
		}
		fmt.Printf("%-40s %3d hits  %2d ISNs  budget %6.2f ms  %8.3f ms%s\n",
			strings.Join(terms, " "), len(res.Hits), len(res.Selected), res.BudgetMS,
			float64(elapsed.Microseconds())/1000, failed)
		if *compare {
			exh, err := agg.SearchExhaustive(terms)
			if err != nil {
				log.Fatal(err)
			}
			if len(exh.Hits) > 0 {
				ov := float64(search.CountIn(res.Hits, exh.Hits)) / float64(len(exh.Hits))
				overlapSum += ov
				fmt.Printf("%-40s overlap with exhaustive: %.2f\n", "", ov)
			}
		}
	}
	if n == 0 {
		log.Fatal("no queries")
	}
	fmt.Printf("\n%d queries, mean wall latency %.3f ms", n, totalMS/float64(n))
	if *compare {
		fmt.Printf(", mean overlap %.3f", overlapSum/float64(n))
	}
	fmt.Println()
	st := agg.Stats()
	if st.Retries > 0 || st.Hedges > 0 || st.FailoversPredict+st.FailoversSearch > 0 {
		fmt.Printf("transport: %d retries, %d hedges (%d won, %d cancelled), %d failovers (%d predict, %d search)\n",
			st.Retries, st.Hedges, st.HedgeWins, st.HedgesCancelled,
			st.FailoversPredict+st.FailoversSearch, st.FailoversPredict, st.FailoversSearch)
	}
	if asked := st.MemoHits + st.MemoPartial + st.MemoMisses; asked > 0 {
		fmt.Printf("prediction memo: %d of %d queries skipped the predict round (hit rate %.1f%%), %d asked some shards, %d all\n",
			st.MemoHits, asked, 100*float64(st.MemoHits)/float64(asked), st.MemoPartial, st.MemoMisses)
	}
	if prober != nil {
		probes, revived := prober.Stats()
		if probes > 0 {
			fmt.Printf("health prober: %d probes, %d revivals\n", probes, revived)
		}
	}
	if agg.Anatomy != nil && agg.Anatomy.Observed() > 0 {
		fmt.Println("\ntail anatomy:")
		if err := agg.Anatomy.Report().WriteText(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
	if agg.SLO != nil {
		fast, slow := agg.SLO.Latency.Burn()
		fmt.Printf("latency SLO (%.1f ms @ %.3g budget): state=%s burn fast=%.2f slow=%.2f pages=%d\n",
			*sloLatMS, *sloTarget, agg.SLO.Latency.State(), fast, slow, agg.SLO.Latency.Pages())
	}
	if *flightOut != "" && !paged {
		if nTr, err := agg.Obs.Flight.DumpFile(*flightOut); err != nil {
			log.Fatal(err)
		} else {
			log.Printf("flight recorder: dumped %d traces to %s", nTr, *flightOut)
		}
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := agg.Obs.Traces.WriteJSONL(f); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %d traces to %s (ring keeps the last 512)", len(agg.Obs.Traces.Recent(0)), *traceOut)
	}
}
