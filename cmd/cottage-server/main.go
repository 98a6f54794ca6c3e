// Command cottage-server runs one ISN over TCP: it loads a shard written
// by cottage-indexer (and optionally its trained predictor) and serves
// search/predict requests for an aggregator (cottage-client).
//
//	cottage-server -shard idx/isn-00.shard -model idx/isn-00.model -listen :7001
//
// -listen accepts a comma-separated list, serving the same shard from
// several independent replica endpoints (each with its own admission
// limiter and fault schedule, as if started as separate processes) —
// handy for exercising cottage-client's replica groups on one machine:
//
//	cottage-server -shard idx/isn-00.shard -listen :7001,:8001
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"cottage/internal/faults"
	"cottage/internal/index"
	"cottage/internal/integrity"
	"cottage/internal/obs"
	"cottage/internal/overload"
	"cottage/internal/predict"
	"cottage/internal/rpc"
	"cottage/internal/search"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cottage-server: ")
	var (
		shardPath = flag.String("shard", "", "path to a .shard file (required)")
		modelPath = flag.String("model", "", "path to a .model file (optional)")
		listen    = flag.String("listen", ":7001", "listen address(es); a comma-separated list serves the shard as that many replica endpoints")
		strategy  = flag.String("strategy", "maxscore", "evaluation strategy: exhaustive|maxscore")
		failRate  = flag.Float64("fail-rate", 0, "inject: probability each response write is dropped (connection cut)")
		slowMS    = flag.Float64("slow-ms", 0, "inject: fixed extra delay per response write, in milliseconds")
		faultSeed = flag.Uint64("fault-seed", 1, "seed for the injected fault schedule (replayable)")
		inflight  = flag.Int("max-inflight", 0, "admission control: max concurrent searches (0 = unlimited)")
		queueLen  = flag.Int("queue-depth", 64, "admission control: queued searches behind the in-flight cap")
		aimd      = flag.Bool("aimd", false, "adapt -max-inflight AIMD-style (additive increase, halve on shed)")
		drainTO   = flag.Duration("drain-timeout", 5*time.Second, "graceful-shutdown drain window on SIGINT/SIGTERM")
		debugAddr = flag.String("debug-addr", "", "HTTP debug listener (/metrics, /healthz, /debug/traces, /debug/integrity, /debug/pprof); empty = off")
		scrubBPS  = flag.Int("scrub-bps", 4<<20, "integrity: background scrub pace in bytes/sec (0 disables integrity supervision)")
		repairSrc = flag.String("repair-peer", "", "integrity: comma-separated sibling replica address(es) to fetch verified shard bytes from on quarantine (fallback: re-read -shard from disk)")
	)
	flag.Parse()
	if *shardPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	shard, err := index.LoadFile(*shardPath)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("loaded shard %d: %d docs, %d terms", shard.ID, shard.NumDocs, shard.NumTerms())

	var pred *predict.ISNPredictor
	if *modelPath != "" {
		data, err := os.ReadFile(*modelPath)
		if err == nil {
			pred, err = predict.DecodeISNPredictor(data)
		}
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("loaded predictor for ISN %d", pred.ISN)
	}

	strat, ok := search.ParseStrategy(*strategy)
	if !ok {
		log.Fatalf("unknown strategy %q", *strategy)
	}

	// The observer is created up front (when a debug listener is asked
	// for) so the integrity managers can mirror their counters onto it.
	var observer *obs.Observer
	if *debugAddr != "" {
		observer = obs.NewObserver(1, 256)
		// Serve-side flight recorder: keeps the slowest requests per minute
		// (queue wait + service time in their spans) at /debug/flight even
		// after they age out of the trace ring.
		observer.Flight = obs.NewFlightRecorder(32, 32, 60_000_000)
	}

	// One server per listen address: the shard and predictor are shared
	// (read-only), but each replica endpoint gets its own admission
	// limiter, fault schedule and integrity manager, just like separately
	// started processes.
	addrs := strings.Split(*listen, ",")
	srvs := make([]*rpc.Server, len(addrs))
	listeners := make([]net.Listener, len(addrs))
	var managers []*integrity.Manager
	for i, addr := range addrs {
		addr = strings.TrimSpace(addr)
		l, err := net.Listen("tcp", addr)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("serving on %s", l.Addr())
		srv := &rpc.Server{Shard: shard, Pred: pred, Strategy: strat}
		if *scrubBPS > 0 {
			// Integrity supervision: the query-time checksum gate plus a
			// paced background scrubber; a detected mismatch quarantines
			// this endpoint (typed CodeQuarantined to the coordinator) and
			// repair re-fetches verified bytes from a sibling replica,
			// falling back to re-reading the shard file.
			mcfg := integrity.Config{
				ShardID:          shard.ID,
				Replica:          i,
				ScrubBytesPerSec: *scrubBPS,
				Fetch:            repairFetch(*repairSrc, *shardPath, shard),
			}
			if observer != nil {
				mcfg.Metrics = integrity.NewMetrics(observer.Reg, obs.L("replica", strconv.Itoa(i)))
			}
			mgr := integrity.NewManager(mcfg, shard)
			srv.Integrity = mgr
			managers = append(managers, mgr)
		}
		if *inflight > 0 {
			lim := overload.NewLimiter(*inflight, *queueLen, nil)
			if *aimd {
				// The configured cap is the ceiling; AIMD probes downward from
				// it under sheds and climbs back as completions succeed.
				lim.EnableAIMD(*inflight)
			}
			srv.Limit = lim
			log.Printf("admission control on: %d in-flight, queue %d, aimd=%v", *inflight, *queueLen, *aimd)
		}
		if *failRate > 0 || *slowMS > 0 {
			// Chaos mode: the injector mangles this ISN's response stream so
			// aggregator-side retries/hedging can be exercised against a real
			// process. The seed makes a fault schedule replayable; each
			// replica endpoint draws its own schedule from seed+row.
			in := faults.NewInjector(*faultSeed + uint64(i))
			in.SetPlan(0, faults.Plan{DropProb: *failRate, SlowMS: *slowMS})
			srv.Faults = in
			l = faults.WrapListener(l, in, 0)
			log.Printf("fault injection on: drop prob %.2f, slow %.1f ms (seed %d)", *failRate, *slowMS, *faultSeed+uint64(i))
		}
		srvs[i], listeners[i] = srv, l
	}
	stopIntegrity := make(chan struct{})
	defer close(stopIntegrity)
	if len(managers) > 0 {
		// Background scrub/repair loops, one per endpoint, stopped during
		// shutdown. The wall-clock tick only paces the loop; each step
		// scrubs tick*scrub-bps bytes.
		for _, m := range managers {
			go m.RunLoop(stopIntegrity, 200*time.Millisecond)
		}
		first := managers[0]
		log.Printf("integrity supervision on: scrub %d B/s (full sweep every %.1f s), repair from %q",
			*scrubBPS, float64(first.ScrubEpochMS())/1000, *repairSrc)
	}
	if *debugAddr != "" {
		// The debug surface reflects the first replica endpoint; siblings
		// are separate servers and would need their own listeners.
		srvs[0].Obs = observer
		var extras []obs.Endpoint
		if len(managers) > 0 {
			extras = append(extras, obs.Endpoint{Path: "/debug/integrity", Handler: integrity.Handler(managers[0].Snapshot)})
		}
		dbg, err := obs.StartDebug(*debugAddr, observer, extras...)
		if err != nil {
			log.Fatal(err)
		}
		defer dbg.Close()
		log.Printf("debug listener on http://%s (/metrics, /healthz, /debug/traces, /debug/flight, /debug/integrity)", dbg.Addr())
	}

	// Graceful lifecycle: first SIGINT/SIGTERM drains in-flight requests
	// for up to -drain-timeout, a second signal (or an expired window)
	// force-closes whatever remains.
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	serveErr := make(chan error, len(srvs))
	for i := range srvs {
		i := i
		go func() { serveErr <- srvs[i].Serve(listeners[i]) }()
	}
	select {
	case err := <-serveErr:
		if err != nil {
			log.Fatal(err)
		}
	case sig := <-sigCh:
		log.Printf("%v: draining (up to %v, signal again to force)", sig, *drainTO)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTO)
		go func() {
			<-sigCh
			cancel()
		}()
		var wg sync.WaitGroup
		for _, srv := range srvs {
			wg.Add(1)
			go func(srv *rpc.Server) {
				defer wg.Done()
				if err := srv.Shutdown(ctx); err != nil {
					log.Printf("drain cut short: %v", err)
				}
			}(srv)
		}
		wg.Wait()
		cancel()
		for range srvs {
			if err := <-serveErr; err != nil {
				log.Printf("serve: %v", err)
			}
		}
	}
	var served, shed uint64
	for _, srv := range srvs {
		served += srv.Served()
		shed += srv.Shed()
	}
	log.Printf("served %d search requests, shed %d", served, shed)
}

// repairFetch builds the verified-bytes source a quarantined endpoint
// repairs from: each -repair-peer sibling in order (shard transfer over
// the rpc fetch verb, re-verified checksum-by-checksum on decode), then
// the local shard file as a last resort. A peer that hands back a shard
// other than want (another partition, another build) is skipped like a
// peer that is down, since the manager would refuse it. The manager
// re-validates whatever comes back before swapping it in, so a rotted
// source can never be promoted.
func repairFetch(peers, shardPath string, want *index.Shard) func() (*index.Shard, error) {
	var addrs []string
	for _, a := range strings.Split(peers, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	return func() (*index.Shard, error) {
		var firstErr error
		for _, addr := range addrs {
			c, err := rpc.Dial(addr)
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("peer %s: %w", addr, err)
				}
				continue
			}
			s, err := c.FetchShard()
			c.Close()
			if err == nil && (s.ID != want.ID || s.Digest != want.Digest) {
				err = &integrity.WrongShardError{WantID: want.ID, GotID: s.ID, WantDigest: want.Digest, GotDigest: s.Digest}
			}
			if err == nil {
				return s, nil
			}
			if firstErr == nil {
				firstErr = fmt.Errorf("peer %s: %w", addr, err)
			}
		}
		s, err := index.LoadFile(shardPath)
		if err != nil {
			if firstErr != nil {
				return nil, fmt.Errorf("%v; disk fallback: %w", firstErr, err)
			}
			return nil, err
		}
		return s, nil
	}
}
