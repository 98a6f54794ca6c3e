package rpc

import (
	"sync"
	"time"

	"cottage/internal/obs"
	"cottage/internal/overload"
)

// Prober is the aggregator's background health checker: on every tick
// it pings each unhealthy ISN — one whose client connection is broken
// or whose circuit breaker is not closed — and a successful ping closes
// the breaker on the spot. This is what turns the breaker from a
// one-way fuse into a recovery loop: a crashed ISN that comes back is
// revived within one probe interval, without waiting for live query
// traffic to spend a half-open probe on it.
//
// Healthy ISNs are never probed, so the prober adds no steady-state
// load; probes use the client's normal retry/timeout policy. Each probe
// emits an outcome metric, and each revival records how long the ISN
// was down — from the breaker opening (or the prober first seeing it
// unhealthy) to the successful probe — instead of flipping state
// silently.
type Prober struct {
	agg      *Aggregator
	interval time.Duration
	stop     chan struct{}
	done     chan struct{}

	probesOK   obs.Counter
	probesFail obs.Counter
	revived    obs.Counter
	revivalMS  *obs.Histogram // nil without an observer
	// unhealthySince[i] is when the prober first saw ISN i unhealthy
	// (zero = currently healthy). Only touched from sweep goroutines at
	// disjoint indices, with the sweep barrier between generations.
	unhealthySince []time.Time
}

// StartProber launches a background health prober ticking at interval.
// It returns the prober for stats; stop it with StopProber (or
// Prober.Stop). Starting a second prober stops the first.
func (a *Aggregator) StartProber(interval time.Duration) *Prober {
	a.StopProber()
	p := &Prober{
		agg:            a,
		interval:       interval,
		stop:           make(chan struct{}),
		done:           make(chan struct{}),
		unhealthySince: make([]time.Time, len(a.Clients)),
	}
	if a.Obs != nil {
		reg := a.Obs.Reg
		reg.Register("cottage_prober_probes_total",
			"Health probes sent, by outcome.", &p.probesOK, obs.L("outcome", "ok"))
		reg.Register("cottage_prober_probes_total",
			"Health probes sent, by outcome.", &p.probesFail, obs.L("outcome", "fail"))
		reg.Register("cottage_prober_revivals_total",
			"ISNs revived by a successful probe.", &p.revived)
		p.revivalMS = reg.Histogram("cottage_prober_revival_ms",
			"Outage duration per revival: breaker-open (or first unhealthy sighting) to successful probe.",
			obs.LatencyBucketsMS())
	}
	a.prober = p
	go p.run()
	return p
}

// StopProber halts the background prober, if any, and waits for its
// goroutine to exit.
func (a *Aggregator) StopProber() {
	if a.prober != nil {
		a.prober.Stop()
		a.prober = nil
	}
}

func (p *Prober) run() {
	defer close(p.done)
	t := time.NewTicker(p.interval)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			p.sweep()
		}
	}
}

// sweep probes every currently-unhealthy ISN concurrently and waits for
// the results, so a sweep never overlaps the next tick's. "Unhealthy"
// covers two independent axes: transport (broken connection, breaker
// not closed) and data (coordinator-side quarantine). A quarantined but
// reachable replica is probed too — its ping carries the remote
// data-plane status, and the first ping reporting the copy healthy
// again re-admits the replica into selection (closing the repair loop).
func (p *Prober) sweep() {
	var wg sync.WaitGroup
	now := time.Now()
	for i, c := range p.agg.Clients {
		transportDown := c.Broken()
		if b := p.agg.breaker(i); b != nil && b.State() != overload.Closed {
			transportDown = true
		}
		quarantined := p.agg.clientQuarantined(i)
		if !transportDown && !quarantined {
			p.unhealthySince[i] = time.Time{}
			continue
		}
		if transportDown && p.unhealthySince[i].IsZero() {
			p.unhealthySince[i] = now
		}
		wg.Add(1)
		go func(i int, c *Client, transportDown bool) {
			defer wg.Done()
			remoteQuarantined, err := c.PingStatus()
			if err != nil {
				p.probesFail.Inc()
				return
			}
			p.probesOK.Inc()
			if !remoteQuarantined {
				// Repair completed (or the quarantine was never real on the
				// server); return the replica to rotation. No-op when the
				// client was never quarantined.
				p.agg.readmitClient(i)
			}
			if !transportDown {
				// Pure data-plane probe: no breaker to close, no outage to
				// account — repair bookkeeping (MTTR) lives in the ISN's
				// integrity manager.
				return
			}
			if b := p.agg.breaker(i); b != nil {
				b.OnSuccess()
			}
			p.revived.Inc()
			// Revival latency: the outage started when the breaker opened
			// (traffic actually stopped); if the breaker never opened — or
			// there is none — fall back to the prober's first unhealthy
			// sighting.
			down := p.unhealthySince[i]
			if b := p.agg.breaker(i); b != nil {
				if t := b.LastOpened(); !t.IsZero() && (down.IsZero() || t.Before(down)) {
					down = t
				}
			}
			if p.revivalMS != nil && !down.IsZero() {
				p.revivalMS.Observe(float64(time.Since(down).Microseconds()) / 1000)
			}
			p.unhealthySince[i] = time.Time{}
		}(i, c, transportDown)
	}
	wg.Wait()
}

// Stop halts the prober and waits for its goroutine to exit. Safe to
// call once.
func (p *Prober) Stop() {
	close(p.stop)
	<-p.done
}

// Stats reports how many probes the prober has sent and how many
// revived an ISN.
func (p *Prober) Stats() (probes, revived uint64) {
	return p.probesOK.Value() + p.probesFail.Value(), p.revived.Value()
}
