// Package cluster simulates the paper's testbed in virtual time: a set of
// Index Serving Nodes (one core each, with per-core DVFS over the Xeon
// E5-2697's 1.2–2.7 GHz ladder), FIFO request queues, a service-time cost
// model driven by the *real* work the query evaluator measured, network
// delays, and package power accounting (internal/power).
//
// All latency and power results in the experiment harness come from this
// simulator's virtual clock, which keeps every figure deterministic and
// machine-independent while preserving the per-query variance of the real
// retrieval engine. Times are float64 milliseconds.
package cluster

import (
	"fmt"
	"math"

	"cottage/internal/faults"
	"cottage/internal/power"
	"cottage/internal/replica"
	"cottage/internal/search"
)

// Ladder is the set of selectable CPU frequencies in GHz, ascending.
type Ladder struct {
	Levels []float64
	// DefaultIdx indexes the frequency ISNs run at when no policy boosts
	// them — power-conscious deployments keep this below max (the
	// "current frequency" of the paper's Fig. 9).
	DefaultIdx int
}

// DefaultLadder mirrors the paper's platform: 1.2–2.7 GHz, with 1.8 GHz
// as the power-conscious default.
func DefaultLadder() Ladder {
	return Ladder{
		Levels:     []float64{1.2, 1.5, 1.8, 2.1, 2.4, 2.7},
		DefaultIdx: 2,
	}
}

// Default returns the default frequency in GHz.
func (l Ladder) Default() float64 { return l.Levels[l.DefaultIdx] }

// Max returns the highest (boost) frequency in GHz.
func (l Ladder) Max() float64 { return l.Levels[len(l.Levels)-1] }

// Validate checks ladder invariants.
func (l Ladder) Validate() error {
	if len(l.Levels) == 0 {
		return fmt.Errorf("cluster: empty frequency ladder")
	}
	for i := 1; i < len(l.Levels); i++ {
		if l.Levels[i] <= l.Levels[i-1] {
			return fmt.Errorf("cluster: ladder not ascending at %d", i)
		}
	}
	if l.DefaultIdx < 0 || l.DefaultIdx >= len(l.Levels) {
		return fmt.Errorf("cluster: default index %d out of range", l.DefaultIdx)
	}
	return nil
}

// Hedge is the hedged-request rule both serving paths apply to each
// search leg, the live aggregator and the twin each from its own latency
// prediction. The zero value never hedges.
type Hedge struct {
	// AfterMS > 0 duplicates a leg still unanswered after this many
	// milliseconds (the fixed-delay timer). Ignored when Predictive is set.
	AfterMS float64
	// Predictive duplicates at dispatch the legs whose predicted latency
	// exceeds ThresholdMS, and never hedges the rest.
	Predictive  bool
	ThresholdMS float64
}

// DelayMS returns when to hedge a leg whose predicted latency is predMS
// (havePred false: there is no prediction): 0 duplicates it at dispatch,
// a positive delay arms a timer, and a negative one never hedges.
func (h Hedge) DelayMS(predMS float64, havePred bool) float64 {
	if h.Predictive {
		if havePred && h.ThresholdMS > 0 && predMS > h.ThresholdMS {
			return 0
		}
		return -1
	}
	if h.AfterMS > 0 {
		return h.AfterMS
	}
	return -1
}

// CostModel converts measured query-evaluation work into CPU cycles. The
// constants are the calibration lever that maps our ~48K-document corpus
// onto the paper's 34M-document testbed: per-unit costs are inflated so
// that per-ISN service times land in the paper's 4–65 ms range (Fig. 10)
// at the default frequency. DESIGN.md documents this substitution.
type CostModel struct {
	BaseCycles       float64 // fixed per-query overhead (parsing, setup)
	CyclesPerPosting float64 // per posting traversed (decode + compare)
	CyclesPerDoc     float64 // per candidate document scored
	CyclesPerInsert  float64 // per top-K heap update
}

// DefaultCostModel returns the calibrated model described above. With the
// default 48K-document corpus and Wikipedia-like trace, the slowest
// shard's service time at 1.8 GHz lands near 6 ms at the median, ~24 ms
// at the 95th percentile, ~68 ms at the 99th and 95 ms at the maximum
// (Fig. 10a: 4–65 ms), and the exhaustive policy's mean latency at
// 14.04 ms against the paper's 17.26. One scalar on the two per-unit
// costs cannot hold the mean and the tail together — a primed one-term
// query does a small part of the work a many-term query does — and this
// one holds the tail (DESIGN.md §17, "Recalibration").
// The small fixed overhead keeps per-ISN service times dominated by
// retrieval work, so the per-query variance *across* ISNs (Fig. 2's
// premise, and what Algorithm 1's budget exploits) mirrors the real
// skew of posting-list lengths across topical shards.
func DefaultCostModel() CostModel {
	return CostModel{
		BaseCycles:       2_000_000,
		CyclesPerPosting: 19_500,
		CyclesPerDoc:     15_600,
		CyclesPerInsert:  50_000,
	}
}

// Cycles converts execution statistics into CPU cycles.
func (c CostModel) Cycles(st search.ExecStats) float64 {
	return c.BaseCycles +
		c.CyclesPerPosting*float64(st.PostingsTraversed) +
		c.CyclesPerDoc*float64(st.DocsScored) +
		c.CyclesPerInsert*float64(st.HeapInserts)
}

// ServiceMS converts cycles to milliseconds at frequency f (GHz):
// 1 GHz executes 1e6 cycles per millisecond.
func ServiceMS(cycles, freqGHz float64) float64 {
	if freqGHz <= 0 {
		panic("cluster: non-positive frequency")
	}
	return cycles / (freqGHz * 1e6)
}

// Network models the datacenter fabric between aggregator and ISNs plus
// the client access link. The paper argues coordination overhead is
// negligible against tens-of-ms service times; these constants keep it
// small but present.
type Network struct {
	// AggToISNMS is the one-way aggregator <-> ISN delay.
	AggToISNMS float64
	// ClientMS is the one-way client <-> aggregator delay.
	ClientMS float64
}

// DefaultNetwork uses 50 µs fabric hops and a 200 µs client link.
func DefaultNetwork() Network {
	return Network{AggToISNMS: 0.05, ClientMS: 0.2}
}

// FailTimeoutMS is the aggregator's failure-detection timeout: how long
// it waits for an ISN that will never answer before giving up, when no
// tighter per-query budget applies (budgeted queries give up at the
// budget). Real aggregators detect dead peers with TCP
// resets/heartbeats in tens of milliseconds.
const FailTimeoutMS = 100

// ISN is the simulated state of one index-serving node: a single FIFO
// worker, when it frees up, and cumulative accounting.
type ISN struct {
	ID int
	// SpeedFactor scales this node's service time (1 = nominal, 2 = a
	// straggler taking twice as long per cycle). Models the server
	// heterogeneity of real fleets (Haque et al., MICRO'17); per-ISN
	// latency predictors absorb it because each ISN's model is trained on
	// its own observed service costs.
	SpeedFactor float64
	// freeAtMS is when the node finishes its current backlog: requests
	// are served one at a time in arrival order (one core for power
	// accounting).
	freeAtMS float64
	// active marks the node as accepting new work. The autoscaler
	// deactivates replica rows it scales away; a deactivated node drains
	// its backlog (offAtMS) and then stops costing idle power.
	active bool
	// offAtMS is when a deactivated node actually powers down: the later
	// of the deactivation instant and its queue drain. +Inf while active.
	offAtMS float64
	// corruptAtMS is when silent at-rest rot lands on this node's shard
	// copy (+Inf = clean); corruptFrac positions the rot as a fraction of
	// the copy's postings, which makes the scrubber's detection instant
	// computable. quarantined/quarantinedAtMS/repairAtMS are the
	// quarantine state machine (see integrity.go).
	corruptAtMS     float64
	corruptFrac     float64
	quarantined     bool
	quarantinedAtMS float64
	repairAtMS      float64
	// rotQueue is this node's slice of the cluster's scheduled rot
	// events (Cluster.Rot), consumed as virtual time advances.
	rotQueue []faults.CorruptionEvent
	// defectMS is a rolling estimate of this node's per-request latency
	// defect — observed service time beyond what the cost model predicts
	// (injected slowdowns). It is the twin's counterpart of the live
	// path's replica.Tracker service EWMA: Eq. 2 cannot see a silent
	// straggler whose queue happens to be empty, but its history can.
	// Predictive hedging adds it to the predicted leg latency.
	defectMS float64
	// Totals for reporting.
	BusyMS        float64
	QueriesServed int
}

// Cluster simulates a fleet of ISNs sharing one CPU package. With
// replication (Config.Replicas > 1) the fleet holds Shards × R nodes in
// replica.Topology's row-major layout: node r*Shards+shard is shard's
// r-th copy, so replica row 0 is the familiar unreplicated fleet and
// every node-level method (Execute, EquivalentLatencyMS, ...)
// keeps its meaning unchanged. Shard-level methods (ExecuteShard,
// ShardFailed, ...) layer replica selection and virtual-time failover on
// top.
type Cluster struct {
	ISNs    []*ISN
	Ladder  Ladder
	Cost    CostModel
	Net     Network
	Meter   *power.Meter
	InferMS float64 // per-query predictor inference time charged at the ISN
	// Faults, when set, is the twin's one fault switchboard, keyed by
	// node id. A crashed node (Injector.Crash) is dead: it answers
	// neither predictions nor searches, requests routed to it are lost
	// until the aggregator's failure-detection timeout, and shard-level
	// availability counts it out — the twin's stand-in for the live
	// path's prober, which discovers crashed replicas within a probe
	// interval. Every other verdict is dealt per request into Execute
	// from the node's seeded stream: a drop or corrupt reply is a
	// surprise only mid-query failover can absorb, and a slowdown
	// (Plan.SlowMS, plus any jitter) is a virtual-time straggler — GC
	// pause, noisy neighbour, degraded disk — charged as busy time at the
	// serving frequency, so the node burns power while it limps. Fault
	// state is configuration, not accumulated statistics: Reset keeps
	// it, so a sweep can inject faults once and replay many policies;
	// ClearFaults drops the injector.
	Faults *faults.Injector
	// topo is the shard × replica layout (R=1 when unconfigured), and
	// groups[s] is shard s's replica group in it, built once.
	topo   replica.Topology
	groups [][]int
	// rankCands and rankOrder are rankShard's scratch.
	rankCands []replica.Candidate
	rankOrder []int
	// MaxQueueMS, when positive, bounds each ISN's admission queue in
	// time: a request arriving to find more than this much backlog is
	// shed immediately (no work, no power) instead of queuing without
	// bound — the simulated counterpart of the live transport's
	// overload.Limiter. Zero keeps the queue unbounded.
	MaxQueueMS float64
	// Anytime turns deadline misses into truncated answers: ISNs run the
	// anytime traversal, so a request cut off at its budget still returns
	// a quality-bounded best-so-far (Execution.WorkFrac), and admission
	// control admits over-queue requests that can still start before
	// their deadline instead of shedding them outright. engine.Run sets
	// it from Engine.Anytime for each replay.
	Anytime bool
	// ScrubEpochMS is how long the background scrubber takes to sweep one
	// node's whole shard copy (0 = scrubbing off): injected rot the
	// queries never touch is still detected within one epoch. RepairMS is
	// detection-to-readmission time for a quarantined copy (0 = no
	// repair, quarantine is permanent). See integrity.go.
	ScrubEpochMS float64
	RepairMS     float64
	// Rot, when set, is a virtual-time at-rest corruption schedule
	// (faults.CorruptionSchedule): each event lands silent rot on one
	// node as the clock reaches its instant. Like Faults it survives
	// Reset — the schedule is dealt into per-node queues at Reset, so
	// consecutive runs replay it identically.
	Rot []faults.CorruptionEvent
	// integ accumulates the corruption/repair ledger (integrity.go).
	integ integrityTotals
	// dynamic enables machine-time power accounting (Config
	// .DynamicMachines): the idle floor integrates over each node's
	// actual powered-on interval instead of charging the full R× fleet
	// for the whole horizon, so an autoscaler's scale-downs show up as
	// saved watts and machine-hours.
	dynamic bool
	// accruedToMS is how far along the virtual-time axis machine time
	// has been integrated (dynamic mode only).
	accruedToMS float64
	// machineNodeMS is the integrated powered-on node time (node·ms).
	machineNodeMS float64
	nowMS         float64 // latest event time observed, for horizon accounting
}

// Config assembles a Cluster.
type Config struct {
	// NumISNs is the number of logical shards; with Replicas > 1 the
	// cluster holds NumISNs × Replicas nodes.
	NumISNs int
	// Replicas is the replication factor R (default 1). Each shard gets R
	// interchangeable copies; the package idle floor scales ×R because
	// replicated shards are extra hardware, not extra cores on the same
	// box.
	Replicas int
	Ladder   Ladder
	Cost     CostModel
	Net      Network
	InferMS  float64
	// SpeedFactors optionally sets per-shard service-time multipliers
	// (heterogeneous fleet). Missing or non-positive entries default to 1.
	// Replicas of one shard share its factor — they index the same
	// documents on the same hardware class — so per-shard latency
	// predictors stay valid across failover.
	SpeedFactors []float64
	// DynamicMachines switches power accounting to integrated machine
	// time so SetActiveReplicas can scale replica rows up and down
	// mid-run: only powered-on nodes pay the idle floor, and MachineMS
	// reports the fleet's machine-time bill. Without it the cluster
	// behaves exactly as before (all R rows on for the whole horizon).
	DynamicMachines bool
}

// DefaultConfig returns a 16-ISN cluster matching the paper's deployment.
func DefaultConfig() Config {
	return Config{
		NumISNs: 16,
		Ladder:  DefaultLadder(),
		Cost:    DefaultCostModel(),
		Net:     DefaultNetwork(),
		InferMS: 0.11, // quality (41 µs) + latency (70 µs) inference, Figs. 7b/8b
	}
}

// New builds a cluster. It panics on invalid configuration.
func New(cfg Config) *Cluster {
	if cfg.NumISNs <= 0 {
		panic("cluster: NumISNs must be positive")
	}
	if err := cfg.Ladder.Validate(); err != nil {
		panic(err)
	}
	r := cfg.Replicas
	if r < 1 {
		r = 1
	}
	pw := power.Default()
	if !cfg.DynamicMachines {
		pw.IdleWatts *= float64(r) // R replica rows = R× the idle hardware
	}
	c := &Cluster{
		Ladder:  cfg.Ladder,
		Cost:    cfg.Cost,
		Net:     cfg.Net,
		Meter:   power.NewMeter(pw),
		InferMS: cfg.InferMS,
		dynamic: cfg.DynamicMachines,
		topo:    replica.Topology{Shards: cfg.NumISNs, R: r},
	}
	c.groups = c.topo.Groups()
	c.rankCands = make([]replica.Candidate, r)
	c.rankOrder = make([]int, 0, r)
	if c.dynamic {
		// The idle floor is integrated per replica row (IdleWatts is the
		// per-row package floor; a row is Shards nodes).
		c.Meter.SetDynamicIdle()
	}
	for i := 0; i < c.topo.Nodes(); i++ {
		shard := c.topo.ShardOf(i)
		speed := 1.0
		if shard < len(cfg.SpeedFactors) && cfg.SpeedFactors[shard] > 0 {
			speed = cfg.SpeedFactors[shard]
		}
		n := &ISN{ID: i, SpeedFactor: speed, active: true, offAtMS: math.Inf(1)}
		n.resetIntegrityState()
		c.ISNs = append(c.ISNs, n)
	}
	return c
}

// Shards returns the logical shard count (nodes / replicas).
func (c *Cluster) Shards() int { return c.topo.Shards }

// Replicas returns the replication factor R.
func (c *Cluster) Replicas() int { return c.topo.R }

// Topo returns the shard × replica layout.
func (c *Cluster) Topo() replica.Topology { return c.topo }

// FailedCount returns how many ISNs are currently dead.
func (c *Cluster) FailedCount() int {
	n := 0
	for i := range c.ISNs {
		if c.nodeDead(i) {
			n++
		}
	}
	return n
}

// nodeDead reports whether a node can serve at all: crashed in the fault
// injector's standing plan. That mirrors what the live path's prober
// would know; probabilistic drops and slowdowns are per-request and stay
// invisible here.
func (c *Cluster) nodeDead(node int) bool {
	return c.Faults != nil && c.Faults.Crashed(node)
}

// ShardFailed reports whether a shard has lost every replica — only then
// does the aggregator have to fall back to degraded Algorithm 1.
func (c *Cluster) ShardFailed(shard int) bool {
	for _, n := range c.groups[shard] {
		if !c.nodeDead(n) {
			return false
		}
	}
	return true
}

// FailedShardCount returns how many shards have no live replica left —
// the "missing ISNs" count degraded-mode budget assignment sees.
func (c *Cluster) FailedShardCount() int {
	n := 0
	for s := 0; s < c.topo.Shards; s++ {
		if c.ShardFailed(s) {
			n++
		}
	}
	return n
}

// LiveReplicas returns the shard's live replica node ids, replica row 0
// first (empty when the whole group is down).
func (c *Cluster) LiveReplicas(shard int) []int {
	var live []int
	for _, n := range c.groups[shard] {
		if !c.nodeDead(n) {
			live = append(live, n)
		}
	}
	return live
}

// rankShard orders the shard's replicas best-first by the shared
// selector rule. In the twin every transport signal is perfect, so the
// ranking reduces to: live replicas by current queue delay, ties by id —
// the same join-the-shortest-queue choice a live aggregator converges to
// once its EWMA warms up. The order is the cluster's scratch, valid until
// the next rankShard: every caller is done with it before ranking again.
func (c *Cluster) rankShard(shard int, tMS float64) []int {
	group := c.groups[shard]
	if len(group) == 1 {
		// A sole replica has nothing to be ordered against (the live
		// Aggregator.rankShard takes the same shortcut); only the
		// selector's exclusions apply. Its integrity sync still runs:
		// routing is what advances the quarantine state machine.
		n := group[0]
		c.syncIntegrity(n, tMS)
		if c.nodeDead(n) || !c.ISNs[n].active || c.ISNs[n].quarantined {
			return c.rankOrder[:0]
		}
		c.rankOrder = append(c.rankOrder[:0], n)
		return c.rankOrder
	}
	cands := c.rankCands[:len(group)]
	for i, n := range group {
		c.syncIntegrity(n, tMS)
		cands[i] = replica.Candidate{
			ID: n,
			// A deactivated (scaled-away) replica is as unselectable as a
			// dead one: it is draining toward power-off and takes no new
			// work.
			Failed:      c.nodeDead(n) || !c.ISNs[n].active,
			Quarantined: c.ISNs[n].quarantined,
			Healthy:     true,
			ServiceMS:   c.QueueDelayMS(n, tMS),
		}
	}
	c.rankOrder = replica.RankInto(c.rankOrder, cands)
	return c.rankOrder
}

// SelectReplica returns the best live replica for a request to shard
// arriving at tMS, or -1 when every replica is down.
func (c *Cluster) SelectReplica(shard int, tMS float64) int {
	order := c.rankShard(shard, tMS)
	if len(order) == 0 {
		return -1
	}
	return order[0]
}

// ShardQueueDelayMS returns the queueing delay the selected replica
// would impose on a request to shard at tMS (+Inf when the shard is
// down).
func (c *Cluster) ShardQueueDelayMS(shard int, tMS float64) float64 {
	n := c.SelectReplica(shard, tMS)
	if n < 0 {
		return math.Inf(1)
	}
	return c.QueueDelayMS(n, tMS)
}

// defectAlpha smooths the per-node latency-defect EWMA: heavy enough
// that a persistent straggler is flagged within a handful of requests,
// light enough that one chaos slowdown does not brand a healthy node.
const defectAlpha = 0.25

// ShardPredictedLegMS is the predictive-hedging signal for one search
// leg: Eq. 2's equivalent latency on the shard's selected replica plus
// that replica's observed latency defect. The defect term is what lets
// the prediction flag a silent straggler — a limping node with an empty
// queue looks fine to Eq. 2 but not to its own service history.
func (c *Cluster) ShardPredictedLegMS(shard int, tMS, predictedCycles, f float64) float64 {
	n := c.SelectReplica(shard, tMS)
	if n < 0 {
		return math.Inf(1)
	}
	return c.EquivalentLatencyMS(n, tMS, predictedCycles, f) + c.ISNs[n].defectMS
}

// ClearFaults drops the fault injector (every crash, drop and slowdown)
// and all pending (undetected) corruption; quarantined nodes are
// re-admitted on the spot. The accumulated integrity ledger is
// statistics, not fault state, so it survives (Reset clears it).
func (c *Cluster) ClearFaults() {
	c.Faults = nil
	for _, node := range c.ISNs {
		node.resetIntegrityState()
		node.rotQueue = nil
	}
	c.Rot = nil
}

// EffectiveCycles returns the cycle cost of a request on ISN isn,
// including its speed factor. Everything that predicts or schedules work
// for an ISN must go through this so predictions and execution agree.
func (c *Cluster) EffectiveCycles(isn int, cycles float64) float64 {
	return cycles * c.ISNs[isn].SpeedFactor
}

// NowMS returns the latest simulated time the cluster has seen.
func (c *Cluster) NowMS() float64 { return c.nowMS }

// observe advances the cluster's notion of the horizon.
func (c *Cluster) observe(tMS float64) {
	c.accrueTo(tMS)
	if tMS > c.nowMS {
		c.nowMS = tMS
	}
}

// accrueTo integrates powered-on node time along the virtual-time axis
// up to tMS (dynamic-machines mode only). A deactivated node counts
// until its offAtMS — deactivation drains before it powers down. The
// integration advances monotonically: events that land behind the
// accrual point (a finish time already seen) add nothing.
func (c *Cluster) accrueTo(tMS float64) {
	if !c.dynamic || tMS <= c.accruedToMS {
		return
	}
	nodeMS := 0.0
	for _, n := range c.ISNs {
		end := tMS
		if !n.active && n.offAtMS < end {
			end = n.offAtMS
		}
		if end > c.accruedToMS {
			nodeMS += end - c.accruedToMS
		}
	}
	c.machineNodeMS += nodeMS
	// IdleWatts is calibrated per replica row (= Shards nodes).
	c.Meter.AddIdleMachineMS(nodeMS / float64(c.topo.Shards))
	c.accruedToMS = tMS
}

// TotalActiveNodes returns the number of powered-on, work-accepting
// nodes across the fleet.
func (c *Cluster) TotalActiveNodes() int {
	n := 0
	for _, node := range c.ISNs {
		if node.active {
			n++
		}
	}
	return n
}

// SetActiveReplicas scales a shard to r active replica rows at virtual
// time tMS, clamped to [1, R]. Scaling down deactivates the highest
// rows first; a deactivated node stops receiving new work immediately
// but drains its queued backlog before powering down (graceful drain —
// its in-flight responses still arrive, and its idle power runs until
// the drain completes). Scaling up reactivates rows instantly; the
// twin's stand-in for a machine whose spin-up latency is below the
// replan cadence. No-op outside dynamic-machines mode.
func (c *Cluster) SetActiveReplicas(shard, r int, tMS float64) {
	if !c.dynamic {
		return
	}
	if r < 1 {
		r = 1
	}
	if r > c.topo.R {
		r = c.topo.R
	}
	c.accrueTo(tMS)
	group := c.groups[shard]
	for row, nodeID := range group {
		n := c.ISNs[nodeID]
		if row < r {
			if !n.active {
				n.active = true
				n.offAtMS = math.Inf(1)
			}
			continue
		}
		if n.active {
			n.active = false
			n.offAtMS = tMS
			if n.freeAtMS > tMS {
				n.offAtMS = n.freeAtMS
			}
		}
	}
}

// SetAllActiveReplicas scales every shard to one active replica row at
// virtual time 0, the state an autoscaled run starts from.
func (c *Cluster) SetAllActiveReplicas() {
	for s := 0; s < c.topo.Shards; s++ {
		c.SetActiveReplicas(s, 1, 0)
	}
}

// MachineMS returns the fleet's integrated machine time in node·ms —
// the machine-hours bill an autoscaled run is judged by. In static
// mode every node is on for the whole horizon.
func (c *Cluster) MachineMS() float64 {
	if !c.dynamic {
		return c.nowMS * float64(len(c.ISNs))
	}
	// Include the un-accrued tail and pending drains up to the horizon.
	tail := 0.0
	for _, n := range c.ISNs {
		end := c.nowMS
		if !n.active && n.offAtMS < end {
			end = n.offAtMS
		}
		if end > c.accruedToMS {
			tail += end - c.accruedToMS
		}
	}
	return c.machineNodeMS + tail
}

// QueueDelayMS returns how long a request arriving at the ISN at tMS
// waits before service starts (time until the node frees up).
func (c *Cluster) QueueDelayMS(isn int, tMS float64) float64 {
	d := c.ISNs[isn].freeAtMS - tMS
	if d < 0 {
		return 0
	}
	return d
}

// EquivalentLatencyMS implements the paper's Eq. 2: the latency a request
// with predictedCycles of work would see at ISN isn running at frequency
// f, including the backlog already queued there. The backlog term uses
// the queue's cycle content, matching the paper's sum of predicted
// service times.
func (c *Cluster) EquivalentLatencyMS(isn int, tMS, predictedCycles, f float64) float64 {
	backlogMS := c.QueueDelayMS(isn, tMS)
	return backlogMS + ServiceMS(predictedCycles, f)
}

// LegStatus is how one shard leg ended, in the one vocabulary both
// serving paths share: the twin's Execute classifies every attempt with
// it, the live aggregator's legs set it, and engine.Gather files legs by
// it. The statuses before LegFailed reached a node, which ran the work
// or (LegCorrupt) bounced it; those from LegCorrupt on lost the attempt,
// so a replicated shard fails over past them.
type LegStatus uint8

const (
	LegAnswered  LegStatus = iota // complete hits
	LegTruncated                  // anytime leg cut at the budget: exact but partial hits
	LegDropped                    // missed the budget with nothing to show
	LegCorrupt                    // every replica bounced it on integrity grounds
	LegFailed                     // no reply: a dead group, or every attempt errored
	LegSevered                    // the node ran it, but a dropped connection lost the reply
	LegShed                       // rejected by admission control
)

// Execution reports what happened when an ISN processed a request. The
// caller owns it: Execute, ExecuteShard and ExecuteShardHedged write
// their attempt into an Execution passed in, every field each time, so
// one value can serve a whole replay.
type Execution struct {
	ISN       int
	StartMS   float64 // service start (after queueing)
	FinishMS  float64 // service end (possibly truncated by deadline)
	ServiceMS float64 // actual busy time charged
	Freq      float64
	// Status is how the attempt ended. Execute sets LegAnswered,
	// LegDropped (the deadline cut the work off), LegSevered (an injected
	// connection drop or corrupted reply: the node did the work and
	// burned the power, but the reply never reached the aggregator, which
	// notices the severed stream after one network round trip), LegFailed
	// (a dead node or an injected crash: no work, no reply), LegShed (the
	// queue already exceeded MaxQueueMS on arrival: an immediate
	// rejection, no work) or LegCorrupt (the node's integrity plane
	// bounced it: its copy is quarantined, or the request tripped the
	// query-time checksum gate on fresh rot — a typed rejection after one
	// hop, and the corrupted copy never contributes hits).
	Status LegStatus
	// WorkFrac is the fraction of the request's full service time the
	// node performed before the deadline cut it off (1 when the work
	// completed). Anytime-mode callers replay the truncated traversal
	// against this fraction of the full cycle budget to recover the
	// partial answer.
	WorkFrac float64
	QueueMS  float64
	// Shard and Replica locate the execution in the replica topology
	// (Shard == ISN and Replica == 0 on the unreplicated node-level path).
	Shard   int
	Replica int
	// Failovers counts how many sibling replicas ExecuteShard burned
	// through before this attempt (0 = first choice answered).
	Failovers int
}

// Execute schedules a request on ISN isn: it arrives at tMS (aggregator
// clock), costs cycles at frequency f, and must finish by deadlineMS
// (absolute; +Inf for none). If the work cannot finish by the deadline the
// ISN still spends the truncated busy time (it worked until the budget
// expired, as in step 6 of the paper's protocol) but the execution is
// LegDropped and its results are dropped by the aggregator.
//
// Inference overhead (quality+latency predictors, step 2) is charged as
// busy time at the default frequency before service.
//
// The attempt is written into ex, every field: nothing an earlier
// attempt left there survives, and Failovers is 0.
func (c *Cluster) Execute(ex *Execution, isn int, tMS, cycles, f, deadlineMS float64) {
	if f <= 0 {
		panic("cluster: non-positive frequency")
	}
	node := c.ISNs[isn]
	arrive := tMS + c.Net.AggToISNMS
	if c.nodeDead(isn) {
		// The request is lost; the node does no work and burns no power.
		c.endOnArrival(ex, isn, arrive, f, LegFailed)
		return
	}
	// Integrity gate: a quarantined copy refuses the request outright,
	// and undetected rot is caught the moment a query reads the bad
	// block — the checksum verifies before any scoring, so a corrupted
	// posting is never served. Either way the aggregator gets a typed
	// rejection after one hop (no index work, no power) and fails over.
	c.syncIntegrity(isn, arrive)
	if !node.quarantined && node.corruptAtMS <= arrive {
		c.quarantineNode(isn, arrive, false)
	}
	if node.quarantined {
		c.integ.corruptRejects++
		c.endOnArrival(ex, isn, arrive, f, LegCorrupt)
		return
	}
	// Per-request chaos from the seeded schedule (a crashed node never
	// gets here): a drop or corrupt verdict lets the work proceed (the
	// server keeps serving a severed connection) but the reply never
	// lands; a slowdown stretches service time.
	injDelayMS, dropped := 0.0, false
	if c.Faults != nil {
		d := c.Faults.OnRequest(isn)
		injDelayMS = d.DelayMS
		dropped = d.Kind == faults.Drop || d.Kind == faults.Corrupt
	}
	if qd := c.QueueDelayMS(isn, arrive); c.MaxQueueMS > 0 && qd > c.MaxQueueMS {
		// Admission control: the backlog already exceeds the queue bound.
		// In anytime mode a request that can still start before its
		// deadline is admitted anyway — it will answer truncated at the
		// budget, which beats an outright rejection. Otherwise the ISN
		// sheds it immediately — no work, no power, and the aggregator
		// gets the rejection after one network hop.
		if !c.Anytime || arrive+qd >= deadlineMS {
			c.endOnArrival(ex, isn, arrive, f, LegShed)
			return
		}
	}
	start := arrive
	if node.freeAtMS > start {
		start = node.freeAtMS
	}
	full := ServiceMS(cycles, f) + injDelayMS
	node.defectMS += defectAlpha * (injDelayMS - node.defectMS)
	finish := start + full
	busy := full
	status := LegAnswered
	workFrac := 1.0
	if finish > deadlineMS {
		// Work until the budget expires, then abandon (or, in anytime
		// mode, answer with whatever the truncated traversal found).
		status = LegDropped
		if deadlineMS > start {
			busy = deadlineMS - start
			finish = deadlineMS
		} else {
			busy = 0
			finish = start
		}
		workFrac = 0
		if full > 0 {
			workFrac = busy / full
		}
	}
	node.freeAtMS = finish
	node.BusyMS += busy + c.InferMS
	node.QueriesServed++
	c.Meter.AddBusy(f, busy)
	if c.InferMS > 0 {
		c.Meter.AddBusy(c.Ladder.Max(), c.InferMS)
	}
	c.observe(finish)
	if dropped {
		// Finished or not, the reply is lost on the severed stream.
		status = LegSevered
	}
	c.record(ex, isn, start, finish, busy, start-arrive, f, workFrac, status)
}

// endOnArrival records an attempt on node isn that ended when it
// arrived at arriveMS: no queueing, no work, no power.
func (c *Cluster) endOnArrival(ex *Execution, isn int, arriveMS, f float64, status LegStatus) {
	c.observe(arriveMS)
	c.record(ex, isn, arriveMS, arriveMS, 0, 0, f, 0, status)
}

// record writes one attempt on node isn into ex, every field, so storage
// reused across attempts keeps nothing from an earlier one; Failovers
// is 0.
func (c *Cluster) record(ex *Execution, isn int, startMS, finishMS, serviceMS, queueMS, f, workFrac float64, status LegStatus) {
	ex.ISN, ex.Shard, ex.Replica, ex.Failovers = isn, c.topo.ShardOf(isn), c.topo.ReplicaOf(isn), 0
	ex.StartMS, ex.FinishMS, ex.ServiceMS, ex.QueueMS = startMS, finishMS, serviceMS, queueMS
	ex.Freq, ex.Status, ex.WorkFrac = f, status, workFrac
}

// ExecuteShard schedules a request on a shard's best live replica and
// fails over to siblings in virtual time: when an attempt is lost (dead
// node, injected crash or drop — detected as a connection reset one
// network round trip after send) or shed by admission control (rejected
// after one round trip), the next-ranked replica gets the retry with
// whatever deadline remains. Degraded Algorithm 1 is the caller's last
// resort for when the loop exhausts the whole group. The attempt that
// ended the leg is written into ex, with the serving replica and the
// failover count; for a shard with no live replica it reports LegFailed
// after one detection round trip, like a node-level send to a dead ISN.
func (c *Cluster) ExecuteShard(ex *Execution, shard int, tMS, cycles, f, deadlineMS float64) {
	order := c.rankShard(shard, tMS)
	if len(order) == 0 {
		// An empty group can mean two very different things: every
		// replica dead (silence, then a reset — LegFailed) or every live
		// replica quarantined mid-repair (a typed CodeQuarantined bounce
		// after one hop — the aggregator knows precisely why the shard's
		// contribution is missing, and that it is temporary).
		status := LegFailed
		if c.groupQuarantined(shard) {
			status = LegCorrupt
			c.integ.corruptRejects++
		}
		c.endOnArrival(ex, c.topo.Node(shard, 0), tMS+c.Net.AggToISNMS, f, status)
		return
	}
	sendMS := tMS
	for attempt, node := range order {
		c.Execute(ex, node, sendMS, cycles, f, deadlineMS)
		ex.Failovers = attempt
		if ex.Status < LegCorrupt {
			return
		}
		// Detection: a reset (failed/dropped) or rejection (shed) reaches
		// the aggregator one hop after the attempt's send arrived. A
		// dropped request keeps its node busy, but the client's reset
		// fires at arrival, not service completion.
		arriveMS := ex.StartMS - ex.QueueMS
		sendMS = arriveMS + c.Net.AggToISNMS
		if sendMS >= deadlineMS {
			break // no budget left to retry a sibling; ex holds the last attempt
		}
	}
}

// HedgeResult reports what the hedging layer did for one shard request.
type HedgeResult struct {
	// Hedged is true when a duplicate copy of the request was sent.
	Hedged bool
	// Won is true when the hedge's response reached the aggregator
	// strictly before the primary's (ties go to the primary).
	Won bool
	// DuplicateMS is the busy time the losing copy burned — pure waste,
	// the cost side of the hedging trade. The twin models no
	// cancellation, so the full duplicate service time is charged; real
	// deployments that cancel the loser would waste less, making this an
	// upper bound that keeps the duplicate-work cost visible.
	DuplicateMS float64
}

// ExecuteShardHedged is ExecuteShard plus hedged requests: if the
// primary attempt's response would reach the aggregator later than
// tMS + hedgeDelayMS, a full duplicate is sent at that instant to the
// shard's next-best active live replica, and the earlier response wins.
// hedgeDelayMS = 0 models predictive hedging (the caller already
// decided this request looks like a straggler, so the duplicate goes
// out immediately); hedgeDelayMS < 0 or +Inf disables hedging. Both
// copies' work and power are charged — see HedgeResult.DuplicateMS. The
// winning attempt is written into ex, with the primary's failover count.
func (c *Cluster) ExecuteShardHedged(ex *Execution, shard int, tMS, cycles, f, deadlineMS, hedgeDelayMS float64) HedgeResult {
	c.ExecuteShard(ex, shard, tMS, cycles, f, deadlineMS)
	var hr HedgeResult
	if hedgeDelayMS < 0 || math.IsInf(hedgeDelayMS, 1) {
		return hr
	}
	if ex.Status >= LegCorrupt {
		// ExecuteShard already burned through the group's failover legs;
		// there is no healthier sibling left for a hedge to reach.
		return hr
	}
	hedgeAt := tMS + hedgeDelayMS
	if c.ResponseAtAggregatorMS(ex) <= hedgeAt {
		return hr // primary answered before the hedge timer fired
	}
	// Next-best active live replica, excluding the primary's server.
	hedgeNode := -1
	for _, n := range c.rankShard(shard, hedgeAt) {
		if n != ex.ISN {
			hedgeNode = n
			break
		}
	}
	if hedgeNode < 0 {
		return hr // R=1 or siblings all down: nowhere to hedge
	}
	hr.Hedged = true
	var hedge Execution
	c.Execute(&hedge, hedgeNode, hedgeAt, cycles, f, deadlineMS)
	if hedge.Status >= LegCorrupt {
		hr.DuplicateMS = hedge.ServiceMS
		return hr
	}
	if c.ResponseAtAggregatorMS(&hedge) < c.ResponseAtAggregatorMS(ex) {
		hr.Won = true
		hr.DuplicateMS = ex.ServiceMS
		hedge.Failovers = ex.Failovers
		*ex = hedge
		return hr
	}
	hr.DuplicateMS = hedge.ServiceMS
	return hr
}

// ResponseAtAggregatorMS is when the aggregator holds the ISN's response.
func (c *Cluster) ResponseAtAggregatorMS(e *Execution) float64 {
	return e.FinishMS + c.Net.AggToISNMS
}

// FailoverDelayMS is how much later than the original dispatch the
// winning attempt's request actually left the aggregator — the time the
// query spent detecting dead/shedding siblings (or waiting for a hedge
// timer) before the leg that answered was even sent. Derived from the
// execution's own timestamps: the attempt's send instant is its ISN
// arrival (StartMS − QueueMS) minus one network hop.
func (c *Cluster) FailoverDelayMS(e *Execution, dispatchMS float64) float64 {
	sendMS := e.StartMS - e.QueueMS - c.Net.AggToISNMS
	d := sendMS - dispatchMS
	if d < 0 {
		return 0
	}
	return d
}

// AveragePowerWatts reports mean package power over the simulated horizon.
func (c *Cluster) AveragePowerWatts() float64 {
	if c.nowMS <= 0 {
		return c.Meter.Model().IdleWatts
	}
	return c.Meter.AveragePowerWatts(c.nowMS)
}

// Utilization returns the mean busy fraction over the horizon; in
// dynamic-machines mode the denominator is the integrated powered-on
// machine time, so a well-scaled fleet shows *higher* utilization than
// the same load on a static fleet.
func (c *Cluster) Utilization() float64 {
	if c.nowMS <= 0 {
		return 0
	}
	total := 0.0
	for _, n := range c.ISNs {
		total += n.BusyMS
	}
	denom := c.nowMS * float64(len(c.ISNs))
	if c.dynamic {
		denom = c.MachineMS()
	}
	if denom <= 0 {
		return 0
	}
	return total / denom
}

// Reset returns the cluster to its initial state, keeping configuration.
func (c *Cluster) Reset() {
	for _, n := range c.ISNs {
		n.freeAtMS = 0
		n.BusyMS = 0
		n.QueriesServed = 0
		n.active = true
		n.offAtMS = math.Inf(1)
		n.defectMS = 0
		n.resetIntegrityState()
	}
	c.dealRot()
	c.Meter.Reset()
	c.integ = integrityTotals{}
	c.nowMS = 0
	c.accruedToMS = 0
	c.machineNodeMS = 0
}
