package cluster

import "math"

// Virtual-time data integrity: the twin's model of at-rest rot,
// quarantine and self-repair, mirroring the live path's integrity plane
// (index block checksums, the rpc quarantine gate, and the
// internal/integrity scrubber/repair supervisor) so harness sweeps can
// measure detection latency, MTTR and quality-under-repair on the
// deterministic virtual clock.
//
// The model: CorruptISN (or a faults.CorruptionSchedule) lands silent
// rot on one node's shard copy at a virtual instant, positioned at a
// fraction of the way through its postings. The rot is detected by
// whichever comes first —
//
//   - a query routed to the node at or after the rot instant: the
//     query-time checksum gate refuses to score the mismatched block,
//     the node answers with an immediate typed rejection
//     (Execution.CorruptReject, the twin's CodeQuarantined), and the
//     shard-level failover retries a sibling; or
//   - the background scrubber: its cursor sweeps the whole copy every
//     ScrubEpochMS, so it reaches the rotted block at a computable
//     instant no more than one epoch after the rot lands.
//
// Either way the node is quarantined — excluded from replica selection
// outright, below breaker-open, exactly like the live selector — and,
// when RepairMS > 0, re-admitted RepairMS later (re-fetching verified
// bytes from a healthy sibling, or re-reading disk when none is left).
// The invariant the live plane enforces with CRC32C holds here by
// construction: a corrupted copy never contributes hits to any query.

// IntegrityStats is the twin's corruption/repair ledger snapshot.
type IntegrityStats struct {
	// Corruptions is how many rot events landed (CorruptISN calls that
	// took effect).
	Corruptions int
	// QueryDetections and ScrubDetections split detections by who found
	// the rot first.
	QueryDetections int
	ScrubDetections int
	// Quarantines counts quarantine transitions; Repairs counts
	// re-admissions.
	Quarantines int
	Repairs     int
	// CorruptRejects counts requests bounced by a quarantined or
	// rot-detecting node (each bounce is one failover the query had to
	// absorb).
	CorruptRejects int
	// MeanDetectionMS averages rot-landing to detection; MeanMTTRMS
	// averages detection to re-admission. Zero when nothing detected or
	// repaired.
	MeanDetectionMS float64
	MeanMTTRMS      float64
}

// integrityTotals is the cluster-level accumulator behind IntegrityStats.
type integrityTotals struct {
	corruptions     int
	queryDetections int
	scrubDetections int
	quarantines     int
	repairs         int
	corruptRejects  int
	detectTotalMS   float64
	mttrTotalMS     float64
}

// CorruptISN lands silent at-rest rot on a node's shard copy at virtual
// time tMS, offsetFrac (clamped to [0, 1)) of the way through its
// postings. A node with rot already pending keeps the earlier event; a
// quarantined node ignores new rot — its bytes are about to be replaced
// wholesale by the repair.
func (c *Cluster) CorruptISN(node int, tMS, offsetFrac float64) {
	n := c.ISNs[node]
	if n.quarantined {
		return
	}
	if offsetFrac < 0 {
		offsetFrac = 0
	}
	if offsetFrac >= 1 {
		offsetFrac = math.Nextafter(1, 0)
	}
	if tMS >= n.corruptAtMS {
		return
	}
	n.corruptAtMS = tMS
	n.corruptFrac = offsetFrac
	c.integ.corruptions++
}

// NodeQuarantined reports whether a node is currently out of service
// for data integrity (advance state with tMS first via any routing
// call; this is a pure read).
func (c *Cluster) NodeQuarantined(node int) bool { return c.ISNs[node].quarantined }

// groupQuarantined reports whether shard's replica group is unservable
// specifically because every live member is quarantined (at least one
// member must be alive — an all-dead group is a failure, not a bounce).
func (c *Cluster) groupQuarantined(shard int) bool {
	alive := false
	for _, n := range c.groups[shard] {
		if c.nodeDead(n) || !c.ISNs[n].active {
			continue
		}
		if !c.ISNs[n].quarantined {
			return false
		}
		alive = true
	}
	return alive
}

// QuarantinedCount returns how many nodes are currently quarantined.
func (c *Cluster) QuarantinedCount() int {
	n := 0
	for _, node := range c.ISNs {
		if node.quarantined {
			n++
		}
	}
	return n
}

// IntegrityStats snapshots the corruption/repair ledger.
func (c *Cluster) IntegrityStats() IntegrityStats {
	st := IntegrityStats{
		Corruptions:     c.integ.corruptions,
		QueryDetections: c.integ.queryDetections,
		ScrubDetections: c.integ.scrubDetections,
		Quarantines:     c.integ.quarantines,
		Repairs:         c.integ.repairs,
		CorruptRejects:  c.integ.corruptRejects,
	}
	if d := c.integ.queryDetections + c.integ.scrubDetections; d > 0 {
		st.MeanDetectionMS = c.integ.detectTotalMS / float64(d)
	}
	if c.integ.repairs > 0 {
		st.MeanMTTRMS = c.integ.mttrTotalMS / float64(c.integ.repairs)
	}
	return st
}

// scrubDetectMS returns when the scrubber's cursor first reaches the
// rotted block at corruptFrac after the rot lands at corruptAtMS. The
// cursor starts at offset 0 at t=0 and sweeps the whole copy every
// ScrubEpochMS, so detection lags the rot by less than one full epoch.
// +Inf when scrubbing is off.
func (c *Cluster) scrubDetectMS(corruptAtMS, frac float64) float64 {
	if c.ScrubEpochMS <= 0 {
		return math.Inf(1)
	}
	e := c.ScrubEpochMS
	t := (math.Floor(corruptAtMS/e) + frac) * e
	if t < corruptAtMS {
		t += e
	}
	return t
}

// quarantineNode transitions a node to quarantined at detectMS and
// schedules its repair. Repair is always schedulable when RepairMS > 0:
// a healthy sibling serves verified shard bytes over the transfer verb,
// and a lone (or fully rotted) group falls back to re-reading and
// re-verifying its own disk copy.
func (c *Cluster) quarantineNode(node int, detectMS float64, byScrub bool) {
	n := c.ISNs[node]
	if n.quarantined {
		return
	}
	n.quarantined = true
	n.quarantinedAtMS = detectMS
	c.integ.quarantines++
	c.integ.detectTotalMS += detectMS - n.corruptAtMS
	if byScrub {
		c.integ.scrubDetections++
	} else {
		c.integ.queryDetections++
	}
	if c.RepairMS > 0 {
		n.repairAtMS = detectMS + c.RepairMS
	} else {
		n.repairAtMS = math.Inf(1)
	}
}

// dealRot distributes the cluster's scheduled rot events (Cluster.Rot,
// already time-sorted) into per-node queues. Reset calls it, so a
// schedule installed before a run replays identically on every run.
func (c *Cluster) dealRot() {
	for _, n := range c.ISNs {
		n.rotQueue = n.rotQueue[:0]
	}
	for _, ev := range c.Rot {
		if ev.Node >= 0 && ev.Node < len(c.ISNs) {
			n := c.ISNs[ev.Node]
			n.rotQueue = append(n.rotQueue, ev)
		}
	}
}

// syncIntegrity advances a node's integrity state machine to tMS,
// replaying its transitions — scheduled rot landing, scrub detection,
// repair completion — in virtual-time order. Called from every routing
// and execution path before the node's state is consulted, so time only
// ever moves the machine forward deterministically.
func (c *Cluster) syncIntegrity(node int, tMS float64) {
	n := c.ISNs[node]
	for {
		if n.quarantined {
			// Scheduled rot landing before the repair completes is moot:
			// the repair replaces the whole copy.
			cut := math.Min(n.repairAtMS, tMS)
			for len(n.rotQueue) > 0 && n.rotQueue[0].TimeMS <= cut {
				n.rotQueue = n.rotQueue[1:]
			}
			if n.repairAtMS > tMS {
				return
			}
			n.quarantined = false
			c.integ.repairs++
			c.integ.mttrTotalMS += n.repairAtMS - n.quarantinedAtMS
			n.corruptAtMS = math.Inf(1)
			n.corruptFrac = 0
			n.repairAtMS = math.Inf(1)
			continue
		}
		det := c.scrubDetectMS(n.corruptAtMS, n.corruptFrac)
		if len(n.rotQueue) > 0 && n.rotQueue[0].TimeMS <= tMS && n.rotQueue[0].TimeMS < det {
			ev := n.rotQueue[0]
			n.rotQueue = n.rotQueue[1:]
			c.CorruptISN(node, ev.TimeMS, ev.OffsetFrac)
			continue
		}
		if det <= tMS {
			c.quarantineNode(node, det, true)
			continue
		}
		return
	}
}

// resetIntegrityState returns a node's integrity fields to pristine.
func (n *ISN) resetIntegrityState() {
	n.corruptAtMS = math.Inf(1)
	n.corruptFrac = 0
	n.quarantined = false
	n.quarantinedAtMS = 0
	n.repairAtMS = math.Inf(1)
}
