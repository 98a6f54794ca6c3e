// Package replica adds shard replication to the partition-aggregate
// tier: each logical shard is served by R interchangeable replicas, and
// the aggregator routes every per-query leg (prediction, search) to the
// best live replica instead of the one-and-only ISN. Replication is the
// classic unit of both availability and capacity in production search
// (tail-tolerant distributed search keeps hedges and failovers inside a
// replica group; capacity planning provisions whole replica rows), and
// it is what turns Cottage's degraded Algorithm 1 from the first
// response to node loss into the last resort: a failed replica costs a
// failover, not a shard.
//
// The package is deliberately transport-free. It provides
//
//   - Topology: the shard × replica layout and its node numbering,
//     shared by the simulated cluster (internal/cluster) and the CLI
//     address grouping (ParseGroups / GroupFlat);
//   - Candidate/RankInto: the replica selector — a deterministic,
//     allocation-free ranking over per-replica health signals (breaker
//     state, prober health, rolling service time, predictor accuracy)
//     that never selects a failed replica and never panics on empty
//     groups (fuzzed by FuzzReplicaSelect, through Rank);
//   - Tracker: a lock-free rolling EWMA of per-replica service time,
//     the selector's latency signal on the live path.
//
// Both serving substrates consume it: rpc.Aggregator fans out over
// replica groups of real TCP clients, and cluster.Cluster replays the
// same selection rule over simulated nodes in virtual time.
package replica

import (
	"fmt"
	"strings"
)

// Topology is the shard × replica layout. Node (and client) numbering
// is row-major by replica: node = r*Shards + shard, so replica row 0 is
// the familiar unreplicated fleet and each further row is one more copy
// of it. The zero value is invalid; R < 1 is treated as 1 everywhere.
type Topology struct {
	// Shards is the number of logical shards (the paper's 16 ISNs).
	Shards int
	// R is the replication factor: how many interchangeable copies serve
	// each shard.
	R int
}

// Validate checks the layout.
func (t Topology) Validate() error {
	if t.Shards <= 0 {
		return fmt.Errorf("replica: non-positive shard count %d", t.Shards)
	}
	if t.R < 1 {
		return fmt.Errorf("replica: replication factor %d < 1", t.R)
	}
	return nil
}

// Nodes is the total node count (Shards × R).
func (t Topology) Nodes() int {
	r := t.R
	if r < 1 {
		r = 1
	}
	return t.Shards * r
}

// Node returns the node id of shard s's replica r (row-major layout).
func (t Topology) Node(shard, r int) int { return r*t.Shards + shard }

// ShardOf returns which shard a node serves.
func (t Topology) ShardOf(node int) int { return node % t.Shards }

// ReplicaOf returns which replica row a node sits in.
func (t Topology) ReplicaOf(node int) int { return node / t.Shards }

// Group returns shard's replica node ids, replica row 0 first.
func (t Topology) Group(shard int) []int {
	r := t.R
	if r < 1 {
		r = 1
	}
	g := make([]int, r)
	for i := range g {
		g[i] = t.Node(shard, i)
	}
	return g
}

// Groups returns every shard's replica group (index = shard).
func (t Topology) Groups() [][]int {
	out := make([][]int, t.Shards)
	for s := range out {
		out[s] = t.Group(s)
	}
	return out
}

// ParseGroups parses a replica-aware address list: shard groups are
// separated by ';', replicas of one shard by ','. Whitespace around
// addresses is trimmed; empty addresses are rejected.
//
//	"a:1,b:1;c:1,d:1"  →  [[a:1 b:1] [c:1 d:1]]   (2 shards × 2 replicas)
//
// A list with no ';' is one flat group per address (the unreplicated
// layout every earlier CLI accepted).
func ParseGroups(s string) ([][]string, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("replica: empty address list")
	}
	var groups [][]string
	if !strings.Contains(s, ";") {
		for _, a := range strings.Split(s, ",") {
			a = strings.TrimSpace(a)
			if a == "" {
				return nil, fmt.Errorf("replica: empty address in %q", s)
			}
			groups = append(groups, []string{a})
		}
		return groups, nil
	}
	for gi, g := range strings.Split(s, ";") {
		var members []string
		for _, a := range strings.Split(g, ",") {
			a = strings.TrimSpace(a)
			if a == "" {
				return nil, fmt.Errorf("replica: empty address in group %d of %q", gi, s)
			}
			members = append(members, a)
		}
		if len(members) == 0 {
			return nil, fmt.Errorf("replica: empty group %d in %q", gi, s)
		}
		groups = append(groups, members)
	}
	return groups, nil
}

// GroupFlat groups a flat address list by the row-major topology: with
// replicas R, the first len/R addresses are replica row 0 (one per
// shard), the next len/R are row 1, and so on — the layout you get by
// starting the whole server fleet once per replica row. The address
// count must divide evenly by R.
func GroupFlat(addrs []string, replicas int) ([][]string, error) {
	if replicas < 1 {
		replicas = 1
	}
	if len(addrs) == 0 {
		return nil, fmt.Errorf("replica: empty address list")
	}
	if len(addrs)%replicas != 0 {
		return nil, fmt.Errorf("replica: %d addresses do not divide into %d replica rows", len(addrs), replicas)
	}
	shards := len(addrs) / replicas
	t := Topology{Shards: shards, R: replicas}
	groups := make([][]string, shards)
	for s := 0; s < shards; s++ {
		for r := 0; r < replicas; r++ {
			groups[s] = append(groups[s], addrs[t.Node(s, r)])
		}
	}
	return groups, nil
}
