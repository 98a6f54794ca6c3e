package main

import (
	"context"
	"net"
	"path/filepath"
	"testing"

	"cottage/internal/index"
	"cottage/internal/integrity"
	"cottage/internal/rpc"
)

// testShard builds a small sealed shard; shards of different ids hold
// different documents.
func testShard(t *testing.T, id int) *index.Shard {
	t.Helper()
	b := index.NewBuilder(id, index.DefaultBM25(), 10)
	vocab := []string{"alpha", "beta", "gamma", "delta"}
	for d := 0; d < 40; d++ {
		terms := make(map[string]int, len(vocab))
		for i, v := range vocab {
			if tf := (d + i + id) % 3; tf > 0 {
				terms[v] = tf
			}
		}
		b.Add(int64(100*id+d), terms, 10)
	}
	return b.Finalize()
}

// servePeer serves s on a loopback port until the test ends.
func servePeer(t *testing.T, s *index.Shard) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &rpc.Server{Shard: s}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	t.Cleanup(func() {
		srv.Shutdown(context.Background())
		<-served
	})
	return l.Addr().String()
}

// TestRepairSkipsWrongShardPeer: a -repair-peer list whose first
// sibling serves another partition must still repair from the second,
// instead of returning the foreign shard for the manager to refuse and
// leaving the replica quarantined.
func TestRepairSkipsWrongShardPeer(t *testing.T) {
	own, other := testShard(t, 0), testShard(t, 1)
	peers := servePeer(t, other) + "," + servePeer(t, own)
	noDisk := filepath.Join(t.TempDir(), "missing.shard")
	m := integrity.NewManager(integrity.Config{ShardID: own.ID, Fetch: repairFetch(peers, noDisk, own)}, own)
	m.Quarantine(10, "test", nil)
	if err := m.Repair(20); err != nil {
		t.Fatalf("repair with a right peer behind a wrong one: %v", err)
	}
	if got := m.Shard(); got == nil || got.Digest != own.Digest {
		t.Fatal("the replica was not re-admitted with its own shard")
	}
}
