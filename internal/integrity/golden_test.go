package integrity

import (
	"fmt"
	"net/http/httptest"
	"os"
	"testing"

	"cottage/internal/index"
)

// TestSnapshotGolden pins the exact /debug/integrity bytes Handler
// serves for one Manager at four points of its life: fresh, after a
// query-gate detection, after a rejected corrupt transfer, and after a
// repair. The bytes were captured before the Manager kept its own state.
func TestSnapshotGolden(t *testing.T) {
	s := buildShard(t, 9)
	m := NewManager(Config{ShardID: 9, Replica: 2}, s)
	serve := func() string {
		rr := httptest.NewRecorder()
		Handler(m.Snapshot).ServeHTTP(rr, httptest.NewRequest("GET", "/debug/integrity", nil))
		return rr.Body.String()
	}
	var got []string
	got = append(got, serve())
	term, _ := corruptOneBlock(t, s)
	if err := m.VerifyQuery([]string{term}, 40); !index.IsCorruption(err) {
		t.Fatalf("corruption missed: %v", err)
	}
	got = append(got, serve())
	if err := repairFrom(m, 70, func() (*index.Shard, error) {
		bad := buildShard(t, 9)
		corruptOneBlock(t, bad)
		return bad, nil
	}); !index.IsCorruption(err) {
		t.Fatalf("corrupt transfer accepted: %v", err)
	}
	got = append(got, serve())
	if err := repairFrom(m, 340, func() (*index.Shard, error) { return buildShard(t, 9), nil }); err != nil {
		t.Fatalf("repair: %v", err)
	}
	got = append(got, serve())
	for i, g := range got {
		want, err := os.ReadFile(fmt.Sprintf("testdata/snapshot-%d.json", i))
		if err != nil {
			t.Fatal(err)
		}
		if g != string(want) {
			t.Errorf("point %d: /debug/integrity served\n%s\nwant\n%s", i, g, want)
		}
	}
}
