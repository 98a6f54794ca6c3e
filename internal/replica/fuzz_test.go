package replica

import (
	"math"
	"slices"
	"testing"

	"cottage/internal/overload"
)

// FuzzReplicaSelect drives RankInto with arbitrary health, breaker,
// service and accuracy observations and checks the selector's two hard
// guarantees: it never selects a failed replica, and it never panics —
// including on empty and all-failed groups. It ranks into a reused
// destination holding stale IDs, with a capacity anywhere from 0 to the
// group size, as both transports do, and checks that the order is the
// one a fresh destination gets.
func FuzzReplicaSelect(f *testing.F) {
	f.Add(0, uint64(0), int64(0), int64(0))
	f.Add(3, uint64(0b101010), int64(12), int64(99))
	f.Add(8, ^uint64(0), int64(-1), int64(1<<62))
	f.Add(5, uint64(7), int64(math.MaxInt64), int64(math.MinInt64))
	f.Fuzz(func(t *testing.T, n int, flags uint64, svcBits, errBits int64) {
		if n < 0 {
			n = -n
		}
		n %= 32
		cands := make([]Candidate, n)
		failed := make(map[int]bool, n)
		for i := range cands {
			// Two flag bits per candidate: failed, healthy. Breaker state,
			// service time and accuracy are derived so they vary per slot and
			// include NaN/negative/out-of-range values.
			fbit := flags>>(uint(2*i)%64)&1 == 1
			hbit := flags>>(uint(2*i+1)%64)&1 == 1
			svc := math.Float64frombits(uint64(svcBits) + uint64(i)*0x9e3779b97f4a7c15)
			acc := math.Float64frombits(uint64(errBits) ^ uint64(i)*0x2545f4914f6cdd1d)
			cands[i] = Candidate{
				ID:        i,
				Failed:    fbit,
				Healthy:   hbit,
				Breaker:   overload.State(int(svcBits>>uint(i%32)) % 5),
				ServiceMS: svc,
				AccErrPct: acc,
			}
			failed[i] = fbit
		}
		want := RankInto(nil, slices.Clone(cands))
		dst := make([]int, int(uint64(errBits)>>32)%(n+1))
		for i := range dst {
			dst[i] = n - 1 - i // stale IDs from an earlier group
		}
		order := RankInto(dst, cands)
		if !slices.Equal(order, want) {
			t.Fatalf("order %v into a reused destination, %v into a fresh one", order, want)
		}
		if len(order) > 0 && len(order) <= cap(dst) && &order[0] != &dst[:1][0] {
			t.Fatalf("order of %d IDs did not reuse a destination of capacity %d", len(order), cap(dst))
		}
		seen := make(map[int]bool, len(order))
		for _, id := range order {
			if failed[id] {
				t.Fatalf("failed replica %d selected (order %v)", id, order)
			}
			if seen[id] {
				t.Fatalf("replica %d ranked twice (order %v)", id, order)
			}
			seen[id] = true
		}
		// Every live replica must appear: failover needs the full order.
		for i := range cands {
			if !failed[i] && !seen[i] {
				t.Fatalf("live replica %d missing from order %v", i, order)
			}
		}
	})
}
