package search

// Merge combines per-shard hit lists into the global top-k, the
// aggregator's step-7 ranking. Ties on score break toward the smaller
// document ID so merged rankings are deterministic regardless of shard
// order. The lists need not be sorted.
//
// It runs per query, serially, after the last shard has answered, and
// returns k hits out of the N·k it is given, so it selects rather than
// sorts: each hit is compared with the worst of a best-first window of k
// and, if it ranks before that, inserted in place. The comparator is a
// total order (collection-wide doc IDs are unique), so the result is the
// first k of the fully sorted input whatever the algorithm.
func Merge(k int, lists ...[]Hit) []Hit { return MergeInto([]Hit{}, k, lists...) }

// MergeInto is Merge into dst's storage: the window is dst[:0] when its
// capacity holds k hits, and a new slice otherwise. The result aliases
// dst, so a caller that reuses dst across queries must copy out any hits
// it keeps.
func MergeInto(dst []Hit, k int, lists ...[]Hit) []Hit {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	if k > total {
		k = total
	}
	if k <= 0 {
		return dst[:0]
	}
	best := dst[:0]
	if cap(best) < k {
		best = make([]Hit, 0, k)
	}
	for _, l := range lists {
		for _, h := range l {
			i := len(best)
			if i < k {
				best = best[:i+1]
			} else if ranksBefore(h, best[k-1]) {
				i-- // the worst of the window falls off its end
			} else {
				continue
			}
			for ; i > 0 && ranksBefore(h, best[i-1]); i-- {
				best[i] = best[i-1]
			}
			best[i] = h
		}
	}
	return best
}

// ranksBefore is the merged ranking: higher score first, then smaller
// collection-wide document ID.
func ranksBefore(a, b Hit) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Doc < b.Doc
}

// DocSet returns the set of document IDs in hits.
func DocSet(hits []Hit) map[int64]bool {
	s := make(map[int64]bool, len(hits))
	for _, h := range hits {
		s[h.Doc] = true
	}
	return s
}

// Overlap counts how many documents of hits appear in want.
func Overlap(hits []Hit, want map[int64]bool) int {
	n := 0
	for _, h := range hits {
		if want[h.Doc] {
			n++
		}
	}
	return n
}
