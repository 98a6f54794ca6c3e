package index_test

import (
	"fmt"

	"cottage/internal/index"
)

// Example indexes three tiny documents and inspects a term's statistics.
func Example() {
	b := index.NewBuilder(0, index.DefaultBM25(), 10)
	b.AddText(1, "the quick brown fox")
	b.AddText(2, "the lazy dog sleeps")
	b.AddText(3, "the quick dog runs quick")
	shard := b.Finalize()

	ti, _ := shard.Lookup("quick")
	fmt.Println("documents with 'quick':", ti.Stats.PostingLen)
	fmt.Println("max tf:", maxTF(ti))
	// Output:
	// documents with 'quick': 2
	// max tf: 2
}

func maxTF(ti *index.TermInfo) uint32 {
	var m uint32
	for _, p := range ti.AllPostings() {
		if p.TF > m {
			m = p.TF
		}
	}
	return m
}
