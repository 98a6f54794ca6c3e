package search_test

import (
	"fmt"

	"cottage/internal/index"
	"cottage/internal/search"
)

func buildExampleShard() *index.Shard {
	b := index.NewBuilder(0, index.DefaultBM25(), 10)
	b.AddText(100, "go systems programming language")
	b.AddText(101, "distributed systems design")
	b.AddText(102, "go distributed search engine")
	b.AddText(103, "query evaluation in search engines")
	return b.Finalize()
}

// Example evaluates a query with MaxScore pruning and prints the top hits.
func Example() {
	shard := buildExampleShard()
	res := search.MaxScore(shard, []string{"distributed", "search"}, 3)
	for _, h := range res.Hits {
		fmt.Println("doc", h.Doc)
	}
	fmt.Println("docs scored:", res.Stats.DocsScored)
	// Output:
	// doc 102
	// doc 101
	// doc 103
	// docs scored: 3
}

// ExampleMerge combines per-shard results into a global top-K, the
// aggregator's final step.
func ExampleMerge() {
	a := []search.Hit{{Doc: 1, Score: 9}, {Doc: 2, Score: 4}}
	b := []search.Hit{{Doc: 3, Score: 7}}
	for _, h := range search.Merge(2, a, b) {
		fmt.Println(h.Doc, h.Score)
	}
	// Output:
	// 1 9
	// 3 7
}
