package sparse_test

import (
	"fmt"

	"erfilter/internal/sparse"
	"erfilter/internal/text"
)

// ExampleIndex_RangeQuery is the ε-Join: index one collection, probe it
// with every set of the other, keep every pair whose similarity reaches
// the threshold.
func ExampleIndex_RangeQuery() {
	corpus := sparse.BuildCorpus(
		[]string{"a b c", "x y"},
		[]string{"a b c", "x y z"},
		text.Model{N: 1},
	)
	idx := sparse.NewIndex(corpus.Sets1, corpus.NumTokens)
	var sc sparse.Scratch
	pairs := 0
	for _, q := range corpus.Sets2 {
		pairs += len(idx.RangeQuery(q, sparse.Jaccard, 0.5, &sc))
	}
	fmt.Println(pairs)
	// Output: 2
}

// ExampleMeasure_Sim shows the three normalized set similarities.
func ExampleMeasure_Sim() {
	// |A∩B| = 2, |A| = |B| = 3.
	fmt.Printf("cosine=%.2f dice=%.2f jaccard=%.2f\n",
		sparse.Cosine.Sim(2, 3, 3),
		sparse.Dice.Sim(2, 3, 3),
		sparse.Jaccard.Sim(2, 3, 3))
	// Output: cosine=0.67 dice=0.67 jaccard=0.50
}
