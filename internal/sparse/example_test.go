package sparse_test

import (
	"fmt"

	"erfilter/internal/sparse"
	"erfilter/internal/text"
)

// ExampleEpsJoin returns every pair whose similarity reaches the
// threshold.
func ExampleEpsJoin() {
	corpus := sparse.BuildCorpus(
		[]string{"a b c", "x y"},
		[]string{"a b c", "x y z"},
		text.Model{N: 1},
	)
	fmt.Println(len(sparse.EpsJoin(corpus, sparse.Jaccard, 0.5)))
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
