package core

import (
	"fmt"

	"erfilter/internal/hit"
	"erfilter/internal/sparse"
	"erfilter/internal/text"
)

// EpsJoinFilter is the range-join sparse NN method (ε-Join, Table IV).
type EpsJoinFilter struct {
	// Clean applies stop-word removal and stemming first (CL).
	Clean bool
	// Model is the representation model (RM).
	Model text.Model
	// Measure is the similarity measure (SM).
	Measure sparse.Measure
	// Threshold is the similarity threshold t.
	Threshold float64
}

// Name implements Filter.
func (f *EpsJoinFilter) Name() string {
	return fmt.Sprintf("eps-join[cl=%v,%s,%s,t=%.2f]", f.Clean, f.Model, f.Measure, f.Threshold)
}

// Run implements Filter. The join is independent of which side is
// indexed, so no RVS parameter exists.
func (f *EpsJoinFilter) Run(in *Input) (*Outcome, error) {
	return scanCount(in, f.Clean, f.Model, false, func(idx *sparse.Index, q []int32, sc *sparse.Scratch) []hit.Hit {
		return idx.RangeQuery(q, f.Measure, f.Threshold, sc)
	}), nil
}

// scanCount is the workflow of both sparse methods. Represent is cleaning
// plus the representation model: the token sets of both collections under
// one dictionary. Index is a ScanCount index over the indexed side's sets
// alone. Every prober brings its own accumulator to the one index.
func scanCount(in *Input, clean bool, model text.Model, reverse bool,
	probe func(*sparse.Index, []int32, *sparse.Scratch) []hit.Hit) *Outcome {
	var numTokens int
	return join(reverse,
		func() (s1, s2 [][]int32) {
			t1, t2 := in.Texts(clean)
			corpus := sparse.BuildCorpus(t1, t2, model)
			numTokens = corpus.NumTokens
			return corpus.Sets1, corpus.Sets2
		},
		func(indexed [][]int32) *sparse.Index { return sparse.NewIndex(indexed, numTokens) },
		func() func(*sparse.Index, []int32) []hit.Hit {
			sc := new(sparse.Scratch)
			return func(idx *sparse.Index, q []int32) []hit.Hit { return probe(idx, q, sc) }
		},
	)
}

// KNNJoinFilter is the k-nearest-neighbor-join sparse NN method (Table IV).
type KNNJoinFilter struct {
	// Clean applies stop-word removal and stemming first (CL).
	Clean bool
	// Model is the representation model (RM).
	Model text.Model
	// Measure is the similarity measure (SM).
	Measure sparse.Measure
	// K is the cardinality threshold: neighbors per query entity.
	K int
	// Reverse (RVS) indexes E2 and queries with E1 instead of the
	// default direction.
	Reverse bool
}

// Name implements Filter.
func (f *KNNJoinFilter) Name() string {
	return fmt.Sprintf("knn-join[cl=%v,%s,%s,k=%d,rvs=%v]", f.Clean, f.Model, f.Measure, f.K, f.Reverse)
}

// Run implements Filter: every query entity is paired with the indexed
// entities having its K highest distinct similarity values, so the join
// is not commutative.
func (f *KNNJoinFilter) Run(in *Input) (*Outcome, error) {
	return scanCount(in, f.Clean, f.Model, f.Reverse, func(idx *sparse.Index, q []int32, sc *sparse.Scratch) []hit.Hit {
		return idx.KNNQuery(q, f.Measure, f.K, sc)
	}), nil
}
