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
	return join(false,
		func() (t1, t2 []string) { return in.Texts(f.Clean) },
		scanCount(f.Model),
		func(idx *sparse.Index, q []int32) []hit.Hit { return idx.RangeQuery(q, f.Measure, f.Threshold) },
	), nil
}

// scanCount is the index step of both sparse methods: the token sets of
// both sides under one dictionary, and a ScanCount index over one side's.
func scanCount(model text.Model) func(indexed, queries []string) (*sparse.Index, [][]int32) {
	return func(indexed, queries []string) (*sparse.Index, [][]int32) {
		corpus := sparse.BuildCorpus(indexed, queries, model)
		return sparse.NewIndex(corpus.Sets1, corpus.NumTokens), corpus.Sets2
	}
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
	return join(f.Reverse,
		func() (t1, t2 []string) { return in.Texts(f.Clean) },
		scanCount(f.Model),
		func(idx *sparse.Index, q []int32) []hit.Hit { return idx.KNNQuery(q, f.Measure, f.K) },
	), nil
}
