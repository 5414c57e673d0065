// Package knn implements the dense-vector kNN search frameworks of Section
// IV-D: an exact Flat index (the FAISS configuration the paper settles on)
// and a partitioned index with brute-force or asymmetric-hashing scoring
// (the SCANN analog), plus the k-means and product-quantization machinery
// the latter needs.
package knn

import (
	"erfilter/internal/hit"
	"erfilter/internal/slots"
	"erfilter/internal/vector"
)

// Metric selects the similarity of a search: dot product (higher is
// better) or squared Euclidean distance (lower is better). On normalized
// vectors the two produce identical rankings.
type Metric int

// The metrics of the paper's FAISS/SCANN configurations.
const (
	// DotProduct ranks by inner product, descending.
	DotProduct Metric = iota
	// L2Squared ranks by squared Euclidean distance, ascending.
	L2Squared
)

// String implements fmt.Stringer.
func (m Metric) String() string {
	if m == DotProduct {
		return "DP"
	}
	return "L2^2"
}

// Score returns the metric's smaller-is-better score: the exact function
// every index scores with, and the one storage tiers that scan vectors
// outside the knn indexes (the on-disk segment reader) call, which is
// what keeps their scans byte-identical to an index search.
func (m Metric) Score(q, v vector.Vec) float64 {
	if m == DotProduct {
		return -vector.Dot(q, v)
	}
	return vector.L2Sq(q, v)
}

// Searcher is the query interface shared by the batch dense indexes.
type Searcher interface {
	// Search returns the k best-scoring indexed vectors for the query in
	// the canonical hit order, each under its position in the indexed
	// slice and the negated metric score (higher is better), as the
	// online snapshots score. Fewer are returned when the index is
	// smaller than k.
	Search(q vector.Vec, k int) []hit.Hit
}

// Flat is an exact, exhaustive kNN index: every query is scored against
// every live vector. It is the analog of FAISS's Flat index, which the
// paper found to dominate the approximate FAISS variants on Problem 1,
// and the one frozen type of both its uses: NewFlat indexes a batch
// collection, all live under ids 0..n-1, and IncFlat.Freeze publishes an
// incremental index at one instant. Any number of goroutines may call
// Search; Len is the view's, the live vectors.
type Flat struct {
	slots.View
	metric Metric
	rows   slots.RowsView[float32] // slot → vector
}

// NewFlat indexes the vectors under their positions. It adopts them
// rather than copying them — each vector is a page of the rows — so the
// caller must not change them while the index is in use.
func NewFlat(vecs []vector.Vec, metric Metric) *Flat {
	dir := make([]*[]float32, len(vecs))
	for i := range vecs {
		dir[i] = (*[]float32)(&vecs[i])
	}
	dim := 0
	if len(vecs) > 0 {
		dim = len(vecs[0])
	}
	return &Flat{View: slots.All(len(vecs)), metric: metric, rows: slots.Adopt(dir, dim)}
}

// Search implements Searcher: the k best-scoring live vectors in the
// canonical hit order, each under the negated metric score (higher is
// better). The selection is fully determined by that order, never by
// slot order, so a search is a pure function of the live set.
func (f *Flat) Search(q vector.Vec, k int) []hit.Hit {
	if k <= 0 {
		return nil
	}
	top := hit.TopK{K: k}
	top.Grow(min(k, f.Len()))
	var live uint64 // the bitmap word of slot, shifted down to its bit
	for slot := range f.rows.Len() {
		if slot%64 == 0 {
			live = f.LiveWord(slot / 64)
		}
		if live&1 != 0 {
			top.Offer(hit.Hit{ID: f.ID(int32(slot)), Score: -f.metric.Score(q, f.rows.Row(slot))})
		}
		live >>= 1
	}
	return top.Sorted()
}
