// Package knn implements the dense-vector kNN search frameworks of Section
// IV-D: an exact Flat index (the FAISS configuration the paper settles on)
// and a partitioned index with brute-force or asymmetric-hashing scoring
// (the SCANN analog), plus the k-means and product-quantization machinery
// the latter needs.
package knn

import (
	"erfilter/internal/hit"
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

// score returns a "smaller is better" score for the metric.
func (m Metric) score(q, v vector.Vec) float64 {
	if m == DotProduct {
		return -vector.Dot(q, v)
	}
	return vector.L2Sq(q, v)
}

// Score exposes the metric's raw smaller-is-better score for storage
// tiers that scan vectors outside the knn indexes (the on-disk segment
// reader); it is the exact function every index scores with, which is
// what keeps external scans byte-identical to an index search.
func (m Metric) Score(q, v vector.Vec) float64 { return m.score(q, v) }

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
// every indexed vector. It is the analog of FAISS's Flat index, which the
// paper found to dominate the approximate FAISS variants on Problem 1.
type Flat struct {
	vecs   []vector.Vec
	metric Metric
}

// NewFlat indexes the vectors. The slice is retained, not copied.
func NewFlat(vecs []vector.Vec, metric Metric) *Flat {
	return &Flat{vecs: vecs, metric: metric}
}

// Len returns the number of indexed vectors.
func (f *Flat) Len() int { return len(f.vecs) }

// Search implements Searcher. The selection is fully determined by the
// canonical order, never by scan order, so a Flat search is a pure
// function of the indexed set.
func (f *Flat) Search(q vector.Vec, k int) []hit.Hit {
	if k <= 0 {
		return nil
	}
	top := hit.TopK{K: k}
	top.Grow(min(k, len(f.vecs)))
	for i, v := range f.vecs {
		top.Offer(hit.Hit{ID: int64(i), Score: -f.metric.score(q, v)})
	}
	return top.Sorted()
}
