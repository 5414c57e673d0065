// Package knn implements the dense-vector kNN search frameworks of Section
// IV-D: an exact Flat index (the FAISS configuration the paper settles on)
// and a partitioned index with brute-force or asymmetric-hashing scoring
// (the SCANN analog), plus the k-means and product-quantization machinery
// the latter needs.
package knn

import (
	"cmp"
	"container/heap"
	"slices"

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

// Result is one search hit: the indexed vector's id and its score
// (smaller is better, metric-normalized).
type Result struct {
	ID    int32
	Score float64
}

// Searcher is the query interface shared by all dense indexes.
type Searcher interface {
	// Search returns the k best-scoring indexed vectors for the query,
	// best first. Fewer results are returned when the index is smaller
	// than k.
	Search(q vector.Vec, k int) []Result
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

// Search implements Searcher with a bounded max-heap selection.
func (f *Flat) Search(q vector.Vec, k int) []Result {
	if k <= 0 {
		return nil
	}
	h := newTopK(k)
	for i, v := range f.vecs {
		h.offer(int32(i), f.metric.score(q, v))
	}
	return h.sorted()
}

// topK keeps the k lexicographically smallest (score, id) results seen so
// far in a max-heap. Breaking score ties by id makes the selected set — not
// just its sorted order — independent of scan order and heap layout, so a
// Flat search is a pure function of the indexed set.
type topK struct {
	k     int
	items []Result
}

func newTopK(k int) *topK { return &topK{k: k} }

func (h *topK) Len() int { return len(h.items) }
func (h *topK) Less(i, j int) bool {
	if h.items[i].Score != h.items[j].Score {
		return h.items[i].Score > h.items[j].Score
	}
	return h.items[i].ID > h.items[j].ID
}
func (h *topK) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *topK) Push(x interface{}) { h.items = append(h.items, x.(Result)) }
func (h *topK) Pop() interface{} {
	old := h.items
	n := len(old)
	x := old[n-1]
	h.items = old[:n-1]
	return x
}

// offer inserts the candidate if it beats the current k-th best under the
// (score, id) order.
func (h *topK) offer(id int32, score float64) {
	if len(h.items) < h.k {
		heap.Push(h, Result{ID: id, Score: score})
		return
	}
	worst := h.items[0]
	if score < worst.Score || (score == worst.Score && id < worst.ID) {
		h.items[0] = Result{ID: id, Score: score}
		heap.Fix(h, 0)
	}
}

// sorted drains the heap into a best-first slice.
func (h *topK) sorted() []Result {
	out := append([]Result(nil), h.items...)
	slices.SortFunc(out, func(a, b Result) int {
		return cmp.Or(cmp.Compare(a.Score, b.Score), cmp.Compare(a.ID, b.ID))
	})
	return out
}
