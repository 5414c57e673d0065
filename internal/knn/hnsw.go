package knn

import (
	"erfilter/internal/hit"
	"erfilter/internal/vector"
)

// HNSW is a Hierarchical Navigable Small World graph index (Malkov &
// Yashunin), the graph-based approximate method FAISS offers. The paper
// experimented with it and found it does not outperform the Flat index
// under Problem 1; it is implemented here so that finding is reproducible
// (see the ablation experiments). It is the batch face of IncHNSW: the
// graph is built by adding the vectors in order under ids 0..n-1 and
// then frozen, so there is one construction and one search core.
type HNSW struct {
	// M is the maximum number of neighbors per node per layer (2M at
	// layer 0); 0 selects 16.
	M int
	// EfConstruction is the beam width during insertion; 0 selects 100.
	EfConstruction int
	// EfSearch is the beam width during queries; 0 selects 64.
	EfSearch int
	// Metric ranks candidates (DotProduct or L2Squared).
	Metric Metric
	// Seed drives the random level assignment.
	Seed uint64

	vecs []vector.Vec
	snap *HNSWSnapshot
}

// NewHNSW builds the graph over the vectors.
func NewHNSW(vecs []vector.Vec, h HNSW) *HNSW {
	g := NewIncHNSW(h.Metric, HNSWParams{M: h.M, EfConstruction: h.EfConstruction, EfSearch: h.EfSearch, Seed: h.Seed})
	for i, v := range vecs {
		if err := g.Add(int64(i), v); err != nil {
			// Unreachable: the ids are distinct by construction.
			panic(err)
		}
	}
	p := g.Params()
	h.M, h.EfConstruction, h.EfSearch = p.M, p.EfConstruction, p.EfSearch
	h.vecs = vecs
	h.snap = g.Freeze()
	return &h
}

// Len returns the number of indexed vectors.
func (h *HNSW) Len() int { return len(h.vecs) }

// Search implements Searcher: the snapshot's search at the default beam
// width, whose ids are the positions the vectors were added under.
func (h *HNSW) Search(q vector.Vec, k int) []hit.Hit { return h.snap.Search(q, k) }
