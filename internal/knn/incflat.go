package knn

import (
	"fmt"
	"slices"

	"erfilter/internal/hit"
	"erfilter/internal/slots"
	"erfilter/internal/vector"
)

// IncFlat is the incremental variant of the exact Flat index: vectors are
// added and removed under stable external int64 ids, deletions are
// tombstones reclaimed by Compact, and Freeze publishes an immutable
// snapshot for lock-free concurrent searches.
//
// Selection is fully determined by (score, id): a candidate displaces the
// current k-th best only if it scores strictly better or ties with a
// smaller id. Because the batch Flat scores vectors in position order and
// breaks ties by position, a snapshot search equals a batch Flat search
// over the surviving vectors laid out in ascending-id order — which is
// slot order whenever ids are added monotonically, the discipline the
// online resolver follows (the equivalence tests check exactly this).
//
// An IncFlat is a single-writer structure: Add, Remove, Compact and
// Freeze must be externally serialized. Snapshots stay valid forever.
// Ids, tombstones, Len, Dead, Remove and Has are the embedded slot
// table's.
type IncFlat struct {
	slots.Table
	metric Metric
	vecs   []vector.Vec // slot → vector (retained, not copied)
}

// NewIncFlat returns an empty incremental flat index under the metric.
func NewIncFlat(metric Metric) *IncFlat { return &IncFlat{metric: metric} }

// Dim returns the dimensionality of the indexed vectors (0 when empty).
func (f *IncFlat) Dim() int {
	if len(f.vecs) == 0 {
		return 0
	}
	return len(f.vecs[0])
}

// Add indexes the vector under the external id. The vector is retained,
// not copied; callers must not mutate it afterwards. It is an error to
// add an id that is currently indexed, or a vector whose length differs
// from that of the vectors already held (tombstoned ones included, until
// Compact drops them); a refused Add leaves the index as it was.
func (f *IncFlat) Add(id int64, v vector.Vec) error {
	if len(f.vecs) > 0 && len(v) != f.Dim() {
		return fmt.Errorf("knn: id %d: vector of dimension %d added to an index of dimension %d", id, len(v), f.Dim())
	}
	_, err := f.Table.Add(id)
	if err == nil {
		f.vecs = append(f.vecs, v)
	}
	return err
}

// Compact rewrites the index without tombstoned slots, preserving the
// survivors' relative order. Arrays are freshly allocated, so frozen
// snapshots remain valid.
func (f *IncFlat) Compact() {
	if remap := f.Table.Compact(); remap != nil {
		f.vecs = slots.Keep(f.vecs, remap)
	}
}

// Freeze publishes an immutable point-in-time snapshot sharing the
// append-only vector array (later appends land strictly beyond the
// snapshot's recorded length) and taking the slot table's view.
func (f *IncFlat) Freeze() *FlatSnapshot {
	return &FlatSnapshot{View: f.Table.Freeze(), metric: f.metric, vecs: slices.Clip(f.vecs)}
}

// FlatSnapshot is an immutable view of an IncFlat at one instant; any
// number of goroutines may call Search concurrently. Len is the view's:
// the live vectors visible to the snapshot.
type FlatSnapshot struct {
	slots.View
	metric Metric
	vecs   []vector.Vec
}

// Search returns the k best-scoring live vectors in the canonical hit
// order, each under the negated metric score (higher is better). The
// selection is fully determined by that order, never by slot order.
// Fewer are returned when the snapshot holds fewer than k live vectors.
func (s *FlatSnapshot) Search(q vector.Vec, k int) []hit.Hit {
	top := hit.TopK{K: k}
	for slot, v := range s.vecs {
		if s.Live(int32(slot)) {
			top.Offer(hit.Hit{ID: s.ID(int32(slot)), Score: -s.metric.score(q, v)})
		}
	}
	return top.Sorted()
}
