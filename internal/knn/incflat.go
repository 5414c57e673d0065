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
// table's; the vectors are rows of one slab beside it.
type IncFlat struct {
	slots.Table
	metric Metric
	rows   rows // slot → vector
}

// rowPage is the number of float32 in a page of rows: 64 KiB, 54 rows of
// 300 dimensions.
const rowPage = 16 << 10

// rows is the slab of an incremental index's vectors, FAISS Flat's n × d
// matrix in fixed pages: row slot is dim float32 at slot%per of page
// slot/per, copied in by add and never moved. A copy shares the pages:
// the writer only appends beyond its n.
type rows struct {
	pages [][]float32
	dim   int // fixed by the first row
	per   int // rows a page
	n     int
}

// row returns the vector of slot, below n. The division is unsigned
// 32-bit, the cheapest divide there is: the HNSW beam takes a row per
// distance.
func (r *rows) row(slot int32) vector.Vec {
	page, at := uint32(slot)/uint32(r.per), uint32(slot)%uint32(r.per)
	off := int(at) * r.dim
	return r.pages[page][off : off+r.dim : off+r.dim]
}

// add copies v in as row n, starting a page when the last one is full.
// The first row fixes the dimension; the caller holds every other to it.
func (r *rows) add(v vector.Vec) {
	if r.n == 0 {
		r.dim, r.per = len(v), max(1, rowPage/max(1, len(v)))
	}
	at := r.n % r.per * r.dim
	if at == 0 {
		r.pages = append(r.pages, make([]float32, r.per*r.dim))
	}
	copy(r.pages[len(r.pages)-1][at:at+r.dim], v)
	r.n++
}

// NewIncFlat returns an empty incremental flat index under the metric.
func NewIncFlat(metric Metric) *IncFlat { return &IncFlat{metric: metric} }

// Dim returns the dimensionality of the indexed vectors (0 when empty).
func (f *IncFlat) Dim() int {
	if f.rows.n == 0 {
		return 0
	}
	return f.rows.dim
}

// Add indexes the vector under the external id, copying it into the
// slab. It is an error to add an id that is currently indexed, or a
// vector whose length differs from that of the vectors already held
// (tombstoned ones included, until Compact drops them); a refused Add
// leaves the index as it was.
func (f *IncFlat) Add(id int64, v vector.Vec) error {
	if f.rows.n > 0 && len(v) != f.rows.dim {
		return fmt.Errorf("knn: id %d: vector of dimension %d added to an index of dimension %d", id, len(v), f.rows.dim)
	}
	_, err := f.Table.Add(id)
	if err == nil {
		f.rows.add(v)
	}
	return err
}

// Compact rewrites the index without tombstoned slots, preserving the
// survivors' relative order. The survivors' rows are copied into fresh
// pages, so frozen snapshots remain valid. It returns the slot table's
// remap (nil when nothing was dead).
func (f *IncFlat) Compact() []int32 {
	remap := f.Table.Compact()
	if remap != nil {
		var kept rows
		for slot, to := range remap {
			if to >= 0 {
				kept.add(f.rows.row(int32(slot)))
			}
		}
		f.rows = kept
	}
	return remap
}

// Freeze publishes an immutable point-in-time snapshot sharing the
// append-only pages of rows (later rows land strictly beyond the
// snapshot's recorded length) and taking the slot table's view.
func (f *IncFlat) Freeze() *FlatSnapshot {
	r := f.rows
	r.pages = slices.Clip(r.pages)
	return &FlatSnapshot{View: f.Table.Freeze(), metric: f.metric, rows: r}
}

// FlatSnapshot is an immutable view of an IncFlat at one instant; any
// number of goroutines may call Search concurrently. Len is the view's:
// the live vectors visible to the snapshot.
type FlatSnapshot struct {
	slots.View
	metric Metric
	rows   rows
}

// Search returns the k best-scoring live vectors in the canonical hit
// order, each under the negated metric score (higher is better). The
// selection is fully determined by that order, never by slot order.
// Fewer are returned when the snapshot holds fewer than k live vectors.
func (s *FlatSnapshot) Search(q vector.Vec, k int) []hit.Hit {
	top := hit.TopK{K: k}
	for slot := range int32(s.rows.n) {
		if s.Live(slot) {
			top.Offer(hit.Hit{ID: s.ID(slot), Score: -s.metric.score(q, s.rows.row(slot))})
		}
	}
	return top.Sorted()
}
