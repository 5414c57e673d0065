package knn

import (
	"fmt"

	"erfilter/internal/slots"
	"erfilter/internal/vector"
)

// IncFlat is the incremental variant of the exact Flat index: vectors are
// added and removed under stable external int64 ids, deletions are
// tombstones reclaimed by Compact, and Freeze publishes an immutable Flat
// for lock-free concurrent searches.
//
// Selection is fully determined by (score, id): a candidate displaces the
// current k-th best only if it scores strictly better or ties with a
// smaller id. So a frozen search equals a NewFlat search over the
// surviving vectors laid out in ascending-id order — which is slot order
// whenever ids are added monotonically, the discipline the online
// resolver follows (the equivalence tests check exactly this).
//
// An IncFlat is a single-writer structure: Add, Remove, Compact and
// Freeze must be externally serialized. Frozen indexes stay valid
// forever. Ids, tombstones, Len, Dead, Remove and Has are the embedded
// slot table's; the vectors are rows of one slab beside it, FAISS Flat's
// n × d matrix in 64 KiB pages, copied in by Add and never moved.
type IncFlat struct {
	slots.Table
	metric Metric
	rows   slots.Rows[float32] // slot → vector
}

// rowPage is the number of float32 in a page of rows: 64 KiB, 54 rows of
// 300 dimensions.
const rowPage = 16 << 10

// NewIncFlat returns an empty incremental flat index under the metric.
func NewIncFlat(metric Metric) *IncFlat { return &IncFlat{metric: metric} }

// Dim returns the dimensionality of the indexed vectors (0 when empty).
func (f *IncFlat) Dim() int { return f.rows.Width() }

// Add indexes the vector under the external id, copying it into the
// slab. It is an error to add an id that is currently indexed, or a
// vector whose length differs from that of the vectors already held
// (tombstoned ones included, until Compact drops them); a refused Add
// leaves the index as it was.
func (f *IncFlat) Add(id int64, v vector.Vec) error {
	if f.rows.Len() > 0 && len(v) != f.rows.Width() {
		return fmt.Errorf("knn: id %d: vector of dimension %d added to an index of dimension %d", id, len(v), f.rows.Width())
	}
	_, err := f.Table.Add(id)
	if err == nil {
		f.addRow(v)
	}
	return err
}

// Row returns the vector of slot, below Slots, in place in the slab; the
// caller must not write it.
func (f *IncFlat) Row(slot int32) vector.Vec { return f.rows.Row(int(slot)) }

// addRow copies v in as the next slot's row. The first row fixes the
// dimension; the caller holds every other to it.
func (f *IncFlat) addRow(v vector.Vec) {
	if f.rows.Len() == 0 {
		f.rows = slots.NewRows[float32](len(v), max(1, rowPage/max(1, len(v))))
	}
	copy(f.rows.Append(), v)
}

// Compact rewrites the index without tombstoned slots, preserving the
// survivors' relative order. The survivors' rows are copied into fresh
// pages, so frozen indexes remain valid. It returns the slot table's
// remap (nil when nothing was dead).
func (f *IncFlat) Compact() []int32 {
	remap := f.Table.Compact()
	if remap != nil {
		old := f.rows
		f.rows = slots.Rows[float32]{}
		for slot, to := range remap {
			if to >= 0 {
				f.addRow(old.Row(slot))
			}
		}
	}
	return remap
}

// Freeze publishes the index as it is now: a Flat sharing the rows (later
// rows land beyond its length) and taking the slot table's view.
func (f *IncFlat) Freeze() *Flat {
	return &Flat{View: f.Table.Freeze(), metric: f.metric, rows: f.rows.Freeze()}
}
