// Package slots is the bookkeeping the incremental indexes share
// (sparse.IncIndex, knn.IncFlat, knn.IncHNSW): an external int64 id gets
// the next append-only slot, a delete tombstones its slot, compaction
// drops the tombstones and tells the owner where each survivor moved, and
// Freeze publishes an immutable View. The owner keeps its payload —
// postings, vectors, links — in arrays indexed by slot. A Table is
// single-writer; any number of goroutines may read a View meanwhile.
package slots

import (
	"fmt"
	"slices"
)

// View is the slot state at one instant: the id and the tombstone bit of
// every slot. A Table's own View is its current state; Freeze copies one
// out that later writes do not touch.
type View struct {
	ids   []int64  // slot → external id; append-only until Compact
	live  []uint64 // slot → not tombstoned, one bit per slot
	count int      // live slots
}

// Slots returns the number of slots, live or tombstoned.
func (v *View) Slots() int { return len(v.ids) }

// Len returns the number of live slots.
func (v *View) Len() int { return v.count }

// ID returns the external id of slot.
func (v *View) ID(slot int32) int64 { return v.ids[slot] }

// Live reports whether slot is not tombstoned.
func (v *View) Live(slot int32) bool {
	return v.live[uint32(slot)/64]&(1<<(uint32(slot)%64)) != 0
}

// Table assigns slots to ids. The zero value is an empty table.
type Table struct {
	View
	slotOf map[int64]int32 // live id → slot
}

// Add assigns the next slot to id. It is an error to add an id that is
// live (Remove it first); a refused Add changes nothing.
func (t *Table) Add(id int64) (int32, error) {
	if _, ok := t.slotOf[id]; ok {
		return 0, fmt.Errorf("slots: id %d already indexed", id)
	}
	if t.slotOf == nil {
		t.slotOf = make(map[int64]int32)
	}
	slot := t.push(id)
	t.slotOf[id] = slot
	return slot, nil
}

// push appends a live slot for id, starting a bitmap word when the slot
// is the first of one.
func (t *Table) push(id int64) int32 {
	slot := int32(len(t.ids))
	if slot%64 == 0 {
		t.live = append(t.live, 0)
	}
	t.live[slot/64] |= 1 << (slot % 64)
	t.ids = append(t.ids, id)
	t.count++
	return slot
}

// Remove tombstones id's slot, reporting whether id was live. The slot
// is reclaimed by the next Compact.
func (t *Table) Remove(id int64) bool {
	slot, ok := t.slotOf[id]
	if ok {
		delete(t.slotOf, id)
		t.live[slot/64] &^= 1 << (slot % 64)
		t.count--
	}
	return ok
}

// Dead returns the number of tombstoned slots awaiting Compact.
func (t *Table) Dead() int { return len(t.ids) - t.count }

// Has reports whether id is live.
func (t *Table) Has(id int64) bool {
	_, ok := t.slotOf[id]
	return ok
}

// Compact drops the tombstoned slots, keeping the survivors in slot
// order, and returns the remap from old slot to new slot (-1 for a
// dropped one), or nil when nothing was dead. The arrays are fresh, so
// every frozen View stays as it was.
func (t *Table) Compact() []int32 {
	if t.Dead() == 0 {
		return nil
	}
	old, remap := t.View, make([]int32, len(t.ids))
	t.View = View{ids: make([]int64, 0, old.count)}
	for slot, id := range old.ids {
		remap[slot] = -1
		if old.Live(int32(slot)) {
			remap[slot] = t.push(id)
			t.slotOf[id] = remap[slot]
		}
	}
	return remap
}

// Freeze returns a View of the table as it is now. It shares the
// append-only ids, which a later Add extends beyond the view's length,
// and copies the tombstone bits, which Remove clears in place.
func (t *Table) Freeze() View {
	return View{ids: slices.Clip(t.ids), live: slices.Clone(t.live), count: t.count}
}

// Keep returns the elements of s at the slots a non-nil Compact remap
// keeps, in their new order and in a fresh array: s may be shared with a
// View.
func Keep[T any](s []T, remap []int32) []T {
	out := make([]T, 0, slices.Max(remap)+1)
	for slot, to := range remap {
		if to >= 0 {
			out = append(out, s[slot])
		}
	}
	return out
}
