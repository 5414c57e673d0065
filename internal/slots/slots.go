// Package slots is the bookkeeping the incremental indexes share
// (sparse.IncIndex, knn.IncFlat, knn.IncHNSW): an external int64 id gets
// the next append-only slot, a delete tombstones its slot, compaction
// drops the tombstones and tells the owner where each survivor moved, and
// Freeze publishes an immutable View. The owner keeps its payload —
// postings, vectors, links — in arrays indexed by slot, append-only or
// Paged. A Table is single-writer; any number of goroutines may read a
// View meanwhile.
package slots

import (
	"fmt"
	"math/bits"
	"slices"
)

// View is the slot state at one instant: the id and the tombstone bit of
// every slot. A Table's own View is its current state; Freeze returns one
// that later writes do not touch.
type View struct {
	ids   []int64       // slot → external id; append-only until Compact
	live  Pages[uint64] // slot → not tombstoned, one bit per slot
	count int           // live slots
}

// All returns the view of n live slots whose ids are the slots: a
// collection indexed once, by position, with nothing deleted.
func All(n int) View {
	var live Paged[uint64]
	live.Grow((n + 63) / 64)
	for w := range n / 64 {
		*live.Ref(w) = ^uint64(0)
	}
	if n%64 != 0 {
		*live.Ref(n / 64) = 1<<(n%64) - 1
	}
	v := View{ids: make([]int64, n), live: live.Pages, count: n}
	for slot := range v.ids {
		v.ids[slot] = int64(slot)
	}
	return v
}

// Slots returns the number of slots, live or tombstoned.
func (v *View) Slots() int { return len(v.ids) }

// Len returns the number of live slots.
func (v *View) Len() int { return v.count }

// ID returns the external id of slot.
func (v *View) ID(slot int32) int64 { return v.ids[slot] }

// Live reports whether slot is not tombstoned.
func (v *View) Live(slot int32) bool {
	return v.live.At(int(uint32(slot)/64))&(1<<(uint32(slot)%64)) != 0
}

// LiveWord returns word w of the liveness bitmap: bit i reports whether
// slot 64w+i is live, for a scan that reads 64 slots at a time.
func (v *View) LiveWord(w int) uint64 { return v.live.At(w) }

// Table assigns slots to ids. The zero value is an empty table.
type Table struct {
	View
	liveOwn owners // the writer's pages of View.live
	// index finds a live id's slot: open addressing over a power of two
	// at most three quarters full, slot+1 at or after the position the
	// id hashes to, 0 empty. It keeps no id of its own — an entry's id
	// is ids[slot] — so it costs 4 B a position, 5-11 B a live id.
	index []int32
	shift uint8 // 64 − log2(len(index)): home takes the top bits
}

// home returns the position id hashes to: Fibonacci hashing, whose top
// bits spread runs and strides of ids alike.
func (t *Table) home(id int64) int { return int(uint64(id) * 0x9e3779b97f4a7c15 >> t.shift) }

// find returns the position of live id in the index, or the empty
// position where it would go, and whether id is live.
func (t *Table) find(id int64) (int, bool) {
	if len(t.index) == 0 {
		return 0, false
	}
	mask := len(t.index) - 1
	for i := t.home(id); ; i = (i + 1) & mask {
		e := t.index[i]
		if e == 0 {
			return i, false
		}
		if t.ids[e-1] == id {
			return i, true
		}
	}
}

// reindex rebuilds the index over the live slots at the smallest size,
// 16 or more, that one more id keeps at most three quarters full.
func (t *Table) reindex() {
	size := 16
	for 4*(t.count+1) > 3*size {
		size *= 2
	}
	t.index, t.shift = make([]int32, size), uint8(64-bits.TrailingZeros(uint(size)))
	for slot, id := range t.ids {
		if t.Live(int32(slot)) {
			i, _ := t.find(id)
			t.index[i] = int32(slot) + 1
		}
	}
}

// unindex empties position i, moving back each later entry of its run
// whose probe passes i, so that every probe still reaches its entry.
func (t *Table) unindex(i int) {
	mask := len(t.index) - 1
	for j := (i + 1) & mask; t.index[j] != 0; j = (j + 1) & mask {
		if h := t.home(t.ids[t.index[j]-1]); (j-h)&mask >= (j-i)&mask {
			t.index[i] = t.index[j]
			i = j
		}
	}
	t.index[i] = 0
}

// Add assigns the next slot to id. It is an error to add an id that is
// live (Remove it first); a refused Add changes nothing.
func (t *Table) Add(id int64) (int32, error) {
	i, live := t.find(id)
	if live {
		return 0, fmt.Errorf("slots: id %d already indexed", id)
	}
	if 4*(t.count+1) > 3*len(t.index) {
		t.reindex()
		i, _ = t.find(id)
	}
	slot := t.push(id)
	t.index[i] = slot + 1
	return slot, nil
}

// push appends a live slot for id, starting a bitmap word when the slot
// is the first of one.
func (t *Table) push(id int64) int32 {
	slot := int32(len(t.ids))
	t.live.grow(&t.liveOwn, int(slot/64)+1)
	*t.live.ref(&t.liveOwn, int(slot/64)) |= 1 << (slot % 64)
	t.ids = append(t.ids, id)
	t.count++
	return slot
}

// Remove tombstones id's slot, reporting whether id was live. The slot
// is reclaimed by the next Compact.
func (t *Table) Remove(id int64) bool {
	i, live := t.find(id)
	if live {
		slot := t.index[i] - 1
		t.unindex(i)
		*t.live.ref(&t.liveOwn, int(slot/64)) &^= 1 << (slot % 64)
		t.count--
	}
	return live
}

// Dead returns the number of tombstoned slots awaiting Compact.
func (t *Table) Dead() int { return len(t.ids) - t.count }

// Has reports whether id is live.
func (t *Table) Has(id int64) bool {
	_, live := t.find(id)
	return live
}

// Slot returns the slot of a live id, and whether id is live.
func (t *Table) Slot(id int64) (int32, bool) {
	i, live := t.find(id)
	if !live {
		return 0, false
	}
	return t.index[i] - 1, true
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
	t.View, t.liveOwn = View{ids: make([]int64, 0, old.count)}, owners{}
	for slot, id := range old.ids {
		remap[slot] = -1
		if old.Live(int32(slot)) {
			remap[slot] = t.push(id)
		}
	}
	t.reindex()
	return remap
}

// Freeze returns a View of the table as it is now. It shares the
// append-only ids, which a later Add extends beyond the view's length,
// and the pages of the tombstone bitmap, which the table copies before it
// next writes a word of one (Paged).
func (t *Table) Freeze() View {
	return View{ids: slices.Clip(t.ids), live: t.live.freeze(&t.liveOwn), count: t.count}
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
