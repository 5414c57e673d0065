// Package dict is the append-only string dictionary under the online
// sparse vocabulary (online.Vocab) and the dense word table
// (vector.Table): a key's id is the number of keys before it, its bytes
// are appended to one arena, and an open-addressed table of uint32 ids
// finds it. Nothing is rewritten in place but an empty table slot, which
// takes an id with an atomic store, so any number of goroutines may read
// a View of the dictionary while its one writer adds keys beyond it.
package dict

import (
	"hash/maphash"
	"slices"
	"sync/atomic"
)

// seed hashes every dictionary of the process alike, so two built by the
// same Puts are equal.
var seed = maphash.MakeSeed()

// View is the dictionary up to one length: the ids below Len. A Dict's
// own View is all of it; Frozen's stays as it was.
type View struct {
	table []atomic.Uint32 // open-addressed, a power of two: id+1, 0 empty
	ends  []uint32        // id → end of the key's bytes in text
	text  []byte          // every key's bytes, in id order
}

// Len returns the number of keys the view covers.
func (d *View) Len() int { return len(d.ends) }

// span returns where the bytes of an id below Len lie in text.
func (d *View) span(id uint32) (start, end uint32) {
	if id > 0 {
		start = d.ends[id-1]
	}
	return start, d.ends[id]
}

// Key returns the bytes of an id below Len, in place in the arena; the
// caller must not write them.
func (d *View) Key(id uint32) []byte {
	start, end := d.span(id)
	return d.text[start:end:end]
}

// Find returns key's id, or -1 when the view does not hold it.
func (d *View) Find(key string) int32 {
	id, _ := d.find(key)
	return id
}

// find returns key's id, or -1 and the empty table slot where it would
// go. A slot holding an id the view does not cover is some later key's,
// or key's own, which the view must not see: either way the probe goes
// on, and ends at an empty slot.
func (d *View) find(key string) (int32, int) {
	if len(d.table) == 0 {
		return -1, 0
	}
	n, mask := uint32(len(d.ends)), uint64(len(d.table)-1)
	for i := maphash.String(seed, key) & mask; ; i = (i + 1) & mask {
		e := d.table[i].Load()
		if e == 0 {
			return -1, int(i)
		}
		if e <= n {
			if start, end := d.span(e - 1); string(d.text[start:end]) == key {
				return int32(e - 1), int(i)
			}
		}
	}
}

// Dict is the writer of a dictionary. The zero value is empty. A Dict is
// single-writer; its Frozen views may be read meanwhile.
type Dict struct{ View }

// Put returns key's id, adding key when it is absent; added reports
// which. A new key's bytes are copied into the arena: keys are often
// windows of a larger text, which the dictionary would otherwise keep
// reachable.
func (d *Dict) Put(key string) (id uint32, added bool) {
	found, slot := d.find(key)
	if found >= 0 {
		return uint32(found), false
	}
	if 4*(len(d.ends)+1) > 3*len(d.table) {
		d.grow()
		_, slot = d.find(key)
	}
	id = uint32(len(d.ends))
	d.text = append(d.text, key...)
	d.ends = append(d.ends, uint32(len(d.text)))
	d.table[slot].Store(id + 1)
	return id, true
}

// grow rehashes every key into a table twice the size. The old table
// stays as it is for the views that hold it: they never see a key added
// after it was replaced, and at least a quarter of its slots stay empty,
// so every probe of it ends.
func (d *Dict) grow() {
	table := make([]atomic.Uint32, max(64, 2*len(d.table)))
	mask := uint64(len(table) - 1)
	for id := range uint32(len(d.ends)) {
		start, end := d.span(id)
		i := maphash.Bytes(seed, d.text[start:end]) & mask
		for table[i].Load() != 0 {
			i = (i + 1) & mask
		}
		table[i].Store(id + 1)
	}
	d.table = table
}

// Frozen returns the dictionary as it is now. It copies nothing: the
// view shares the table and the arena, and the writer only appends
// beyond what it records.
func (d *Dict) Frozen() View {
	return View{table: d.table, ends: slices.Clip(d.ends), text: slices.Clip(d.text)}
}
