package online

import (
	"encoding/binary"
	"strings"

	"erfilter/internal/entity"
	"erfilter/internal/slots"
)

// The memtable keeps each resident entity's attributes as one packed
// record in an append-only arena, found through the entity's slot in the
// memtable index's slot table:
//
//	record := uvarint count, count × {uvarint nameID, uvarint len, value bytes}
//
// Names are interned once per arena in an append-only list. Records are
// appended into pages and never span two. The first page is firstPage
// bytes and each next one twice the last, up to pageSize, so a small
// memtable holds little more than its records; a record larger than the
// next page gets a page of its own. Written bytes are never rewritten,
// so a reader that captured an arenaView under the shard's lock decodes
// after the unlock while the writer appends.

// firstPage and pageSize are the sizes of an arena's first page and of
// its largest.
const (
	firstPage = 4 << 10
	pageSize  = 64 << 10
)

// arena is the writer's side. Compaction and flush do not edit it: they
// start another, so every captured view stays as it was.
type arena struct {
	arenaView
	nameID map[string]uint64 // name → index in names
	used   int               // bytes written into the last page
	locs   []uint64          // slot → page<<32 | offset of its record
}

// arenaView is an arena as of one instant. Pages are allocated at their
// full length, so neither the page list's entries below its length nor
// the bytes of a record written before the capture ever change.
type arenaView struct {
	names []string // name id → name
	pages [][]byte
}

// put stores attrs as the record of slot: the next slot, or one of the
// locators Resolver.fill sized for an adopted graph (whose tombstoned
// slots keep locator 0 and are never decoded).
func (a *arena) put(slot int32, attrs []entity.Attribute) {
	if int(slot) == len(a.locs) {
		a.locs = append(a.locs, 0)
	}
	var buf [8]uint64
	ids := buf[:0]
	size := uvarintLen(uint64(len(attrs)))
	for _, at := range attrs {
		id := a.intern(at.Name)
		ids = append(ids, id)
		size += uvarintLen(id) + uvarintLen(uint64(len(at.Value))) + len(at.Value)
	}
	page, off := a.reserve(size)
	rec := page[off : off : off+size] // exactly size: the appends never reallocate
	rec = binary.AppendUvarint(rec, uint64(len(attrs)))
	for i, at := range attrs {
		rec = binary.AppendUvarint(rec, ids[i])
		rec = binary.AppendUvarint(rec, uint64(len(at.Value)))
		rec = append(rec, at.Value...)
	}
	a.locs[slot] = uint64(len(a.pages)-1)<<32 | uint64(off)
}

// intern returns the id of name, adding a copy of it to the list when it
// is new: the caller's string may point into a larger buffer.
func (a *arena) intern(name string) uint64 {
	if id, ok := a.nameID[name]; ok {
		return id
	}
	if a.nameID == nil {
		a.nameID = make(map[string]uint64)
	}
	name = strings.Clone(name)
	id := uint64(len(a.names))
	a.nameID[name] = id
	a.names = append(a.names, name)
	return id
}

// reserve returns the page and offset of size fresh bytes, starting a
// page when the last one cannot hold them.
func (a *arena) reserve(size int) ([]byte, int) {
	if len(a.pages) == 0 || a.used+size > len(a.pages[len(a.pages)-1]) {
		a.pages = append(a.pages, make([]byte, max(nextPage(len(a.pages)), size)))
		a.used = 0
	}
	off := a.used
	a.used += size
	return a.pages[len(a.pages)-1], off
}

// nextPage is the size of page i of an arena, before a record larger
// than it widens it: firstPage doubled i times, at most pageSize.
func nextPage(i int) int {
	n := firstPage
	for ; i > 0 && n < pageSize; i-- {
		n *= 2
	}
	return n
}

// keep is the arena after a slot-table Compact: the surviving records,
// carried through the remap, copied into fresh pages under a fresh name
// list.
func (a *arena) keep(remap []int32) arena {
	var out arena
	for slot, loc := range slots.Keep(a.locs, remap) {
		out.put(int32(slot), a.attrs(loc))
	}
	return out
}

// attrs decodes the record at loc into a fresh slice: two allocations,
// the slice and one string holding every value. Names are the interned
// strings.
func (v *arenaView) attrs(loc uint64) []entity.Attribute {
	rec := record(v.pages[loc>>32][uint32(loc):])
	n := rec.uvarint()
	total := 0
	for i, r := 0, rec; i < n; i++ {
		r.uvarint()
		l := r.uvarint()
		r = r[l:]
		total += l
	}
	out := make([]entity.Attribute, n)
	var b strings.Builder
	b.Grow(total) // every value lands in this one buffer
	for i := range out {
		name, l := rec.uvarint(), rec.uvarint()
		at := b.Len()
		b.Write(rec[:l])
		rec = rec[l:]
		out[i] = entity.Attribute{Name: v.names[name], Value: b.String()[at:]}
	}
	return out
}

// record is the unread rest of a record.
type record []byte

func (r *record) uvarint() int {
	v, n := binary.Uvarint(*r)
	*r = (*r)[n:]
	return int(v)
}

func uvarintLen(x uint64) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}
