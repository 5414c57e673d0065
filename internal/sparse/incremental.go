package sparse

import (
	"slices"

	"erfilter/internal/slots"
)

// Scratch is the ScanCount counter array of one query: per slot, how
// many of the query's tokens its set shares. Indexes are immutable when
// queried and may be queried from many goroutines at once, so each
// goroutine brings its own Scratch (typically from a sync.Pool, or one per
// batch prober); the zero value is ready to use and grows on demand. An
// Index decodes its posting lists (touch), the on-disk segment reader its
// int32 runs, into the same three steps: Begin, Touch per posting, then
// Each, or Found and Overlap; a kNN probe of either then fills Sims and
// ends in KNNCut. A Scratch holds nothing of one source past the next
// Begin, so one Scratch serves any sources in turn: the online shard
// takes one from its pool per query and hands it to its memtable and
// every segment.
//
// The array is dense on purpose: at ER's low thresholds a query shares a
// token with nearly every set, so zeroing n counts at Begin and one
// branch-free increment a posting beat tracking the touched slots.
type Scratch struct {
	counts []int32
	n      int // slots of the scan since the last Begin
	found  []int32
	// Sims is the caller's: a kNN probe keeps the similarity of every
	// found slot here between its two passes, reusing the array.
	Sims []float64
}

// minScratch is the fewest slots a Scratch allocates, 4 KiB: growing by
// a quarter from one slot would reallocate a dozen times on the way.
const minScratch = 1024

// Begin starts a scan over an index of n slots, every count zero. The
// array grows to cover them, by at least a quarter when it must
// reallocate: a pooled Scratch serving an index that gains one slot per
// insert then reallocates O(log n) times, not once per insert, and its
// counts hold 4 B a slot (5 with the quarter's slack).
func (sc *Scratch) Begin(n int) {
	if len(sc.counts) < n {
		sc.counts = make([]int32, max(n, len(sc.counts)+len(sc.counts)/4, minScratch))
	} else {
		clear(sc.counts[:n])
	}
	sc.n = n
}

// Touch counts one posting of slot: one more query token its set holds.
func (sc *Scratch) Touch(slot int32) { sc.counts[slot]++ }

// Found returns the slots touched since Begin, in ascending order; the
// slice is valid until the next Begin or Found.
func (sc *Scratch) Found() []int32 {
	found := sc.found[:0]
	for slot, c := range sc.counts[:sc.n] {
		if c != 0 {
			found = append(found, int32(slot))
		}
	}
	sc.found = found
	return found
}

// Each calls fn with every slot touched since Begin and its overlap, in
// ascending slot order — Found and Overlap for a caller that only walks
// them, without materialising the slots.
func (sc *Scratch) Each(fn func(slot int32, overlap int)) {
	for slot, c := range sc.counts[:sc.n] {
		if c != 0 {
			fn(int32(slot), int(c))
		}
	}
}

// Overlap returns how often a found slot was touched.
func (sc *Scratch) Overlap(slot int32) int { return int(sc.counts[slot]) }

// touch counts every slot of a posting list (see post). The inner loop
// runs between escapes, so a list that never leaves block 0 is one range
// loop with one compare and one OR a posting more than a list of int32s.
func (sc *Scratch) touch(list []uint16) {
	var base int32
next:
	for {
		for i, v := range list {
			if v == escape {
				if v = list[i+1]; v != escape {
					base = int32(v) << 16
				} else {
					sc.Touch(base | escape)
				}
				list = list[i+2:]
				continue next
			}
			sc.Touch(base | int32(v))
		}
		return
	}
}

// each calls fn with every slot of a posting list, in order: touch's
// decoding for the callers off the probe path.
func each(list []uint16, fn func(slot int32)) {
	var base int32
next:
	for {
		for i, v := range list {
			if v == escape {
				if v = list[i+1]; v != escape {
					base = int32(v) << 16
				} else {
					fn(base | escape)
				}
				list = list[i+2:]
				continue next
			}
			fn(base | int32(v))
		}
		return
	}
}

// IncIndex is the incremental variant of the ScanCount inverted index: it
// supports Add and Remove of token sets identified by stable external
// int64 ids, deletion by tombstone, periodic compaction, and Freeze, which
// publishes an immutable point-in-time Index for lock-free concurrent
// queries, which answers by id over the sets live at that instant. Slots
// are assigned append-only and compaction preserves their order.
//
// Add is amortised O(len(set)): the token → posting-list table grows by
// pages and every posting list geometrically, so loading n sets over a
// vocabulary of V tokens allocates and copies O(V + total tokens) bytes
// however the new token ids arrive — a bulk load is linear, which is what
// makes indexing the cheap phase of a sparse NN method. The table is
// copy-on-write (slots.Paged): after a Freeze, Add copies the page of
// each header it changes, once, so a publish costs the pages its writes
// touched. A list is 2 bytes a posting (see post); the block of each
// token's last slot is the writer's alone, beside the table.
//
// An IncIndex itself is a single-writer structure: Add, Remove, Compact
// and Freeze must be externally serialized. Snapshots taken by Freeze stay
// valid and immutable forever after. Ids, tombstones, Len, Dead, Remove
// and Has are the embedded slot table's.
type IncIndex struct {
	slots.Table
	postings slots.Paged[[]uint16] // token id → posting list of the slots holding it
	blocks   []uint16              // token id → block of its list's last slot; Freeze leaves it
	sizes    []int32               // slot → token-set size
}

// NewIncIndex returns an empty incremental index.
func NewIncIndex() *IncIndex { return &IncIndex{} }

// Add indexes the token set under the external id. Token ids may exceed
// anything seen before; the posting table grows as needed. It is an error
// to add an id that is currently indexed (Remove it first).
func (x *IncIndex) Add(id int64, set []int32) error {
	slot, err := x.Table.Add(id)
	if err != nil {
		return err
	}
	x.sizes = append(x.sizes, int32(len(set)))
	for _, tok := range set {
		if grow := int(tok) + 1 - len(x.blocks); grow > 0 {
			x.postings.Grow(int(tok) + 1)
			x.blocks = append(x.blocks, make([]uint16, grow)...)
		}
		list := x.postings.Ref(int(tok))
		*list = post(*list, &x.blocks[tok], slot)
	}
	return nil
}

// Postings calls fn with every slot of token tok's posting list in
// ascending order, tombstoned slots included; a token no set has held
// has none. With Size it reads the index back in its inverted form.
func (x *IncIndex) Postings(tok int32, fn func(slot int32)) {
	if int(tok) < x.postings.Len() {
		each(x.postings.At(int(tok)), fn)
	}
}

// Size returns the token-set size of slot.
func (x *IncIndex) Size(slot int32) int { return int(x.sizes[slot]) }

// Compact rewrites the index without the tombstoned slots, preserving the
// relative order of the survivors. All arrays are freshly allocated, so
// previously frozen snapshots remain valid and unchanged. Each list is
// decoded, remapped, re-encoded and copied out at exactly its length.
// It returns the slot table's remap (nil when nothing was dead), so an
// owner of per-slot state beside the index can carry it through.
func (x *IncIndex) Compact() []int32 {
	remap := x.Table.Compact()
	if remap == nil {
		return nil
	}
	x.sizes = slots.Keep(x.sizes, remap)
	var postings slots.Paged[[]uint16]
	postings.Grow(x.postings.Len())
	blocks := make([]uint16, len(x.blocks))
	var buf []uint16
	for tok := range x.postings.Len() {
		buf = buf[:0]
		each(x.postings.At(tok), func(slot int32) {
			if ns := remap[slot]; ns >= 0 {
				buf = post(buf, &blocks[tok], ns)
			}
		})
		if len(buf) > 0 {
			*postings.Ref(tok) = append(make([]uint16, 0, len(buf)), buf...)
		}
	}
	x.postings, x.blocks = postings, blocks
	return remap
}

// Freeze publishes an immutable point-in-time snapshot, an Index whose
// view is the slot table's at this instant: it shares the append-only
// posting lists and sizes with the index (a later Add may extend a shared
// backing array, a block switch included, strictly beyond the snapshot's
// recorded lengths, which the snapshot never reads) and every page of the
// header table and the tombstone bitmap, which the writer copies before
// it next changes one. Cost is the two page directories, O(tokens/16 +
// slots/1024) pointers; no header, bit or set data is copied, and the
// writer's per-token blocks are not either. Any number of goroutines may
// query the snapshot, each with its own Scratch; it never observes later
// writes.
func (x *IncIndex) Freeze() *Index {
	return &Index{View: x.Table.Freeze(), postings: x.postings.Freeze(), sizes: slices.Clip(x.sizes)}
}
