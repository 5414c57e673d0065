package sparse

import (
	"slices"

	"erfilter/internal/hit"
	"erfilter/internal/slots"
)

// Scratch is the stamped ScanCount accumulator of one query: per slot,
// how many of the query's tokens its set shares. Indexes are immutable
// when queried and may be queried from many goroutines at once, so each
// goroutine brings its own Scratch (typically from a sync.Pool); the zero
// value is ready to use and grows on demand. The in-memory snapshot and
// the on-disk segment reader walk different posting lists into the same
// three steps: Begin, Touch per posting, then Found and Overlap.
type Scratch struct {
	counts []int32
	// round/stamp are int64: a pooled Scratch lives for the process
	// lifetime, and a narrower counter could wrap and false-match a slot
	// stamped exactly one wrap earlier, inflating its overlap count.
	stamp []int64
	round int64
	found []int32
	// Sims is the caller's: a kNN probe keeps the similarity of every
	// found slot here between its two passes, reusing the array.
	Sims []float64
}

// Begin starts a scan over an index of n slots. The buffers grow to cover
// them, at least doubling when they must reallocate: a pooled Scratch
// serving an index that gains one slot per insert then reallocates
// O(log n) times, not once per insert. New entries are zeroed, which is
// safe because rounds start at 1: a zero stamp never equals a live round.
func (sc *Scratch) Begin(n int) {
	if len(sc.counts) < n {
		n = max(n, 2*len(sc.counts))
		sc.counts, sc.stamp = make([]int32, n), make([]int64, n)
	}
	sc.round++
	sc.found = sc.found[:0]
}

// Touch counts one posting of slot: one more query token its set holds.
func (sc *Scratch) Touch(slot int32) {
	if sc.stamp[slot] != sc.round {
		sc.stamp[slot] = sc.round
		sc.counts[slot] = 0
		sc.found = append(sc.found, slot)
	}
	sc.counts[slot]++
}

// Found returns the slots touched since Begin, in first-touch order; the
// slice is valid until the next Begin.
func (sc *Scratch) Found() []int32 { return sc.found }

// Overlap returns how often a found slot was touched.
func (sc *Scratch) Overlap(slot int32) int { return int(sc.counts[slot]) }

// IncIndex is the incremental variant of the ScanCount inverted index: it
// supports Add and Remove of token sets identified by stable external
// int64 ids, deletion by tombstone, periodic compaction, and Freeze, which
// publishes an immutable point-in-time Snapshot for lock-free concurrent
// queries.
//
// Slots are assigned append-only, so as long as ids are added in
// increasing order (the online resolver allocates them monotonically and
// never reuses one), slot order equals id order and every snapshot query
// is equal to the same query against a batch Index built with NewIndex
// over the surviving sets in ascending-id order — the property the
// equivalence tests check. Compaction preserves slot order, so the
// invariant survives any Add/Remove/Compact interleaving.
//
// Add is amortised O(len(set)): the token → posting-list table and every
// posting list grow geometrically, so loading n sets over a vocabulary of V
// tokens allocates and copies O(V + total tokens) bytes however the new
// token ids arrive — a bulk load is linear, which is what makes indexing
// the cheap phase of a sparse NN method. The table's spare capacity is
// invisible to snapshots: Freeze copies the table by length.
//
// An IncIndex itself is a single-writer structure: Add, Remove, Compact
// and Freeze must be externally serialized. Snapshots taken by Freeze stay
// valid and immutable forever after. Ids, tombstones, Len, Dead, Remove
// and Has are the embedded slot table's.
type IncIndex struct {
	slots.Table
	postings [][]int32 // token id → slots holding that token
	sizes    []int32   // slot → token-set size
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
		if grow := int(tok) + 1 - len(x.postings); grow > 0 {
			x.postings = append(x.postings, make([][]int32, grow)...)
		}
		x.postings[tok] = append(x.postings[tok], slot)
	}
	return nil
}

// Compact rewrites the index without the tombstoned slots, preserving the
// relative order of the survivors. All arrays are freshly allocated, so
// previously frozen snapshots remain valid and unchanged.
func (x *IncIndex) Compact() {
	remap := x.Table.Compact()
	if remap == nil {
		return
	}
	x.sizes = slots.Keep(x.sizes, remap)
	postings := make([][]int32, len(x.postings))
	for tok, list := range x.postings {
		var out []int32
		for _, slot := range list {
			if ns := remap[slot]; ns >= 0 {
				out = append(out, ns)
			}
		}
		postings[tok] = out
	}
	x.postings = postings
}

// Freeze publishes an immutable point-in-time snapshot. The snapshot
// shares the append-only posting lists and sizes with the index (a later
// Add may extend a shared backing array strictly beyond the snapshot's
// recorded lengths, which the snapshot never reads) and the slot table's
// view. Cost is O(tokens) header copies plus the tombstone bitmap; no set
// data is duplicated.
func (x *IncIndex) Freeze() *IncSnapshot {
	return &IncSnapshot{
		View:     x.Table.Freeze(),
		postings: append([][]int32(nil), x.postings...),
		sizes:    slices.Clip(x.sizes),
	}
}

// IncSnapshot is an immutable view of an IncIndex at one instant. Any
// number of goroutines may query it concurrently, each with its own
// Scratch; it never blocks and never observes later writes. Len is the
// view's: the live sets visible to the snapshot.
type IncSnapshot struct {
	slots.View
	postings [][]int32
	sizes    []int32
}

// scan merge-counts posting lists: it leaves in sc.found every slot, live
// or not, sharing at least one token with the query, and its overlap in
// sc.counts.
func (s *IncSnapshot) scan(query []int32, sc *Scratch) {
	sc.Begin(s.Slots())
	for _, tok := range query {
		if int(tok) >= len(s.postings) {
			continue
		}
		for _, slot := range s.postings[tok] {
			sc.Touch(slot)
		}
	}
}

// RangeQuery returns the live sets whose similarity to the query is at
// least eps, best first (ties broken by ascending id). It matches
// Index.RangeQuery over the surviving sets up to result order.
func (s *IncSnapshot) RangeQuery(query []int32, m Measure, eps float64, sc *Scratch) []hit.Hit {
	var out []hit.Hit
	qs := len(query)
	s.scan(query, sc)
	for _, slot := range sc.found {
		if !s.Live(slot) {
			continue
		}
		if sim := m.Sim(sc.Overlap(slot), qs, int(s.sizes[slot])); sim >= eps {
			out = append(out, hit.Hit{ID: s.ID(slot), Score: sim})
		}
	}
	hit.Sort(out)
	return out
}

// KNNQuery returns the live sets having the k highest distinct similarity
// values to the query, best first, with the same distinct-value tie
// semantics and the same two-pass selection as Index.KNNQuery.
// Zero-similarity sets are never returned.
func (s *IncSnapshot) KNNQuery(query []int32, m Measure, k int, sc *Scratch) []hit.Hit {
	if k <= 0 {
		return nil
	}
	s.scan(query, sc)
	qs := len(query)
	sims := sc.Sims[:0]
	for _, slot := range sc.found {
		sim := 0.0 // a tombstoned slot is no candidate
		if s.Live(slot) {
			sim = m.Sim(sc.Overlap(slot), qs, int(s.sizes[slot]))
		}
		sims = append(sims, sim)
	}
	sc.Sims = sims
	floor := KNNFloor(sims, k)
	var out []hit.Hit
	for i, sim := range sims {
		if sim >= floor {
			out = append(out, hit.Hit{ID: s.ID(sc.found[i]), Score: sim})
		}
	}
	hit.Sort(out)
	return out
}
