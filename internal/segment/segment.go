// Package segment is the on-disk LSM tier behind the online resolver:
// an in-memory memtable (owned by the caller) flushes immutable, sorted,
// CRC-sealed segment files; a manifest tracks the live segment set and
// its tombstones through atomic generation swaps; and a background merge
// folds small segments together, garbage-collecting tombstoned entities.
// Readers scatter exact EpsJoin/FlatKNN/KNNJoin queries across the live
// segments, one part of canonically ordered hits per segment, which the
// shard gathers with its memtable's (internal/hit), so a disk-backed
// resolver answers byte-identically to the in-memory one.
//
// Both file formats (ERSEG, ERMAN) are framed by internal/frame and read
// resident: frame.Verify checks the whole-stream CRC before the first
// field is parsed. DESIGN.md "Persisted formats" has the table.
package segment

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"

	"erfilter/internal/entity"
	"erfilter/internal/frame"
	"erfilter/internal/hit"
	"erfilter/internal/knn"
	"erfilter/internal/sparse"
	"erfilter/internal/vector"
)

const (
	// segMagic identifies a segment file and its format version.
	segMagic = "ERSEG\x01\n\x00"
	// maxSegCount bounds the entity count of a single segment file.
	maxSegCount = 1 << 31
	// maxSetSize bounds one entity's token-set size.
	maxSetSize = 1 << 20
)

// Kind selects what a segment indexes: token sets for the sparse
// (EpsJoin/KNNJoin) methods or dense vectors for FlatKNN.
type Kind uint8

const (
	// KindSparse segments store per-entity token sets as postings.
	KindSparse Kind = iota
	// KindDense segments store one dim-width vector per entity.
	KindDense
)

// Entry is one entity bound for a segment: its id, raw attributes
// (retained for Get and snapshot capture), and the derived index
// payload — unique token strings for sparse kinds, an embedding for
// dense kinds. Entries are self-contained: segments persist token
// strings, not vocabulary codes, so no global dictionary outlives the
// memtable.
type Entry struct {
	ID     int64
	Attrs  []entity.Attribute
	Tokens []string
	Vec    vector.Vec
}

// writeSegment encodes the entries, which must be sorted by strictly
// ascending id, in the ERSEG format (DESIGN.md §16 has the layout): a
// header, then contiguous sections — ids, sparse set sizes, the sorted
// token table, postings grouped by token in ascending slot order, dense
// vectors, attribute-block offsets, attribute blocks — a footer of the
// section offsets, and the trailer.
func writeSegment(w io.Writer, kind Kind, dim int, ents []Entry) error {
	if len(ents) == 0 {
		return fmt.Errorf("segment: refusing to write empty segment")
	}
	if len(ents) >= maxSegCount {
		return fmt.Errorf("segment: %d entries exceed the per-segment limit", len(ents))
	}
	for i, e := range ents {
		if i > 0 && e.ID <= ents[i-1].ID {
			return fmt.Errorf("segment: entries not strictly ascending at index %d (id %d)", i, e.ID)
		}
		switch kind {
		case KindSparse:
			if e.Vec != nil {
				return fmt.Errorf("segment: sparse entry %d carries a vector", e.ID)
			}
		case KindDense:
			if len(e.Vec) != dim {
				return fmt.Errorf("segment: entry %d vector dim %d, segment dim %d", e.ID, len(e.Vec), dim)
			}
		}
	}

	var toks []string
	posts := map[string][]uint32{}
	var nposts uint64
	if kind == KindSparse {
		for slot, e := range ents {
			for _, tok := range e.Tokens {
				l := posts[tok]
				if len(l) > 0 && l[len(l)-1] == uint32(slot) {
					return fmt.Errorf("segment: entry %d repeats token %q", e.ID, tok)
				}
				posts[tok] = append(l, uint32(slot))
				nposts++
			}
		}
		toks = make([]string, 0, len(posts))
		for tok := range posts {
			toks = append(toks, tok)
		}
		sort.Strings(toks)
	}

	b := frame.NewWriter(w)
	b.Magic(segMagic)
	b.U8(uint8(kind))
	b.U32(uint32(len(ents)))
	if kind == KindDense {
		b.U32(uint32(dim))
	} else {
		b.U32(0)
	}
	b.U32(uint32(len(toks)))
	b.U64(nposts)

	idsOff := b.Offset()
	for _, e := range ents {
		b.U64(uint64(e.ID))
	}
	sizesOff := b.Offset()
	if kind == KindSparse {
		for _, e := range ents {
			b.U32(uint32(len(e.Tokens)))
		}
	}
	toksOff := b.Offset()
	for _, tok := range toks {
		b.Str(tok)
		b.U32(uint32(len(posts[tok])))
	}
	postsOff := b.Offset()
	for _, tok := range toks {
		for _, slot := range posts[tok] {
			b.U32(slot)
		}
	}
	vecsOff := b.Offset()
	if kind == KindDense {
		for _, e := range ents {
			for _, x := range e.Vec {
				b.F32(x)
			}
		}
	}
	attrOffsOff := b.Offset()
	off := uint64(0)
	for _, e := range ents {
		b.U64(off)
		off += uint64(frame.AttrsLen(e.Attrs))
	}
	attrsOff := b.Offset()
	for _, e := range ents {
		frame.PutAttrs(b, e.Attrs)
	}
	// Footer: absolute section offsets so a reader can locate sections
	// without replaying the header arithmetic; Load cross-checks each
	// against the offsets it observed while walking.
	for _, o := range []int64{idsOff, sizesOff, toksOff, postsOff, vecsOff, attrOffsOff, attrsOff, b.Offset()} {
		b.U64(uint64(o))
	}
	return b.Trailer()
}

// Reader is one loaded, immutable segment. The raw stream stays mapped
// (or resident, for in-memory filesystems) for the reader's lifetime;
// only the token table lives on the Go heap, so a reader's footprint is
// O(distinct tokens), not O(entities). All methods are safe for
// concurrent use.
type Reader struct {
	name  string
	kind  Kind
	count int
	dim   int
	data  []byte
	unmap func() error

	minID, maxID int64

	idsOff, sizesOff, postsOff, vecsOff, attrOffsOff, attrsOff int

	toks    []string
	postOff []int64 // absolute byte offset of each token's postings
	postLen []int32

	scratch sync.Pool
}

// Load parses and fully validates a segment stream before any use: CRC
// first, then magic, then every structural invariant — ascending ids,
// sorted unique tokens, contiguous postings whose per-slot totals equal
// the recorded set sizes, bounded strings, attribute blocks at exactly
// their recorded offsets, and a footer that matches the walked section
// layout. A segment that loads cannot lie.
func Load(data []byte, name string, unmap func() error) (*Reader, error) {
	body, err := frame.Verify(data)
	if err != nil {
		return nil, err
	}
	c := frame.At(body, 0)
	c.Magic(segMagic)
	kind, count, dim, ntoks, nposts := Kind(c.U8()), int(c.U32()), int(c.U32()), int(c.U32()), c.U64()
	if c.Err() != nil {
		return nil, c.Err()
	}
	if kind != KindSparse && kind != KindDense {
		return nil, fmt.Errorf("segment: unknown kind %d", kind)
	}
	if count < 1 || count >= maxSegCount {
		return nil, fmt.Errorf("segment: invalid entity count %d", count)
	}
	switch kind {
	case KindSparse:
		if dim != 0 {
			return nil, fmt.Errorf("segment: sparse segment declares dim %d", dim)
		}
	case KindDense:
		if dim < 1 || dim > 1<<16 {
			return nil, fmt.Errorf("segment: invalid dim %d", dim)
		}
		if ntoks != 0 || nposts != 0 {
			return nil, fmt.Errorf("segment: dense segment declares tokens")
		}
	}
	if uint64(ntoks) > nposts || nposts > uint64(count)*maxSetSize {
		return nil, fmt.Errorf("segment: inconsistent token counts (%d tokens, %d postings)", ntoks, nposts)
	}

	g := &Reader{name: name, kind: kind, count: count, dim: dim, data: data, unmap: unmap}
	g.scratch.New = func() interface{} { return &sparse.Scratch{} }

	// The fixed-width sections are taken whole — a short one fails the
	// cursor — and checked through the accessors the queries use.
	g.idsOff = c.Offset()
	c.Take(count * 8)
	g.sizesOff = c.Offset()
	if kind == KindSparse {
		c.Take(count * 4)
	}
	if c.Err() != nil {
		return nil, c.Err()
	}
	g.minID, g.maxID = g.id(0), g.id(count-1)
	var sizeSum uint64
	for i := 0; i < count; i++ {
		if i > 0 && g.id(i) <= g.id(i-1) {
			return nil, fmt.Errorf("segment: ids not strictly ascending at slot %d", i)
		}
		if kind == KindSparse {
			if g.size(i) > maxSetSize {
				return nil, fmt.Errorf("segment: token-set size %d exceeds limit", g.size(i))
			}
			sizeSum += uint64(g.size(i))
		}
	}
	if sizeSum != nposts {
		return nil, fmt.Errorf("segment: set sizes sum to %d, postings claim %d", sizeSum, nposts)
	}

	toksOff := c.Offset()
	if ntoks > c.Rest()/8 {
		return nil, fmt.Errorf("segment: %d tokens claimed in %d bytes", ntoks, c.Rest())
	}
	g.toks = make([]string, ntoks)
	g.postLen = make([]int32, ntoks)
	var total uint64
	for i := range g.toks {
		g.toks[i] = c.Str()
		n := c.U32()
		if c.Err() != nil {
			return nil, c.Err()
		}
		if i > 0 && g.toks[i] <= g.toks[i-1] {
			return nil, fmt.Errorf("segment: tokens not sorted unique at %d", i)
		}
		if n < 1 || uint64(n) > nposts {
			return nil, fmt.Errorf("segment: token %q has invalid posting count %d", g.toks[i], n)
		}
		g.postLen[i] = int32(n)
		total += uint64(n)
	}
	if total != nposts {
		return nil, fmt.Errorf("segment: posting counts sum to %d, header claims %d", total, nposts)
	}

	g.postsOff = c.Offset()
	if c.Take(int(nposts) * 4); c.Err() != nil {
		return nil, c.Err()
	}
	if kind == KindSparse {
		// Per-token postings must be strictly ascending slots, and the
		// number of postings naming each slot must equal its recorded
		// set size — the two sides of the inverted index must agree.
		perSlot := make([]uint32, count)
		g.postOff = make([]int64, ntoks)
		off := int64(g.postsOff)
		for i := range g.toks {
			g.postOff[i] = off
			last := int64(-1)
			for end := off + 4*int64(g.postLen[i]); off < end; off += 4 {
				slot := binary.LittleEndian.Uint32(body[off:])
				if int64(slot) <= last || int(slot) >= count {
					return nil, fmt.Errorf("segment: bad posting slot %d for token %q", slot, g.toks[i])
				}
				last = int64(slot)
				perSlot[slot]++
			}
		}
		for slot := 0; slot < count; slot++ {
			if int(perSlot[slot]) != g.size(slot) {
				return nil, fmt.Errorf("segment: slot %d posting total disagrees with its set size", slot)
			}
		}
	}

	g.vecsOff = c.Offset()
	if kind == KindDense {
		c.Take(count * dim * 4)
	}
	g.attrOffsOff = c.Offset()
	if c.Take(count*8) == nil {
		return nil, c.Err()
	}
	g.attrsOff = c.Offset()
	for i := 0; i < count; i++ {
		want := binary.LittleEndian.Uint64(body[g.attrOffsOff+8*i:])
		if uint64(c.Offset()-g.attrsOff) != want {
			return nil, fmt.Errorf("segment: attr block %d at offset %d, recorded %d", i, c.Offset()-g.attrsOff, want)
		}
		if frame.SkipAttrs(&c); c.Err() != nil {
			return nil, c.Err()
		}
	}

	attrsEnd := c.Offset()
	for i, want := range []int{g.idsOff, g.sizesOff, toksOff, g.postsOff, g.vecsOff, g.attrOffsOff, g.attrsOff, attrsEnd} {
		if got := int64(c.U64()); c.Err() == nil && got != int64(want) {
			return nil, fmt.Errorf("segment: footer offset %d is %d, observed %d", i, got, want)
		}
	}
	if c.Err() != nil {
		return nil, c.Err()
	}
	if c.Rest() != 0 {
		return nil, fmt.Errorf("segment: %d trailing bytes after footer", c.Rest())
	}
	return g, nil
}

// Close releases the underlying mapping, if any. Queries against a
// closed reader are undefined; the tier only closes readers once no
// snapshot can still reach them.
func (g *Reader) Close() error {
	if g.unmap != nil {
		u := g.unmap
		g.unmap = nil
		return u()
	}
	return nil
}

// Count returns the number of entities stored (live or tombstoned).
func (g *Reader) Count() int { return g.count }

// Bytes returns the on-disk size of the segment stream.
func (g *Reader) Bytes() int64 { return int64(len(g.data)) }

// Name returns the segment's file name within the tier directory.
func (g *Reader) Name() string { return g.name }

func (g *Reader) id(slot int) int64 {
	return int64(binary.LittleEndian.Uint64(g.data[g.idsOff+8*slot:]))
}

func (g *Reader) size(slot int) int {
	return int(binary.LittleEndian.Uint32(g.data[g.sizesOff+4*slot:]))
}

// slotOf binary-searches the ids section, returning -1 when absent.
func (g *Reader) slotOf(id int64) int {
	if id < g.minID || id > g.maxID {
		return -1
	}
	lo, hi := 0, g.count
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if g.id(mid) < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < g.count && g.id(lo) == id {
		return lo
	}
	return -1
}

// has reports whether the segment stores the id (ignoring tombstones,
// which the tier tracks).
func (g *Reader) has(id int64) bool { return g.slotOf(id) >= 0 }

// attrs decodes the attribute block of a slot.
func (g *Reader) attrs(slot int) []entity.Attribute {
	c := frame.At(g.data, g.attrsOff+int(binary.LittleEndian.Uint64(g.data[g.attrOffsOff+8*slot:])))
	return frame.TakeAttrs[entity.Attribute](&c)
}

// vec decodes the vector of a slot into dst, which must be dim wide.
func (g *Reader) vec(slot int, dst vector.Vec) {
	base := g.vecsOff + slot*g.dim*4
	for j := 0; j < g.dim; j++ {
		dst[j] = math.Float32frombits(binary.LittleEndian.Uint32(g.data[base+4*j:]))
	}
}

// tokens reconstructs the token list of every slot by inverting the
// postings — used by merge, which must rewrite entries verbatim.
// Within a slot, tokens come out in sorted order; writeSegment does
// not care about per-entry token order, only uniqueness.
func (g *Reader) tokens() [][]string {
	out := make([][]string, g.count)
	for i := 0; i < g.count; i++ {
		if n := g.size(i); n > 0 {
			out[i] = make([]string, 0, n)
		}
	}
	for t, tok := range g.toks {
		base := g.postOff[t]
		for j := int32(0); j < g.postLen[t]; j++ {
			slot := binary.LittleEndian.Uint32(g.data[base+int64(4*j):])
			out[slot] = append(out[slot], tok)
		}
	}
	return out
}

// entries materializes every stored entity (live or not) as flushable
// entries — the merge path's input.
func (g *Reader) entries() []Entry {
	out := make([]Entry, g.count)
	var toks [][]string
	if g.kind == KindSparse {
		toks = g.tokens()
	}
	for i := range out {
		out[i] = Entry{ID: g.id(i), Attrs: g.attrs(i)}
		if g.kind == KindSparse {
			out[i].Tokens = toks[i]
		} else {
			v := make(vector.Vec, g.dim)
			g.vec(i, v)
			out[i].Vec = v
		}
	}
	return out
}

// scan is sparse.IncSnapshot's ScanCount over this segment's postings:
// unknown tokens are skipped, and sc is left holding every slot that
// shares a token with the query and its integer overlap.
func (g *Reader) scan(query []string, sc *sparse.Scratch) {
	sc.Begin(g.count)
	for _, tok := range query {
		t := sort.SearchStrings(g.toks, tok)
		if t == len(g.toks) || g.toks[t] != tok {
			continue
		}
		base := g.postOff[t]
		for j := int32(0); j < g.postLen[t]; j++ {
			sc.Touch(int32(binary.LittleEndian.Uint32(g.data[base+int64(4*j):])))
		}
	}
}

// rangeQuery returns every live stored set with sim >= eps against the
// query token set, in the canonical hit order — the same answer
// sparse.IncSnapshot.RangeQuery gives over the same entities, because
// both compute the identical integer overlap and the identical
// Measure.Sim call.
func (g *Reader) rangeQuery(query []string, m sparse.Measure, eps float64, dead func(int64) bool) []hit.Hit {
	sc := g.scratch.Get().(*sparse.Scratch)
	defer g.scratch.Put(sc)
	qs := len(query)
	var out []hit.Hit
	g.scan(query, sc)
	for _, slot := range sc.Found() {
		id := g.id(int(slot))
		if dead(id) {
			continue
		}
		if sim := m.Sim(sc.Overlap(slot), qs, g.size(int(slot))); sim >= eps {
			out = append(out, hit.Hit{ID: id, Score: sim})
		}
	}
	hit.Sort(out)
	return out
}

// knnQuery returns live candidates with positive similarity, in the
// canonical hit order and cut to k distinct similarity values with full
// tie groups — sparse.IncSnapshot.KNNQuery's exact contract, by the same
// two-pass selection: find the k-th distinct live similarity, keep what
// reaches it, sort only that.
func (g *Reader) knnQuery(query []string, m sparse.Measure, k int, dead func(int64) bool) []hit.Hit {
	if k <= 0 {
		return nil
	}
	sc := g.scratch.Get().(*sparse.Scratch)
	defer g.scratch.Put(sc)
	qs := len(query)
	g.scan(query, sc)
	found := sc.Found()
	sims := sc.Sims[:0] // sims[i] is the similarity of found[i]
	for _, slot := range found {
		sim := 0.0 // a tombstoned entity is no candidate
		if !dead(g.id(int(slot))) {
			sim = m.Sim(sc.Overlap(slot), qs, g.size(int(slot)))
		}
		sims = append(sims, sim)
	}
	sc.Sims = sims
	floor := sparse.KNNFloor(sims, k)
	var out []hit.Hit
	for i, sim := range sims {
		if sim >= floor {
			out = append(out, hit.Hit{ID: g.id(int(found[i])), Score: sim})
		}
	}
	hit.Sort(out)
	return out
}

// denseSearch scans every live vector and keeps the k best hits under
// the negated metric score — the selection knn.FlatSnapshot.Search runs,
// over bits decoded exactly as they were written.
func (g *Reader) denseSearch(q vector.Vec, k int, metric knn.Metric, dead func(int64) bool) []hit.Hit {
	top := hit.TopK{K: k}
	vbuf := make(vector.Vec, g.dim)
	for slot := 0; slot < g.count; slot++ {
		id := g.id(slot)
		if dead(id) {
			continue
		}
		g.vec(slot, vbuf)
		top.Offer(hit.Hit{ID: id, Score: -metric.Score(q, vbuf)})
	}
	return top.Sorted()
}
