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
	"runtime"

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

// Entry is one entity bound for a segment slot: its id, its raw
// attributes (retained for Get and snapshot capture) and, in a dense
// segment, its embedding. A sparse segment's token sets arrive apart,
// already inverted.
type Entry struct {
	ID    int64
	Attrs []entity.Attribute
	Vec   vector.Vec
}

// Inverted is a sparse segment's token sets in the form the file lays
// them out: the tokens in strictly ascending byte order, Posts[t] the
// slots holding Toks[t] in strictly ascending order, and Sizes[slot] the
// size of slot's set. Tokens are bytes, so a flush hands over the
// memtable dictionary's and a merge its inputs' in place. Segments
// persist token bytes, not vocabulary codes, so no dictionary outlives
// the memtable it served.
type Inverted struct {
	Toks  [][]byte
	Posts [][]uint32
	Sizes []uint32
}

// writeSegment encodes the entries, which must be sorted by strictly
// ascending id, and for a sparse kind their inverted token sets (the
// zero Inverted for a dense one), in the ERSEG format (DESIGN.md §16 has
// the layout): a header, then contiguous sections — ids, sparse set
// sizes, the sorted token table, postings grouped by token in ascending
// slot order, dense vectors, attribute-block offsets, attribute blocks —
// a footer of the section offsets, and the trailer. The sections are the
// input written in order: nothing is sorted or re-derived here.
func writeSegment(w io.Writer, kind Kind, dim int, ents []Entry, inv Inverted) error {
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
	// The inverted form must fit the slots; its order is Load's to check,
	// and every flush and merge loads what it wrote.
	if kind == KindSparse && len(inv.Sizes) != len(ents) || kind == KindDense && len(inv.Sizes) != 0 || len(inv.Posts) != len(inv.Toks) {
		return fmt.Errorf("segment: %d set sizes and %d posting lists for %d slots and %d tokens", len(inv.Sizes), len(inv.Posts), len(ents), len(inv.Toks))
	}
	var nposts uint64
	for _, list := range inv.Posts {
		nposts += uint64(len(list))
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
	b.U32(uint32(len(inv.Toks)))
	b.U64(nposts)

	idsOff := b.Offset()
	for _, e := range ents {
		b.U64(uint64(e.ID))
	}
	sizesOff := b.Offset()
	for _, n := range inv.Sizes {
		b.U32(n)
	}
	toksOff := b.Offset()
	for t, tok := range inv.Toks {
		b.Bytes(tok)
		b.U32(uint32(len(inv.Posts[t])))
	}
	postsOff := b.Offset()
	for _, list := range inv.Posts {
		for _, slot := range list {
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
// (or resident, for in-memory filesystems) for the reader's lifetime and
// every field a query reads — ids, set sizes, the token dictionary,
// postings, vectors, attributes — is read through it in place. The Go
// heap holds two uint32 per distinct token (where its dictionary record
// is, where its postings start) and nothing per entity. All methods are
// safe for concurrent use.
type Reader struct {
	name  string
	kind  Kind
	count int
	dim   int
	data  []byte
	unmap func() error

	minID, maxID int64

	idsOff, sizesOff, postsOff, vecsOff, attrOffsOff, attrsOff int

	tokOff    []uint32 // token t's (u32 len, bytes, u32 count) record in data
	postFirst []uint32 // index of token t's first posting in the postings section
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
	if nposts > math.MaxUint32 {
		return nil, fmt.Errorf("segment: %d postings exceed a reader's 32-bit index", nposts)
	}
	// The dictionary stays in the mapping: the reader keeps where each
	// token's record is and where its postings start, and compares the
	// tokens in place.
	g.tokOff = make([]uint32, ntoks)
	g.postFirst = make([]uint32, ntoks)
	var total uint64
	var prev []byte
	for i := range g.tokOff {
		off := c.Offset()
		tok := c.Bytes()
		n := c.U32()
		if c.Err() != nil {
			return nil, c.Err()
		}
		if off > math.MaxUint32 {
			return nil, fmt.Errorf("segment: token %d at offset %d, past a reader's 32-bit offsets", i, off)
		}
		if i > 0 && string(tok) <= string(prev) {
			return nil, fmt.Errorf("segment: tokens not sorted unique at %d", i)
		}
		if n < 1 || uint64(n) > nposts {
			return nil, fmt.Errorf("segment: token %q has invalid posting count %d", tok, n)
		}
		g.tokOff[i], g.postFirst[i] = uint32(off), uint32(total)
		total += uint64(n)
		prev = tok
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
		for t := range g.tokOff {
			last := int64(-1)
			lo, hi := g.postings(t)
			for off := lo; off < hi; off += 4 {
				slot := binary.LittleEndian.Uint32(body[off:])
				if int64(slot) <= last || int(slot) >= count {
					return nil, fmt.Errorf("segment: bad posting slot %d for token %q", slot, g.tok(t))
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

// Close releases the underlying mapping, if any, and is idempotent.
// It is for a reader no view was published with — one Open refuses, or
// one whose commit failed; queries against a closed reader are
// undefined. A tier's published readers are unmapped by the finalizer
// loadSegment registers, once no view reaches them.
func (g *Reader) Close() error {
	runtime.SetFinalizer(g, nil)
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

// tok returns the bytes of token t, in place in the mapping.
func (g *Reader) tok(t int) []byte {
	off := int(g.tokOff[t])
	return g.data[off+4 : off+4+int(binary.LittleEndian.Uint32(g.data[off:]))]
}

// postings returns the byte range of token t's postings in the mapping;
// its posting count is the u32 that follows the token in its record.
func (g *Reader) postings(t int) (lo, hi int) {
	off := int(g.tokOff[t])
	off += 4 + int(binary.LittleEndian.Uint32(g.data[off:]))
	lo = g.postsOff + 4*int(g.postFirst[t])
	return lo, lo + 4*int(binary.LittleEndian.Uint32(g.data[off:]))
}

// find binary-searches the dictionary for tok, comparing in place.
func (g *Reader) find(tok string) (int, bool) {
	lo, hi := 0, len(g.tokOff)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if string(g.tok(mid)) < tok {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(g.tokOff) && string(g.tok(lo)) == tok
}

// scan is sparse.Index's ScanCount over this segment's postings:
// unknown tokens are skipped, and sc is left holding every slot that
// shares a token with the query and its integer overlap.
func (g *Reader) scan(query []string, sc *sparse.Scratch) {
	sc.Begin(g.count)
	for _, tok := range query {
		t, ok := g.find(tok)
		if !ok {
			continue
		}
		lo, hi := g.postings(t)
		for off := lo; off < hi; off += 4 {
			sc.Touch(int32(binary.LittleEndian.Uint32(g.data[off:])))
		}
	}
}

// rangeQuery returns every live stored set with sim >= eps against the
// query token set, in the canonical hit order — the same answer
// sparse.Index.RangeQuery gives over the same entities, because both
// compute the identical integer overlap and the identical Measure.Sim
// call.
func (g *Reader) rangeQuery(query []string, m sparse.Measure, eps float64, dead tombs, sc *sparse.Scratch) []hit.Hit {
	qs := len(query)
	var out []hit.Hit
	g.scan(query, sc)
	sc.Each(func(slot int32, overlap int) {
		if dead.has(int(slot)) {
			return
		}
		if sim := m.Sim(overlap, qs, g.size(int(slot))); sim >= eps {
			out = append(out, hit.Hit{ID: g.id(int(slot)), Score: sim})
		}
	})
	hit.Sort(out)
	return out
}

// knnQuery returns live candidates with positive similarity, in the
// canonical hit order and cut to k distinct similarity values with full
// tie groups — sparse.Index.KNNQuery's exact contract, by the same
// selection: the live similarities into sc.Sims, then the shared
// Scratch.KNNCut.
func (g *Reader) knnQuery(query []string, m sparse.Measure, k int, dead tombs, sc *sparse.Scratch) []hit.Hit {
	if k <= 0 {
		return nil
	}
	qs := len(query)
	g.scan(query, sc)
	sims := sc.Sims[:0] // sims[i] is the similarity of Found()[i]
	for _, slot := range sc.Found() {
		sim := 0.0 // a tombstoned entity is no candidate
		if !dead.has(int(slot)) {
			sim = m.Sim(sc.Overlap(slot), qs, g.size(int(slot)))
		}
		sims = append(sims, sim)
	}
	sc.Sims = sims
	return sc.KNNCut(k, func(slot int32) int64 { return g.id(int(slot)) })
}

// denseSearch scans every live vector and keeps the k best hits under
// the negated metric score — the selection knn.Flat.Search runs,
// over bits decoded exactly as they were written.
func (g *Reader) denseSearch(q vector.Vec, k int, metric knn.Metric, dead tombs) []hit.Hit {
	top := hit.TopK{K: k}
	vbuf := make(vector.Vec, g.dim)
	for slot := 0; slot < g.count; slot++ {
		if dead.has(slot) {
			continue
		}
		g.vec(slot, vbuf)
		top.Offer(hit.Hit{ID: g.id(slot), Score: -metric.Score(q, vbuf)})
	}
	return top.Sorted()
}
