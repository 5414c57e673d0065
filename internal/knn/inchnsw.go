package knn

import (
	"fmt"
	"math"
	"slices"

	"erfilter/internal/hit"
	"erfilter/internal/slots"
	"erfilter/internal/vector"
)

// HNSWParams are the tuning knobs of an HNSW index. The zero value selects
// M=16, beam widths 100/64 and seed 0.
type HNSWParams struct {
	// M is the maximum number of neighbors per node per layer (2M at
	// layer 0); 0 selects 16.
	M int
	// EfConstruction is the beam width during insertion; 0 selects 100.
	EfConstruction int
	// EfSearch is the default beam width during queries; 0 selects 64.
	EfSearch int
	// Seed drives the deterministic level assignment.
	Seed uint64
}

// Normalized returns the params with defaults filled in — the concrete
// values an index built from them will actually run with (and persist).
func (p HNSWParams) Normalized() HNSWParams { return p.withDefaults() }

// MaxHNSWM is the largest M a graph takes: LoadHNSW refuses a stream
// above it, so NewIncHNSW refuses to build one.
const MaxHNSWM = 1 << 10

// Validate refuses the params no graph is built with: an M above
// MaxHNSWM. The zero and negative values select defaults.
func (p HNSWParams) Validate() error {
	if p.M > MaxHNSWM {
		return fmt.Errorf("knn: hnsw M %d above %d", p.M, MaxHNSWM)
	}
	return nil
}

func (p HNSWParams) withDefaults() HNSWParams {
	if p.M <= 0 {
		p.M = 16
	}
	if p.EfConstruction <= 0 {
		p.EfConstruction = 100
	}
	if p.EfSearch <= 0 {
		p.EfSearch = 64
	}
	return p
}

// IncHNSW is a Hierarchical Navigable Small World graph index (Malkov &
// Yashunin), the graph-based approximate method FAISS offers, built one
// vector at a time: an IncFlat — the same ids, tombstones and vectors,
// the same Len, Dead, Remove and Has — with a graph over its rows. Freeze
// publishes an HNSW: the Flat of those rows with the graph beside it.
//
// Tombstoned nodes stay in the graph as routing waypoints — search
// traverses them but never returns them — so deletions cannot sever the
// navigable small-world structure. Compact rebuilds the graph from
// scratch over the survivors; because a node's layer is a pure function
// of (external id, seed), every survivor keeps its layer across the
// rebuild.
//
// An IncHNSW is a single-writer structure: Add, Remove, Compact and
// Freeze must be externally serialized. Snapshots stay valid forever:
// Freeze copies at most page directories. Every node's level-0 links are
// one row of 2M + 1 int32 — the count, then the links, as hnswlib lays
// them out — in the pages of a slots.Rows, which the writer copies a page
// at a time before its first post-freeze write into it.
// The few nodes above layer 0 keep one list a layer: the first
// post-freeze mutation of such a node copies its layer table (a
// generation counter marks which ones the writer still owns) and the
// page of headers it sits in, while the id, vector and upper link
// backing arrays are shared append-only.
//
// Beside every link the writer remembers its distance and what the last
// neighbor selection decided about it (see selCand): in the memo slab
// for level 0, beside each list above it. That is working state only:
// Freeze and claim never copy it, Save never writes it, and a list
// without it is simply re-selected from scratch once.
type IncHNSW struct {
	IncFlat
	p       HNSWParams
	levelML float64

	base   slots.Rows[int32]      // slot → level-0 row: the link count, then up to 2M neighbor slots
	memo   memoSlab               // slot → its level-0 links as selection last left them; writer-only
	upAt   []int32                // slot → 1 + its index among the upper nodes; 0 on layer 0 alone
	up     slots.Paged[[][]int32] // upper node → layer-1 → neighbor slots
	upMemo [][][]selCand          // upper node → layer-1 → up as selection last left it; writer-only
	upGen  []uint64               // upper node → freeze generation that owns its layer table
	gen    uint64                 // current freeze generation
	entry  int32
	maxL   int

	search *searchScratch // construction scratch
	sel    selScratch
}

// NewIncHNSW returns an empty incremental HNSW index under the metric.
// It panics on params Validate refuses.
func NewIncHNSW(metric Metric, p HNSWParams) *IncHNSW {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	p = p.withDefaults()
	h := &IncHNSW{
		IncFlat: IncFlat{metric: metric},
		p:       p,
		levelML: 1 / math.Log(float64(p.M)),
		search:  newSearchScratch(),
	}
	h.clearGraph()
	return h
}

// clearGraph empties the graph into fresh pages, so frozen snapshots
// keep theirs.
func (h *IncHNSW) clearGraph() {
	h.base = slots.NewRows[int32](2*h.p.M+1, linkPage)
	h.memo = memoSlab{d: slots.NewRows[float64](2*h.p.M, memoPage), wit: slots.NewRows[uint8](2*h.p.M, memoPage)}
	h.upAt, h.up, h.upMemo, h.upGen = nil, slots.Paged[[][]int32]{}, nil, nil
	h.entry, h.maxL = -1, -1
}

// Params returns the index's normalized tuning knobs.
func (h *IncHNSW) Params() HNSWParams { return h.p }

// Metric returns the metric the index ranks under.
func (h *IncHNSW) Metric() Metric { return h.metric }

// view is the graph as the writer searches it.
func (h *IncHNSW) view() hnswView {
	return hnswView{metric: h.metric, rows: &h.rows.RowsView, base: &h.base.RowsView, upAt: h.upAt, up: &h.up.Pages}
}

// degree is the bound on a list's links on the layer: 2M at level 0, M
// above it.
func (h *IncHNSW) degree(layer int) int {
	if layer == 0 {
		return 2 * h.p.M
	}
	return h.p.M
}

// claim takes writer ownership of upper node u's layer table before a
// mutation. Snapshots share the table published at freeze time; the
// first mutation after a freeze copies the layer headers (and, through
// the paged table, the page that holds the node's header) so list
// appends and prune replacements stay invisible to every published
// snapshot. (Appends into a shared list's backing array land strictly
// beyond any snapshot's recorded length, so the int32 contents need no
// copy.)
func (h *IncHNSW) claim(u int32) {
	if h.upGen[u] == h.gen {
		return
	}
	layers := h.up.Ref(int(u))
	*layers = slices.Clone(*layers)
	h.upGen[u] = h.gen
}

// linkPage is the number of level-0 rows in a page: eight rows of an
// M = 16 graph (33 int32 each) are 1 056 bytes, so the first write after
// a Freeze into one of them copies about a kilobyte, and a directory
// entry stands for eight rows.
const linkPage = 8

// memoPage is the number of slots in one page of the memo slab: 16 KiB
// of distances and 2 KiB of verdicts at M = 16.
const memoPage = 64

// memoSlab is the writer's memory of the level-0 lists, pointer-free and
// paged: link i of slot s's row has its distance from s at d's row s and
// the verdict the last selection left on it at wit's, both i along.
// Snapshots never read it, so it is written in place and never copied. A
// slot whose bit is set in bare has no memo — its list is one LoadHNSW
// restored — and its entries mean nothing until its first prune builds
// them.
//
// A verdict is one byte. A witness is always a kept link of the same
// list, ahead of the link it shadows (see selectNeighbors), so it is
// stored as its position in the row; keptLink and unjudged have codes of
// their own. A position the byte cannot hold (M > 127) is stored as
// unjudged, which costs the next selection distance calls, not links.
type memoSlab struct {
	d    slots.Rows[float64]
	wit  slots.Rows[uint8]
	bare []uint64
}

const (
	memoKept     uint8 = 255
	memoUnjudged uint8 = 254
)

// add appends a slot, with no memo when bare.
func (s *memoSlab) add(bare bool) {
	s.d.Append()
	s.wit.Append()
	slot := int32(s.d.Len() - 1)
	if slot%64 == 0 {
		s.bare = append(s.bare, 0)
	}
	s.setBare(slot, bare)
}

// at returns the 2M distances and verdicts of slot's level-0 links.
func (s *memoSlab) at(slot int32) ([]float64, []uint8) {
	return s.d.Ref(int(slot)), s.wit.Ref(int(slot))
}

// isBare reports whether slot's level-0 list has no memo.
func (s *memoSlab) isBare(slot int32) bool { return s.bare[slot/64]>>(slot%64)&1 != 0 }

func (s *memoSlab) setBare(slot int32, bare bool) {
	if bit := uint64(1) << (slot % 64); bare {
		s.bare[slot/64] |= bit
	} else {
		s.bare[slot/64] &^= bit
	}
}

// encodeWit returns the byte that stands for list[i]'s verdict.
func encodeWit(list []selCand, i int) uint8 {
	switch w := list[i].wit; w {
	case keptLink:
		return memoKept
	case unjudged:
		return memoUnjudged
	default:
		for j, c := range list[:min(i, int(memoUnjudged))] {
			if c.id == w {
				return uint8(j)
			}
		}
		if i <= int(memoUnjudged) {
			panic("knn: a memo witness is not a kept link ahead of the link it shadows")
		}
		return memoUnjudged
	}
}

// decodeWit returns the verdict a memo byte of a list over links stands
// for.
func decodeWit(b uint8, links []int32) int32 {
	switch b {
	case memoKept:
		return keptLink
	case memoUnjudged:
		return unjudged
	}
	return links[b]
}

// addNode appends the next slot's node with an empty level-0 row, whose
// memo is bare or empty, and — when upper is not empty — a layer table
// holding upper[l-1] as its layer-l links. It returns the row, which the
// caller may fill until the next Freeze.
func (h *IncHNSW) addNode(upper [][]int32, bare bool) []int32 {
	h.memo.add(bare)
	at := int32(0)
	if len(upper) > 0 {
		h.up.Append(upper)
		h.upMemo = append(h.upMemo, make([][]selCand, len(upper)))
		h.upGen = append(h.upGen, h.gen)
		at = int32(h.up.Len())
	}
	h.upAt = append(h.upAt, at)
	return h.base.Append()
}

// Add indexes the vector under the external id, copying it into the
// slab. The refusals are IncFlat's, and leave the graph as it was too.
func (h *IncHNSW) Add(id int64, v vector.Vec) error {
	err := h.IncFlat.Add(id, v)
	if err == nil {
		h.insert(id)
	}
	return err
}

// insert links the next slot's node, which the rows already hold, into
// the graph at the layer its id draws.
func (h *IncHNSW) insert(id int64) {
	slot := int32(h.base.Len())
	level := levelFor(uint64(id)+1, h.p.Seed, h.levelML)
	h.addNode(make([][]int32, level), false)
	if h.entry < 0 {
		h.entry = slot
		h.maxL = level
		return
	}
	g := h.view()
	q := h.rows.Row(int(slot))
	ep := []cand{{id: h.entry, d: g.dist(q, h.entry)}}
	for l := h.maxL; l > level; l-- {
		ep = g.searchLayer(q, ep, 1, l, nil, h.search)
	}
	for l := min(level, h.maxL); l >= 0; l-- {
		found := g.searchLayer(q, ep, h.p.EfConstruction, l, nil, h.search)
		m := h.degree(l)
		cands := h.sel.cands[:0]
		for _, c := range found {
			cands = append(cands, selCand{id: c.id, d: c.d, wit: unjudged})
		}
		h.sel.cands = cands
		// The beam orders ties by heap position, not by id, so what this
		// selection decided does not carry over to reselect's scan order:
		// the new node's own links start unjudged.
		nbrs := append(h.sel.nbrs[:0], h.selectNeighbors(cands, m)...)
		h.sel.nbrs = nbrs
		for i := range nbrs {
			nbrs[i].wit = unjudged
		}
		h.setLinks(slot, l, nbrs, m)
		for _, n := range nbrs {
			h.link(n.id, l, slot, n.d, m) // the metric is exactly symmetric
		}
		ep = found
	}
	if level > h.maxL {
		h.maxL = level
		h.entry = slot
	}
}

// selCand is one link (or link candidate) of a node as neighbor
// selection sees it; the writer's memo keeps its d and wit beside the
// link between selections.
type selCand struct {
	// d is the distance from the node to the link, fixed at the moment
	// the link is created: vectors never change and the metric is
	// exactly symmetric, so it is never computed again.
	d  float64
	id int32
	// wit is the verdict of the last selection that scanned the link in
	// (d, id) order: keptLink, the id of the kept link that shadowed it
	// (its witness), or unjudged.
	wit int32
}

const (
	keptLink int32 = -1
	unjudged int32 = -2
)

// selScratch is the writer-owned working memory of selectNeighbors,
// reselect and insert.
type selScratch struct {
	cands, kept, skipped, fresh, nbrs []selCand
	demoted                           []int32
}

// link appends n, at distance d, to slot s's layer list, or — when the
// list already holds m links — re-selects m among them and n.
func (h *IncHNSW) link(s int32, layer int, n int32, d float64, m int) {
	add := selCand{id: n, d: d, wit: unjudged}
	if layer == 0 {
		if c := h.base.Row(int(s))[0]; int(c) < m {
			row := h.base.Ref(int(s))
			row[1+c], row[0] = n, c+1
			if !h.memo.isBare(s) {
				md, mw := h.memo.at(s)
				md[c], mw[c] = d, memoUnjudged
			}
			return
		}
	} else {
		u := h.upAt[s] - 1
		h.claim(u)
		layers, memo := h.up.At(int(u)), h.upMemo[u][layer-1]
		if links := layers[layer-1]; len(links) < m {
			// A list restored by LoadHNSW has no memo, and gets none
			// until its first prune builds one.
			if len(memo) == len(links) {
				h.upMemo[u][layer-1] = append(memo, add)
			}
			layers[layer-1] = append(links, n)
			return
		}
	}
	h.setLinks(s, layer, h.reselect(s, layer, add, m), m)
}

// reselect runs neighbor selection (see selectNeighbors) relative to
// slot s's own vector over its full layer list and add, and returns the
// m it keeps, in h.sel. The list's distances and verdicts come from its
// memo; a list without one has its distances computed here, once.
func (h *IncHNSW) reselect(s int32, layer int, add selCand, m int) []selCand {
	cands := h.sel.cands[:0]
	var bare []int32 // the links of a list without a memo
	if layer == 0 {
		row := h.base.Row(int(s))
		links := row[1 : 1+row[0]]
		if h.memo.isBare(s) {
			bare = links
		} else {
			md, mw := h.memo.at(s)
			for i, n := range links {
				cands = append(cands, selCand{id: n, d: md[i], wit: decodeWit(mw[i], links)})
			}
		}
	} else {
		u := h.upAt[s] - 1
		links, memo := h.up.At(int(u))[layer-1], h.upMemo[u][layer-1]
		if len(memo) == len(links) {
			cands = append(cands, memo...)
		} else {
			bare = links
		}
	}
	for _, n := range bare {
		cands = append(cands, selCand{id: n, d: h.metric.Score(h.rows.Row(int(s)), h.rows.Row(int(n))), wit: unjudged})
	}
	cands = append(cands, add)
	h.sel.cands = cands
	// Scan order is (d, id). A memoised list is two sorted runs and the
	// new link, so an insertion sort barely moves anything; on a list
	// nobody has sorted yet its moves stay below the distance calls of
	// the full scan that follows.
	for i := 1; i < len(cands); i++ {
		c := cands[i]
		j := i
		for ; j > 0 && (c.d < cands[j-1].d || (c.d == cands[j-1].d && c.id < cands[j-1].id)); j-- {
			cands[j] = cands[j-1]
		}
		cands[j] = c
	}
	return h.selectNeighbors(cands, m)
}

// setLinks makes list — at most m candidates, each carrying the verdict
// selection left on it — slot s's layer list and its memo. A level-0 row
// is rewritten in a page the writer owns; a list above it is replaced,
// never edited: snapshots may share the old backing array.
func (h *IncHNSW) setLinks(s int32, layer int, list []selCand, m int) {
	if layer == 0 {
		row := h.base.Ref(int(s))
		md, mw := h.memo.at(s)
		row[0] = int32(len(list))
		for i, c := range list {
			row[1+i], md[i], mw[i] = c.id, c.d, encodeWit(list, i)
		}
		h.memo.setBare(s, false)
		return
	}
	u := h.upAt[s] - 1
	h.claim(u)
	ids := make([]int32, len(list), m)
	for i, c := range list {
		ids[i] = c.id
	}
	memo := h.upMemo[u][layer-1]
	if cap(memo) < m {
		memo = make([]selCand, 0, m)
	}
	h.up.At(int(u))[layer-1] = ids
	h.upMemo[u][layer-1] = append(memo[:0], list...)
}

// selectNeighbors implements the neighbor-selection heuristic of Malkov
// & Yashunin (Algorithm 4). Scanning candidates best-first, a candidate
// is kept only when it is closer to the node than to every neighbor kept
// before it — a candidate that is not is "shadowed" by a kept neighbor
// which can route to it. This preserves bridge links between clusters:
// keeping simply the m closest fragments clustered data into per-cluster
// islands that greedy search cannot cross. Shadowed candidates backfill
// any remaining degree (the paper's keepPrunedConnections), so diversity
// never costs connectivity. cands must be sorted best (smallest d)
// first; the result, at most m long, is the kept candidates in scan
// order followed by the back-filled ones in scan order, each carrying
// its verdict in wit. It lives in h.sel until the next call.
//
// Verdicts already on the candidates are believed, which is what makes
// re-selecting a list that gained one link cheap. Two candidates the
// last selection kept were tested against each other then, so a kept
// candidate is only scored against members this scan keeps for the
// first time; and a candidate whose witness this scan keeps again is
// shadowed without a distance call. Only a candidate whose verdict can
// have changed — unjudged, or shadowed by a link this scan demoted — is
// scored against everything kept so far. With every candidate unjudged
// this is the plain algorithm.
func (h *IncHNSW) selectNeighbors(cands []selCand, m int) []selCand {
	if len(cands) <= m {
		return cands
	}
	sc := &h.sel
	kept, skipped, fresh, demoted := sc.kept[:0], sc.skipped[:0], sc.fresh[:0], sc.demoted[:0]
	for _, c := range cands {
		if len(kept) == m {
			break
		}
		wit := c.wit
		switch {
		case wit == keptLink:
			if wit = h.shadower(c, fresh); wit != keptLink {
				demoted = append(demoted, c.id)
			}
		case wit == unjudged || slices.Contains(demoted, wit):
			if wit = h.shadower(c, kept); wit == keptLink {
				fresh = append(fresh, c)
			}
		}
		c.wit = wit
		if wit == keptLink {
			kept = append(kept, c)
		} else {
			skipped = append(skipped, c)
		}
	}
	kept = append(kept, skipped[:min(m-len(kept), len(skipped))]...)
	sc.kept, sc.skipped, sc.fresh, sc.demoted = kept, skipped, fresh, demoted
	return kept
}

// shadower returns the first of the kept candidates that c is closer to
// than to the node, or keptLink when none is.
func (h *IncHNSW) shadower(c selCand, kept []selCand) int32 {
	v := h.rows.Row(int(c.id))
	for _, r := range kept {
		if h.metric.Score(v, h.rows.Row(int(r.id))) < c.d {
			return r.id
		}
	}
	return keptLink
}

// Compact rebuilds the graph from scratch over the survivors in slot
// order. Pages and lists are freshly allocated, so frozen snapshots
// remain valid; levels are a pure function of (id, seed), so every
// survivor keeps its layer. It returns the slot table's remap (nil when
// nothing was dead).
func (h *IncHNSW) Compact() []int32 {
	if h.Dead() == 0 {
		return nil
	}
	remap := h.IncFlat.Compact()
	h.clearGraph()
	for slot := range int32(h.Len()) {
		h.insert(h.ID(slot))
	}
	return remap
}

// Freeze publishes the index as it is now. The id, vector and slot →
// upper node arrays are shared append-only; the level-0 rows, the upper
// nodes' layer headers and the tombstone bits are shared by page, the
// writer copying a page (and an upper node's layer table, see claim)
// before its first post-freeze write, so a publish copies at most three
// page directories and no row or header.
func (h *IncHNSW) Freeze() *HNSW {
	h.gen++
	return &HNSW{
		Flat:  *h.IncFlat.Freeze(),
		p:     h.p,
		base:  h.base.Freeze(),
		upAt:  slices.Clip(h.upAt),
		up:    h.up.Freeze(),
		entry: h.entry,
		maxL:  h.maxL,
	}
}

// HNSW is an HNSW graph at one instant, frozen: the Flat of its rows,
// whose Search is SearchExact and whose Len is the live vectors, with the
// graph beside it. Any number of goroutines may call the Search methods
// concurrently.
type HNSW struct {
	Flat
	p     HNSWParams
	base  slots.RowsView[int32]
	upAt  []int32
	up    slots.Pages[[][]int32]
	entry int32
	maxL  int
}

// NewHNSW builds the graph over the vectors, added in order under their
// positions and copied into its rows, and freezes it. The paper tried
// HNSW and found it does not outperform the Flat index under Problem 1;
// the ablation experiments reproduce that with this index.
func NewHNSW(vecs []vector.Vec, metric Metric, p HNSWParams) *HNSW {
	g := NewIncHNSW(metric, p)
	for i, v := range vecs {
		if err := g.Add(int64(i), v); err != nil {
			panic(err) // the ids are distinct; a vector of another dimension is the caller's bug
		}
	}
	return g.Freeze()
}

// view is the graph as a search walks it.
func (s *HNSW) view() hnswView {
	return hnswView{metric: s.metric, rows: &s.rows, base: &s.base, upAt: s.upAt, up: &s.up}
}

// Search returns (approximately) the k best-scoring live vectors in the
// canonical hit order, scored like Flat.Search, using the index's
// default beam width.
func (s *HNSW) Search(q vector.Vec, k int) []hit.Hit {
	return s.SearchEf(q, k, 0)
}

// SearchEf is Search with an explicit beam width; ef <= 0 selects the
// index default, and the beam is never narrower than k. Wider beams
// raise recall at the cost of latency.
func (s *HNSW) SearchEf(q vector.Vec, k, ef int) []hit.Hit {
	if k <= 0 || s.entry < 0 || s.Len() == 0 {
		return nil
	}
	if ef <= 0 {
		ef = s.p.EfSearch
	}
	if ef < k {
		ef = k
	}
	sc := searchPool.Get().(*searchScratch)
	defer searchPool.Put(sc)
	hits := sc.hits[:0]
	for _, c := range s.beam(q, ef, sc) {
		hits = append(hits, hit.Hit{ID: s.ID(c.id), Score: -c.d})
	}
	sc.hits = hits
	hit.Sort(hits)
	return slices.Clone(hit.Top.Apply(hits, k))
}

// beam descends greedily from the entry point to layer 1, then runs the
// width-ef beam on layer 0, admitting only live nodes. The index must be
// non-empty; the result lives in sc.
func (s *HNSW) beam(q vector.Vec, ef int, sc *searchScratch) []cand {
	g := s.view()
	ep := []cand{{id: s.entry, d: g.dist(q, s.entry)}}
	for l := s.maxL; l > 0; l-- {
		ep = g.searchLayer(q, ep, 1, l, nil, sc)
	}
	return g.searchLayer(q, ep, ef, 0, &s.View, sc)
}

// SearchExact brute-force scans the live vectors: the Flat search over
// the same (id, vector, tombstone) state.
func (s *HNSW) SearchExact(q vector.Vec, k int) []hit.Hit {
	return s.Flat.Search(q, k)
}
