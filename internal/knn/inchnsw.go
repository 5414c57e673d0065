package knn

import (
	"math"
	"slices"

	"erfilter/internal/hit"
	"erfilter/internal/slots"
	"erfilter/internal/vector"
)

// HNSWParams are the tuning knobs of an incremental HNSW index. The zero
// value selects the same defaults as the batch HNSW (M=16, beam widths
// 100/64, seed 0).
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

// IncHNSW is the incremental variant of the batch HNSW graph: an IncFlat
// — the same ids, tombstones and vectors, the same Len, Dead, Remove and
// Has — with a graph over its rows, and a snapshot that is the
// FlatSnapshot of those rows with the graph beside it.
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
// Freeze copies the page directory of the per-node adjacency headers
// (slots.Paged) and nothing else. The first post-freeze mutation of a
// node copies its layer table (a generation counter marks which nodes
// the writer still owns) and the page of headers it sits in, while the
// id, vector and link backing arrays are shared append-only.
//
// Beside every link the writer remembers its distance and what the last
// neighbor selection decided about it (memo, see selCand). That is
// working state only: Freeze and claim never copy it, Save never writes
// it, and a list without it is simply re-selected from scratch once.
type IncHNSW struct {
	IncFlat
	p       HNSWParams
	levelML float64

	links  slots.Paged[[][]int32] // slot → layer → neighbor slots
	memo   [][][]selCand          // slot → layer → links[slot][layer] as selection last left it; writer-only
	ownGen []uint64               // slot → freeze generation that owns links[slot]
	gen    uint64                 // current freeze generation
	entry  int32
	maxL   int

	search *searchScratch // construction scratch
	sel    selScratch
}

// NewIncHNSW returns an empty incremental HNSW index under the metric.
func NewIncHNSW(metric Metric, p HNSWParams) *IncHNSW {
	p = p.withDefaults()
	return &IncHNSW{
		IncFlat: IncFlat{metric: metric},
		p:       p,
		levelML: 1 / math.Log(float64(p.M)),
		entry:   -1,
		maxL:    -1,
		search:  newSearchScratch(),
	}
}

// Params returns the index's normalized tuning knobs.
func (h *IncHNSW) Params() HNSWParams { return h.p }

// Metric returns the metric the index ranks under.
func (h *IncHNSW) Metric() Metric { return h.metric }

// claim takes writer ownership of slot's layer table before a mutation.
// Snapshots share the table published at freeze time; the first mutation
// after a freeze copies the layer headers (and, through the paged table,
// the page that holds the node's header) so in-place neighbor appends
// and prune replacements stay invisible to every published snapshot.
// (Appends into a shared neighbor backing array land strictly beyond any
// snapshot's recorded length, so the int32 contents need no copy.)
func (h *IncHNSW) claim(s int32) {
	if h.ownGen[s] == h.gen {
		return
	}
	layers := h.links.Ref(int(s))
	*layers = slices.Clone(*layers)
	h.ownGen[s] = h.gen
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
	slot := int32(h.links.Len())
	level := levelFor(uint64(id)+1, h.p.Seed, h.levelML)
	h.links.Append(make([][]int32, level+1))
	h.memo = append(h.memo, make([][]selCand, level+1))
	h.ownGen = append(h.ownGen, h.gen)
	if h.entry < 0 {
		h.entry = slot
		h.maxL = level
		return
	}
	g := hnswView{metric: h.metric, rows: &h.rows, links: &h.links.Pages}
	q := h.rows.row(slot)
	ep := []cand{{id: h.entry, d: g.dist(q, h.entry)}}
	for l := h.maxL; l > level; l-- {
		ep = g.searchLayer(q, ep, 1, l, nil, h.search)
	}
	for l := min(level, h.maxL); l >= 0; l-- {
		found := g.searchLayer(q, ep, h.p.EfConstruction, l, nil, h.search)
		m := h.p.M
		if l == 0 {
			m = 2 * h.p.M
		}
		cands := h.sel.cands[:0]
		for _, c := range found {
			cands = append(cands, selCand{id: c.id, d: c.d, wit: unjudged})
		}
		h.sel.cands = cands
		// The beam orders ties by heap position, not by id, so what this
		// selection decided does not carry over to pruneSlot's scan order:
		// the new node's own links start unjudged.
		memo := make([]selCand, 0, m+1)
		ids := make([]int32, 0, m+1)
		for _, n := range h.selectNeighbors(cands, m) {
			n.wit = unjudged
			memo = append(memo, n)
			ids = append(ids, n.id)
		}
		h.links.At(int(slot))[l], h.memo[slot][l] = ids, memo
		for _, n := range memo {
			h.claim(n.id)
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
// selection sees it, and — stored beside the link in IncHNSW.memo — what
// the writer remembers about it between selections.
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

// selScratch is the writer-owned working memory of selectNeighbors and
// pruneSlot.
type selScratch struct {
	cands, kept, skipped, fresh []selCand
	demoted                     []int32
}

// link appends n, at distance d, to claimed slot s's layer links, and
// prunes the list back to m when that over-connects s.
func (h *IncHNSW) link(s int32, layer int, n int32, d float64, m int) {
	links, memo := h.links.At(int(s))[layer], h.memo[s][layer]
	// A list restored by LoadHNSW has no memo, and gets none until its
	// first prune builds one.
	if len(memo) == len(links) {
		h.memo[s][layer] = append(memo, selCand{id: n, d: d, wit: unjudged})
	}
	links = append(links, n)
	h.links.At(int(s))[layer] = links
	if len(links) > m {
		h.pruneSlot(s, layer, m)
	}
}

// pruneSlot trims an over-connected claimed slot's layer links back to
// m with the same diversity heuristic as insertion (see
// selectNeighbors), relative to the slot's own vector. The list is
// replaced, never edited: snapshots may share the old backing array.
func (h *IncHNSW) pruneSlot(s int32, layer, m int) {
	links, memo := h.links.At(int(s))[layer], h.memo[s][layer]
	if len(memo) != len(links) {
		memo = make([]selCand, 0, m+1)
		for _, n := range links {
			memo = append(memo, selCand{id: n, d: h.metric.score(h.rows.row(s), h.rows.row(n)), wit: unjudged})
		}
	}
	cands := append(h.sel.cands[:0], memo...)
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
	memo = append(memo[:0], h.selectNeighbors(cands, m)...)
	kept := make([]int32, len(memo), m+1)
	for i, c := range memo {
		kept[i] = c.id
	}
	h.links.At(int(s))[layer] = kept
	h.memo[s][layer] = memo
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
	v := h.rows.row(c.id)
	for _, r := range kept {
		if h.metric.score(v, h.rows.row(r.id)) < c.d {
			return r.id
		}
	}
	return keptLink
}

// Compact rebuilds the graph from scratch over the survivors in slot
// order. Arrays are freshly allocated, so frozen snapshots remain valid;
// levels are a pure function of (id, seed), so every survivor keeps its
// layer. It returns the slot table's remap (nil when nothing was dead).
func (h *IncHNSW) Compact() []int32 {
	if h.Dead() == 0 {
		return nil
	}
	remap := h.IncFlat.Compact()
	n := h.Len()
	h.links = slots.Paged[[][]int32]{}
	h.memo = make([][][]selCand, 0, n)
	h.ownGen = make([]uint64, 0, n)
	h.entry, h.maxL = -1, -1
	for slot := range int32(n) {
		h.insert(h.ID(slot))
	}
	return remap
}

// Freeze publishes an immutable point-in-time snapshot. The id and
// vector arrays are shared append-only; the adjacency headers and the
// tombstone bits are shared by page, the writer copying a node's layer
// table and page before its first post-freeze mutation (see claim), so
// a publish copies two page directories and no header.
func (h *IncHNSW) Freeze() *HNSWSnapshot {
	h.gen++
	return &HNSWSnapshot{
		FlatSnapshot: *h.IncFlat.Freeze(),
		p:            h.p,
		links:        h.links.Freeze(),
		entry:        h.entry,
		maxL:         h.maxL,
	}
}

// HNSWSnapshot is an immutable view of an IncHNSW at one instant; any
// number of goroutines may call the Search methods concurrently. It
// carries the flat snapshot of the same rows, whose Search is
// SearchExact and whose Len is the live vectors visible to it.
type HNSWSnapshot struct {
	FlatSnapshot
	p     HNSWParams
	links slots.Pages[[][]int32]
	entry int32
	maxL  int
}

// Search returns (approximately) the k best-scoring live vectors in the
// canonical hit order, scored like FlatSnapshot.Search, using the index's
// default beam width.
func (s *HNSWSnapshot) Search(q vector.Vec, k int) []hit.Hit {
	return s.SearchEf(q, k, 0)
}

// SearchEf is Search with an explicit beam width; ef <= 0 selects the
// index default, and the beam is never narrower than k. Wider beams
// raise recall at the cost of latency.
func (s *HNSWSnapshot) SearchEf(q vector.Vec, k, ef int) []hit.Hit {
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
// width-ef beam on layer 0, admitting only live nodes. The snapshot must
// be non-empty; the result lives in sc.
func (s *HNSWSnapshot) beam(q vector.Vec, ef int, sc *searchScratch) []cand {
	g := hnswView{metric: s.metric, rows: &s.rows, links: &s.links}
	ep := []cand{{id: s.entry, d: g.dist(q, s.entry)}}
	for l := s.maxL; l > 0; l-- {
		ep = g.searchLayer(q, ep, 1, l, nil, sc)
	}
	return g.searchLayer(q, ep, ef, 0, &s.View, sc)
}

// SearchExact brute-force scans the snapshot's live vectors: it is the
// search of the FlatSnapshot over the same (id, vector, tombstone) state.
func (s *HNSWSnapshot) SearchExact(q vector.Vec, k int) []hit.Hit {
	return s.FlatSnapshot.Search(q, k)
}
