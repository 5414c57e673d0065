package knn

import (
	"fmt"
	"math"
	"slices"

	"erfilter/internal/hit"
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

// IncHNSW is the incremental variant of the batch HNSW graph, mirroring
// IncFlat's contract: vectors are added and removed under stable external
// int64 ids, deletions are tombstones reclaimed by Compact, and Freeze
// publishes an immutable snapshot for lock-free concurrent searches.
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
// Freeze copies the per-node adjacency headers lazily (a generation
// counter marks which nodes the writer still owns; the first post-freeze
// mutation of a node copies its layer table), while the id, vector and
// link backing arrays are shared append-only.
//
// Beside every link the writer remembers its distance and what the last
// neighbor selection decided about it (memo, see selCand). That is
// working state only: Freeze and claim never copy it, Save never writes
// it, and a list without it is simply re-selected from scratch once.
type IncHNSW struct {
	metric  Metric
	p       HNSWParams
	levelML float64

	ids    []int64       // slot → external id
	vecs   []vector.Vec  // slot → vector (retained, not copied)
	live   []bool        // slot → not tombstoned
	links  [][][]int32   // slot → layer → neighbor slots
	memo   [][][]selCand // slot → layer → links[slot][layer] as selection last left it; writer-only
	ownGen []uint64      // slot → freeze generation that owns links[slot]
	gen    uint64        // current freeze generation
	dead   int
	slotOf map[int64]int32
	entry  int32
	maxL   int

	search *searchScratch // construction scratch
	sel    selScratch
}

// NewIncHNSW returns an empty incremental HNSW index under the metric.
func NewIncHNSW(metric Metric, p HNSWParams) *IncHNSW {
	p = p.withDefaults()
	return &IncHNSW{
		metric:  metric,
		p:       p,
		levelML: 1 / math.Log(float64(p.M)),
		slotOf:  make(map[int64]int32),
		entry:   -1,
		maxL:    -1,
		search:  newSearchScratch(),
	}
}

// Params returns the index's normalized tuning knobs.
func (h *IncHNSW) Params() HNSWParams { return h.p }

// Metric returns the metric the index ranks under.
func (h *IncHNSW) Metric() Metric { return h.metric }

// Len returns the number of live (non-tombstoned) vectors.
func (h *IncHNSW) Len() int { return len(h.ids) - h.dead }

// Dead returns the number of tombstoned slots awaiting compaction.
func (h *IncHNSW) Dead() int { return h.dead }

// Has reports whether id is currently indexed (live).
func (h *IncHNSW) Has(id int64) bool {
	_, ok := h.slotOf[id]
	return ok
}

// Dim returns the dimensionality of the indexed vectors (0 when empty).
func (h *IncHNSW) Dim() int {
	if len(h.vecs) == 0 {
		return 0
	}
	return len(h.vecs[0])
}

// claim takes writer ownership of slot's layer table before a mutation.
// Snapshots share the table published at freeze time; the first mutation
// after a freeze copies the layer headers so in-place neighbor appends
// and prune replacements stay invisible to every published snapshot.
// (Appends into a shared neighbor backing array land strictly beyond any
// snapshot's recorded length, so the int32 contents need no copy.)
func (h *IncHNSW) claim(s int32) {
	if h.ownGen[s] == h.gen {
		return
	}
	h.links[s] = append([][]int32(nil), h.links[s]...)
	h.ownGen[s] = h.gen
}

// Add indexes the vector under the external id. The vector is retained,
// not copied; callers must not mutate it afterwards. It is an error to
// add an id that is currently indexed, or a vector whose length is not
// the index's Dim; a refused Add leaves the index as it was.
func (h *IncHNSW) Add(id int64, v vector.Vec) error {
	if _, ok := h.slotOf[id]; ok {
		return fmt.Errorf("knn: id %d already indexed", id)
	}
	if len(h.vecs) > 0 && len(v) != h.Dim() {
		return fmt.Errorf("knn: id %d: vector of dimension %d added to an index of dimension %d", id, len(v), h.Dim())
	}
	slot := int32(len(h.ids))
	level := levelFor(uint64(id)+1, h.p.Seed, h.levelML)
	h.ids = append(h.ids, id)
	h.vecs = append(h.vecs, v)
	h.live = append(h.live, true)
	h.links = append(h.links, make([][]int32, level+1))
	h.memo = append(h.memo, make([][]selCand, level+1))
	h.ownGen = append(h.ownGen, h.gen)
	h.slotOf[id] = slot
	h.insertLinks(slot, level)
	return nil
}

func (h *IncHNSW) insertLinks(slot int32, level int) {
	if h.entry < 0 {
		h.entry = slot
		h.maxL = level
		return
	}
	g := hnswView{metric: h.metric, vecs: h.vecs, links: h.links}
	q := h.vecs[slot]
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
		h.links[slot][l], h.memo[slot][l] = ids, memo
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
	links, memo := h.links[s][layer], h.memo[s][layer]
	// A list restored by LoadHNSW has no memo, and gets none until its
	// first prune builds one.
	if len(memo) == len(links) {
		h.memo[s][layer] = append(memo, selCand{id: n, d: d, wit: unjudged})
	}
	links = append(links, n)
	h.links[s][layer] = links
	if len(links) > m {
		h.pruneSlot(s, layer, m)
	}
}

// pruneSlot trims an over-connected claimed slot's layer links back to
// m with the same diversity heuristic as insertion (see
// selectNeighbors), relative to the slot's own vector. The list is
// replaced, never edited: snapshots may share the old backing array.
func (h *IncHNSW) pruneSlot(s int32, layer, m int) {
	links, memo := h.links[s][layer], h.memo[s][layer]
	if len(memo) != len(links) {
		memo = make([]selCand, 0, m+1)
		for _, n := range links {
			memo = append(memo, selCand{id: n, d: h.metric.score(h.vecs[s], h.vecs[n]), wit: unjudged})
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
	h.links[s][layer] = kept
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
	v := h.vecs[c.id]
	for _, r := range kept {
		if h.metric.score(v, h.vecs[r.id]) < c.d {
			return r.id
		}
	}
	return keptLink
}

// Remove tombstones the vector indexed under id, reporting whether it
// was present. The node stays in the graph as a routing waypoint until
// the next Compact.
func (h *IncHNSW) Remove(id int64) bool {
	slot, ok := h.slotOf[id]
	if !ok {
		return false
	}
	delete(h.slotOf, id)
	h.live[slot] = false
	h.dead++
	return true
}

// Compact rebuilds the graph from scratch over the survivors in slot
// order. Arrays are freshly allocated, so frozen snapshots remain valid;
// levels are a pure function of (id, seed), so every survivor keeps its
// layer.
func (h *IncHNSW) Compact() {
	if h.dead == 0 {
		return
	}
	ids, vecs, live := h.ids, h.vecs, h.live
	n := len(ids) - h.dead
	h.ids = make([]int64, 0, n)
	h.vecs = make([]vector.Vec, 0, n)
	h.live = make([]bool, 0, n)
	h.links = make([][][]int32, 0, n)
	h.memo = make([][][]selCand, 0, n)
	h.ownGen = make([]uint64, 0, n)
	h.slotOf = make(map[int64]int32, n)
	h.dead = 0
	h.entry = -1
	h.maxL = -1
	for slot := range ids {
		if !live[slot] {
			continue
		}
		if err := h.Add(ids[slot], vecs[slot]); err != nil {
			// Unreachable: live ids are unique by construction.
			panic(err)
		}
	}
}

// Freeze publishes an immutable point-in-time snapshot. The id, vector
// and adjacency-header arrays are shared (the writer copies a node's
// headers before its first post-freeze mutation — see claim); the
// tombstone bits are copied.
func (h *IncHNSW) Freeze() *HNSWSnapshot {
	h.gen++
	return &HNSWSnapshot{
		metric: h.metric,
		p:      h.p,
		ids:    h.ids[:len(h.ids):len(h.ids)],
		vecs:   h.vecs[:len(h.vecs):len(h.vecs)],
		live:   append([]bool(nil), h.live...),
		links:  append([][][]int32(nil), h.links...),
		entry:  h.entry,
		maxL:   h.maxL,
		count:  h.Len(),
	}
}

// HNSWSnapshot is an immutable view of an IncHNSW at one instant; any
// number of goroutines may call the Search methods concurrently.
type HNSWSnapshot struct {
	metric Metric
	p      HNSWParams
	ids    []int64
	vecs   []vector.Vec
	live   []bool
	links  [][][]int32
	entry  int32
	maxL   int
	count  int
}

// Len returns the number of live vectors visible to the snapshot.
func (s *HNSWSnapshot) Len() int { return s.count }

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
	if k <= 0 || s.entry < 0 || s.count == 0 {
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
	for _, c := range s.beam(q, ef, s.live, sc) {
		hits = append(hits, hit.Hit{ID: s.ids[c.id], Score: -c.d})
	}
	sc.hits = hits
	hit.Sort(hits)
	return slices.Clone(hit.Top.Apply(hits, k))
}

// beam descends greedily from the entry point to layer 1, then runs the
// width-ef beam on layer 0, admitting every node when live is nil. The
// snapshot must be non-empty; the result lives in sc.
func (s *HNSWSnapshot) beam(q vector.Vec, ef int, live []bool, sc *searchScratch) []cand {
	g := hnswView{metric: s.metric, vecs: s.vecs, links: s.links}
	ep := []cand{{id: s.entry, d: g.dist(q, s.entry)}}
	for l := s.maxL; l > 0; l-- {
		ep = g.searchLayer(q, ep, 1, l, nil, sc)
	}
	return g.searchLayer(q, ep, ef, 0, live, sc)
}

// SearchExact brute-force scans the snapshot's live vectors: it is the
// search of a FlatSnapshot over the same (id, vector, tombstone) state.
func (s *HNSWSnapshot) SearchExact(q vector.Vec, k int) []hit.Hit {
	flat := FlatSnapshot{metric: s.metric, vecs: s.vecs, ids: s.ids, live: s.live}
	return flat.Search(q, k)
}
