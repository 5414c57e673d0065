package knn

import (
	"sync"

	"erfilter/internal/hit"
	"erfilter/internal/slots"
	"erfilter/internal/vector"
)

// cand is one node met by a beam search: its slot and its distance to
// the query.
type cand struct {
	id int32
	d  float64
}

// candHeap is a binary heap of candidates ordered by distance alone: a
// min-heap, or a max-heap when max is set. push and pop make exactly the
// comparisons and swaps of container/heap's Push and Pop, so the pop
// order among equal distances — which decides what the construction beam
// returns, and through it the graph — is the one container/heap gave,
// without boxing every candidate into an interface.
type candHeap struct {
	items []cand
	max   bool
}

func (h *candHeap) less(i, j int) bool {
	if h.max {
		return h.items[i].d > h.items[j].d
	}
	return h.items[i].d < h.items[j].d
}

func (h *candHeap) push(c cand) {
	h.items = append(h.items, c)
	j := len(h.items) - 1
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(j, i) {
			break
		}
		h.items[i], h.items[j] = h.items[j], h.items[i]
		j = i
	}
}

func (h *candHeap) pop() cand {
	n := len(h.items) - 1
	h.items[0], h.items[n] = h.items[n], h.items[0]
	i := 0
	for {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if r := j + 1; r < n && h.less(r, j) {
			j = r
		}
		if !h.less(j, i) {
			break
		}
		h.items[i], h.items[j] = h.items[j], h.items[i]
		i = j
	}
	c := h.items[n]
	h.items = h.items[:n]
	return c
}

// visitSet is a round-stamped visited marker: reset is O(1) (a round
// bump) until the uint32 round wraps.
type visitSet struct {
	mark  []uint32
	round uint32
}

// reset starts a new round over n nodes. The mark array grows
// geometrically: an index that gains one node per Add would otherwise
// reallocate and clear 1 + 2 + … + N words over a bulk load.
func (v *visitSet) reset(n int) {
	if len(v.mark) < n {
		v.mark = make([]uint32, max(n, 2*len(v.mark)))
		v.round = 1 // fresh zeroed marks: no stamp of an earlier round survives
		return
	}
	v.round++
	if v.round == 0 {
		clear(v.mark)
		v.round = 1
	}
}

func (v *visitSet) testAndSet(i int32) bool {
	if v.mark[i] == v.round {
		return true
	}
	v.mark[i] = v.round
	return false
}

// searchScratch is the reusable state of one beam search: the visited
// marks, both heaps, the result buffer and, for a query, the beam as
// hits. The writer owns one for construction; queries borrow one from
// searchPool (snapshots are immutable, so the scratch cannot live on
// them).
type searchScratch struct {
	vis      visitSet
	frontier candHeap
	results  candHeap
	out      []cand
	hits     []hit.Hit
}

func newSearchScratch() *searchScratch {
	return &searchScratch{results: candHeap{max: true}}
}

var searchPool = sync.Pool{New: func() interface{} { return newSearchScratch() }}

// hnswView bundles the arrays both the writer (during construction) and
// snapshots (during queries) search over.
type hnswView struct {
	metric Metric
	rows   *slots.RowsView[float32]
	base   *slots.RowsView[int32]  // slot → level-0 row: the link count, then the links
	upAt   []int32                 // slot → 1 + its upper node; 0 on layer 0 alone
	up     *slots.Pages[[][]int32] // upper node → layer-1 → links
}

// links returns slot s's neighbors on the layer, which s must be on.
func (g hnswView) links(s int32, layer int) []int32 {
	if layer == 0 {
		row := g.base.Row(int(s))
		return row[1 : 1+row[0]]
	}
	return g.up.At(int(g.upAt[s] - 1))[layer-1]
}

// layers returns the number of layers slot s is on.
func (g hnswView) layers(s int32) int {
	if u := g.upAt[s]; u > 0 {
		return 1 + len(g.up.At(int(u-1)))
	}
	return 1
}

func (g hnswView) dist(q vector.Vec, s int32) float64 {
	return g.metric.Score(q, g.rows.Row(int(s)))
}

// searchLayer runs a best-first beam search of width ef on one layer,
// starting from the given entry points, and returns the ef closest
// admitted nodes, best first. A nil live admits every node: construction
// and upper-layer descent route through tombstones too. With live set
// (the layer-0 query beam) the frontier still traverses tombstoned nodes
// as waypoints, but only live nodes enter the result set; when fewer
// than ef live nodes have been found the beam keeps expanding, so
// deletions degrade latency before they degrade recall.
//
// The result lives in sc and is valid until the next search through sc;
// entries may be the previous search's result.
func (g hnswView) searchLayer(q vector.Vec, entries []cand, ef, layer int, live *slots.View, sc *searchScratch) []cand {
	sc.vis.reset(g.base.Len())
	frontier, results := &sc.frontier, &sc.results
	frontier.items, results.items = frontier.items[:0], results.items[:0]
	for _, e := range entries {
		if sc.vis.testAndSet(e.id) {
			continue
		}
		frontier.push(e)
		if live == nil || live.Live(e.id) {
			results.push(e)
		}
	}
	for len(frontier.items) > 0 {
		cur := frontier.pop()
		if len(results.items) >= ef && cur.d > results.items[0].d {
			break
		}
		for _, n := range g.links(cur.id, layer) {
			if sc.vis.testAndSet(n) {
				continue
			}
			d := g.dist(q, n)
			if len(results.items) < ef || d < results.items[0].d {
				frontier.push(cand{id: n, d: d})
				if live == nil || live.Live(n) {
					results.push(cand{id: n, d: d})
					if len(results.items) > ef {
						results.pop()
					}
				}
			}
		}
	}
	out := append(sc.out[:0], results.items...)
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = results.pop()
	}
	sc.out = out
	return out
}
