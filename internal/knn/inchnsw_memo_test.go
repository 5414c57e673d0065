package knn

import (
	"bytes"
	"container/heap"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"erfilter/internal/vector"
)

// refHNSW is the construction oracle: the incremental HNSW as it was
// before neighbor re-selection was memoised. Every prune recomputes the
// node→link distances, sorts with sort.Slice and runs Algorithm 4 from
// scratch; the beam search boxes its candidates through container/heap
// and allocates per call. The production index must build the same graph
// link for link.
type refHNSW struct {
	metric Metric
	p      HNSWParams
	ml     float64

	ids    []int64
	vecs   []vector.Vec
	live   []bool
	links  [][][]int32
	slotOf map[int64]int32
	dead   int
	entry  int32
	maxL   int
}

func newRefHNSW(metric Metric, p HNSWParams) *refHNSW {
	idx := NewIncHNSW(metric, p)
	return &refHNSW{metric: metric, p: idx.p, ml: idx.levelML, slotOf: map[int64]int32{}, entry: -1, maxL: -1}
}

type refMinHeap []cand

func (h refMinHeap) Len() int            { return len(h) }
func (h refMinHeap) Less(i, j int) bool  { return h[i].d < h[j].d }
func (h refMinHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refMinHeap) Push(x interface{}) { *h = append(*h, x.(cand)) }
func (h *refMinHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

type refMaxHeap []cand

func (h refMaxHeap) Len() int            { return len(h) }
func (h refMaxHeap) Less(i, j int) bool  { return h[i].d > h[j].d }
func (h refMaxHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refMaxHeap) Push(x interface{}) { *h = append(*h, x.(cand)) }
func (h *refMaxHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

func (r *refHNSW) dist(q vector.Vec, s int32) float64 { return r.metric.Score(q, r.vecs[s]) }

func (r *refHNSW) searchLayer(q vector.Vec, entries []cand, ef, layer int) []cand {
	visited := make([]bool, len(r.links))
	frontier := refMinHeap{}
	results := refMaxHeap{}
	for _, e := range entries {
		if visited[e.id] {
			continue
		}
		visited[e.id] = true
		heap.Push(&frontier, e)
		heap.Push(&results, e)
	}
	for frontier.Len() > 0 {
		cur := heap.Pop(&frontier).(cand)
		if results.Len() >= ef && cur.d > results[0].d {
			break
		}
		for _, n := range r.links[cur.id][layer] {
			if visited[n] {
				continue
			}
			visited[n] = true
			d := r.dist(q, n)
			if results.Len() < ef || d < results[0].d {
				heap.Push(&frontier, cand{id: n, d: d})
				heap.Push(&results, cand{id: n, d: d})
				if results.Len() > ef {
					heap.Pop(&results)
				}
			}
		}
	}
	out := make([]cand, results.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(&results).(cand)
	}
	return out
}

func refSelectNeighbors(cands []cand, m int, between func(a, b int32) float64) []cand {
	if len(cands) <= m {
		return cands
	}
	kept := make([]cand, 0, m)
	skipped := make([]cand, 0, len(cands))
	for _, c := range cands {
		if len(kept) == m {
			break
		}
		shadowed := false
		for _, r := range kept {
			if between(c.id, r.id) < c.d {
				shadowed = true
				break
			}
		}
		if shadowed {
			skipped = append(skipped, c)
		} else {
			kept = append(kept, c)
		}
	}
	for _, c := range skipped {
		if len(kept) == m {
			break
		}
		kept = append(kept, c)
	}
	return kept
}

func (r *refHNSW) between(a, b int32) float64 { return r.metric.Score(r.vecs[a], r.vecs[b]) }

func (r *refHNSW) pruneSlot(s int32, layer, m int) {
	links := r.links[s][layer]
	cands := make([]cand, 0, len(links))
	for _, n := range links {
		cands = append(cands, cand{id: n, d: r.metric.Score(r.vecs[s], r.vecs[n])})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].d != cands[j].d {
			return cands[i].d < cands[j].d
		}
		return cands[i].id < cands[j].id
	})
	kept := make([]int32, 0, m)
	for _, c := range refSelectNeighbors(cands, m, r.between) {
		kept = append(kept, c.id)
	}
	r.links[s][layer] = kept
}

func (r *refHNSW) Add(id int64, v vector.Vec) {
	slot := int32(len(r.ids))
	level := levelFor(uint64(id)+1, r.p.Seed, r.ml)
	r.ids = append(r.ids, id)
	r.vecs = append(r.vecs, v)
	r.live = append(r.live, true)
	r.links = append(r.links, make([][]int32, level+1))
	r.slotOf[id] = slot
	if r.entry < 0 {
		r.entry, r.maxL = slot, level
		return
	}
	ep := []cand{{id: r.entry, d: r.dist(v, r.entry)}}
	for l := r.maxL; l > level; l-- {
		ep = r.searchLayer(v, ep, 1, l)
	}
	for l := min(level, r.maxL); l >= 0; l-- {
		found := r.searchLayer(v, ep, r.p.EfConstruction, l)
		m := r.p.M
		if l == 0 {
			m = 2 * r.p.M
		}
		for _, n := range refSelectNeighbors(found, m, r.between) {
			r.links[slot][l] = append(r.links[slot][l], n.id)
			r.links[n.id][l] = append(r.links[n.id][l], slot)
			if len(r.links[n.id][l]) > m {
				r.pruneSlot(n.id, l, m)
			}
		}
		ep = found
	}
	if level > r.maxL {
		r.maxL, r.entry = level, slot
	}
}

func (r *refHNSW) Remove(id int64) {
	slot := r.slotOf[id]
	delete(r.slotOf, id)
	r.live[slot] = false
	r.dead++
}

func (r *refHNSW) Compact() {
	if r.dead == 0 {
		return
	}
	ids, vecs, live := r.ids, r.vecs, r.live
	*r = *newRefHNSW(r.metric, r.p)
	for slot := range ids {
		if live[slot] {
			r.Add(ids[slot], vecs[slot])
		}
	}
}

func (r *refHNSW) snapshot() *HNSW {
	h := NewIncHNSW(r.metric, r.p)
	for slot, id := range r.ids {
		if _, err := h.Table.Add(id); err != nil {
			panic(err)
		}
		if !r.live[slot] {
			h.Remove(id)
		}
		h.addRow(r.vecs[slot])
		row := h.addNode(slices.Clone(r.links[slot][1:]), true)
		row[0] = int32(copy(row[1:], r.links[slot][0]))
	}
	h.entry, h.maxL = r.entry, r.maxL
	return h.Freeze()
}

// sameGraph requires the production index and the oracle to agree on
// every link list, on the serialized bytes and on approximate answers.
func sameGraph(idx *IncHNSW, ref *refHNSW, dim int) error {
	g := idx.view()
	if g.base.Len() != len(ref.links) {
		return fmt.Errorf("slot counts differ: %d vs %d", g.base.Len(), len(ref.links))
	}
	for s := range ref.links {
		if got, want := g.layers(int32(s)), len(ref.links[s]); got != want {
			return fmt.Errorf("slot %d on %d layers, oracle %d", s, got, want)
		}
		for l := range ref.links[s] {
			got, want := g.links(int32(s), l), ref.links[s][l]
			if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				return fmt.Errorf("slot %d layer %d: links %v, oracle %v", s, l, got, want)
			}
		}
	}
	snap, rsnap := idx.Freeze(), ref.snapshot()
	var a, b bytes.Buffer
	if err := snap.Save(&a); err != nil {
		return err
	}
	if err := rsnap.Save(&b); err != nil {
		return err
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		return fmt.Errorf("Save bytes differ")
	}
	for qi := uint64(0); qi < 5; qi++ {
		q := hnswVec(qi+3e6, dim)
		for _, ef := range []int{0, 3, 200} {
			if got, want := snap.SearchEf(q, 5, ef), rsnap.SearchEf(q, 5, ef); !reflect.DeepEqual(got, want) {
				return fmt.Errorf("SearchEf(ef=%d) = %v, oracle graph %v", ef, got, want)
			}
		}
	}
	return nil
}

// TestIncHNSWMemoisedSelectionIdentical is the graph-identity gate of
// the memoised construction: over duplicate-heavy vectors (so distance
// ties are common), interleaved removes and compactions, and a
// save/load in mid-stream (after which the loaded index knows nothing
// about its links), the production index and the from-scratch oracle
// must hold the same graph at every checkpoint.
func TestIncHNSWMemoisedSelectionIdentical(t *testing.T) {
	// Every metric, degree and dimensionality appears, not every combination:
	// the oracle is what construction used to cost.
	for _, c := range []struct {
		metric Metric
		m, dim int
	}{
		{DotProduct, 4, 4}, {DotProduct, 8, 17}, {DotProduct, 16, 64}, {DotProduct, 16, 5},
		{L2Squared, 4, 64}, {L2Squared, 8, 4}, {L2Squared, 16, 17}, {L2Squared, 4, 9},
	} {
		metric, m, dim := c.metric, c.m, c.dim
		t.Run(fmt.Sprintf("%v/M%d/dim%d", metric, m, dim), func(t *testing.T) {
			p := HNSWParams{M: m, EfConstruction: 40, Seed: uint64(m*dim) + 5}
			idx, ref := NewIncHNSW(metric, p), newRefHNSW(metric, p)
			const ops = 500
			var nextID int64
			var live []int64
			for i := 0; i < ops; i++ {
				v := mixU64(uint64(i)*31 + uint64(dim))
				switch {
				case v%9 == 0 && len(live) > 0:
					j := int(mixU64(v) % uint64(len(live)))
					id := live[j]
					live = append(live[:j], live[j+1:]...)
					if !idx.Remove(id) {
						t.Fatalf("op %d: remove of live id %d failed", i, id)
					}
					ref.Remove(id)
				case v%97 == 0:
					idx.Compact()
					ref.Compact()
				default:
					// A third of the adds repeat one of 40 vectors.
					seed := v
					if v%3 == 0 {
						seed = v % 40
					}
					vec := hnswVec(seed, dim)
					if err := idx.Add(nextID, vec); err != nil {
						t.Fatal(err)
					}
					ref.Add(nextID, vec)
					live = append(live, nextID)
					nextID++
				}
				if i == ops/2 {
					var buf bytes.Buffer
					if err := idx.Save(&buf); err != nil {
						t.Fatal(err)
					}
					loaded, err := LoadHNSW(&buf)
					if err != nil {
						t.Fatal(err)
					}
					idx = loaded
				}
				if i%100 == 99 || i == ops/2 {
					if err := sameGraph(idx, ref, dim); err != nil {
						t.Fatalf("after op %d: %v", i, err)
					}
				}
			}
		})
	}
}

// TestIncHNSWVisitSetGrowsGeometrically pins the fix for the quadratic visit
// set: an index that gains one node per Add must not reallocate (and
// clear) its mark array on every insert.
func TestIncHNSWVisitSetGrowsGeometrically(t *testing.T) {
	const n = 3000
	idx := NewIncHNSW(L2Squared, HNSWParams{M: 4, EfConstruction: 8, Seed: 1})
	reallocs, last := 0, 0
	for i := 0; i < n; i++ {
		if err := idx.Add(int64(i), hnswVec(uint64(i), 4)); err != nil {
			t.Fatal(err)
		}
		if c := len(idx.search.vis.mark); c != last {
			reallocs++
			last = c
		}
	}
	if last < n-1 {
		t.Fatalf("mark array covers %d nodes, index holds %d", last, n)
	}
	if reallocs > 16 { // log2(3000) < 12
		t.Fatalf("%d Adds reallocated the visit marks %d times, want O(log N)", n, reallocs)
	}

	// A round stamp must not survive growth: a mark set before the array
	// grew cannot read as visited afterwards.
	var v visitSet
	v.reset(4)
	v.testAndSet(2)
	v.reset(9)
	for i := int32(0); i < 9; i++ {
		if v.testAndSet(i) {
			t.Fatalf("node %d reads as visited right after a reset that grew the set", i)
		}
	}
}

// TestIncHNSWMemoWitnessesAreKeptLinks pins the invariant the memo's
// one-byte verdicts rest on: a witness is a link of the same level-0
// list that the last selection kept, ahead of the link it shadows in
// (d, id) scan order, so its position in the row names it. It walks
// every remembered list of graphs built over duplicate-heavy vectors
// with removes, compactions and a save/load (after which a list has no
// memo until its first prune builds one), then holds the encoding to a
// list longer than a byte can index.
func TestIncHNSWMemoWitnessesAreKeptLinks(t *testing.T) {
	for _, c := range []struct {
		metric Metric
		m, dim int
	}{{L2Squared, 4, 4}, {DotProduct, 6, 9}, {L2Squared, 16, 17}} {
		idx := NewIncHNSW(c.metric, HNSWParams{M: c.m, EfConstruction: 40, Seed: uint64(c.m)})
		var live []int64
		for i := 0; i < 900; i++ {
			v := mixU64(uint64(i)*17 + uint64(c.dim))
			switch {
			case v%7 == 0 && len(live) > 0:
				j := int(mixU64(v) % uint64(len(live)))
				idx.Remove(live[j])
				live = append(live[:j], live[j+1:]...)
			case v%131 == 0:
				idx.Compact()
			default:
				seed := v
				if v%3 == 0 {
					seed = v % 40
				}
				if err := idx.Add(int64(i), hnswVec(seed, c.dim)); err != nil {
					t.Fatal(err)
				}
				live = append(live, int64(i))
			}
			if i == 450 {
				var buf bytes.Buffer
				if err := idx.Save(&buf); err != nil {
					t.Fatal(err)
				}
				loaded, err := LoadHNSW(&buf)
				if err != nil {
					t.Fatal(err)
				}
				idx = loaded
			}
		}
		witnesses := 0
		g := idx.view()
		for s := range int32(g.base.Len()) {
			if idx.memo.isBare(s) {
				continue
			}
			links := g.links(s, 0)
			md, mw := idx.memo.at(s)
			for i, b := range mw[:len(links)] {
				if b == memoKept || b == memoUnjudged {
					continue
				}
				witnesses++
				p := int(b)
				if p >= i || mw[p] != memoKept || md[p] > md[i] || md[p] == md[i] && links[p] > links[i] {
					t.Fatalf("%v/M%d: slot %d link %d (%d at d %v) has witness position %d: %d at d %v, verdict %d",
						c.metric, c.m, s, i, links[i], md[i], p, links[p], md[p], mw[p])
				}
			}
		}
		if witnesses < 100 {
			t.Fatalf("%v/M%d: %d witnesses: the build no longer covers what it should", c.metric, c.m, witnesses)
		}
	}

	// Beyond the byte: a witness at position 300 is forgotten, not
	// truncated, and a shadowed link with no kept link ahead of it is a bug.
	list := make([]selCand, 302)
	for i := range list {
		list[i] = selCand{id: int32(1000 + i), wit: keptLink}
	}
	list[301].wit, list[5].wit = list[300].id, list[3].id
	if got := encodeWit(list, 301); got != memoUnjudged {
		t.Fatalf("a witness at position 300 encodes as %d, want %d (unjudged)", got, memoUnjudged)
	}
	if got := encodeWit(list, 5); got != 3 || decodeWit(got, []int32{1000, 1001, 1002, 1003}) != list[3].id {
		t.Fatalf("a witness at position 3 encodes as %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a witness behind the link it shadows encoded without a panic")
		}
	}()
	list[2].wit = list[7].id
	encodeWit(list, 2)
}
