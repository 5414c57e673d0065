// Package hit is the result contract of every nearest-neighbour probe in
// the repository: what a candidate is, the one order candidates are
// listed in, the three ways the paper cuts a candidate list (Section IV),
// and the fold that puts the answers of a partitioned collection back
// together. The ScanCount, flat and HNSW kernels and the segment readers
// produce []Hit; shards and the resolver Gather them; the JSON encoder
// writes them as they are. DESIGN.md §7 "The result contract".
package hit

import (
	"cmp"
	"slices"
)

// Hit is one candidate: a resident entity and its score under the
// resolver's configuration. Higher is better for every method: sparse
// methods report the set similarity, dense methods the negated metric
// score (the inner product under DotProduct, the negated squared distance
// under L2Squared — so an exact L2² match scores -0).
type Hit struct {
	ID    int64   `json:"id"`
	Score float64 `json:"score"`
}

// Compare is the canonical order: score descending, then id ascending. An
// id occurs once in a collection, so the order is total, and a sorted
// list is a pure function of the set of hits in it — which is what lets
// answers be compared byte for byte across shard counts, storage kinds
// and replicas. -0 and +0 are one score.
func Compare(a, b Hit) int {
	return cmp.Or(cmp.Compare(b.Score, a.Score), cmp.Compare(a.ID, b.ID))
}

// Sort orders hits canonically.
func Sort(hs []Hit) { slices.SortFunc(hs, Compare) }

// Cut is how a method bounds its candidate list. The paper has two
// thresholds and three cuts: a similarity threshold keeps a union, a
// cardinality threshold counts either candidates or distinct values.
type Cut uint8

const (
	// Union keeps everything: ε-Join's answer is every set at or above
	// the similarity threshold, which the probe has already applied.
	Union Cut = iota
	// Top keeps the k best hits: the flat and HNSW kNN search.
	Top
	// Distinct keeps the hits within the k highest distinct scores, ties
	// included: kNN-Join, whose k counts similarity values.
	Distinct
)

// Count is what the cut's k counts in a sorted list: hits, or distinct
// scores under Distinct. A list with Count >= k fills the cut.
func (c Cut) Count(hs []Hit) int {
	if c != Distinct {
		return len(hs)
	}
	n := 0
	for i, h := range hs {
		if i == 0 || h.Score != hs[i-1].Score {
			n++
		}
	}
	return n
}

// Apply cuts a sorted list to k, in place. k <= 0 keeps nothing, except
// under Union, which has no k.
func (c Cut) Apply(hs []Hit, k int) []Hit {
	switch c {
	case Top:
		return hs[:min(len(hs), max(k, 0))]
	case Distinct:
		n := 0
		for i, h := range hs {
			if i == 0 || h.Score != hs[i-1].Score {
				if n++; n > k {
					return hs[:i]
				}
			}
		}
	}
	return hs
}

// Gather folds the answers of the disjoint parts of a collection — the
// shards of a resolver, or one shard's memtable and segments — into the
// answer over the whole: concatenate, Sort, Apply the cut again. Each
// part must be sorted and cut at the same k, as every probe returns it.
//
// The fold is exact because each cut keeps a prefix of the canonical
// order that only the hits ahead of a hit can push it out of, and a part
// holds a subset of those:
//
//   - Union keeps every hit, so the whole's answer is the concatenation;
//   - Top keeps a hit with fewer than k hits ahead of it in the whole; the
//     ones ahead of it in its own part are among those, so its part kept
//     it too;
//   - Distinct keeps a hit with fewer than k distinct scores above its own
//     in the whole; the distinct scores above it in its part are among
//     those, so its part kept it too.
//
// So the concatenation holds every hit of the whole's answer, and
// nothing that is not a hit of the whole; sorting it and cutting again
// drops exactly the rest. The argument never looks at how the collection
// was split, so it holds for any partition, for parts that are
// themselves gathers (a gather of gathers is the one-level gather), and,
// read over the matching sub-collection, for the parts of a filtered
// query.
//
// A single part is the answer as it stands. An answer is never nil: no
// hits is the empty list, and encodes as [].
func Gather(c Cut, k int, parts ...[]Hit) []Hit {
	var out []Hit
	if len(parts) == 1 {
		out = parts[0]
	} else {
		out = slices.Concat(parts...)
		Sort(out)
		out = c.Apply(out, k)
	}
	if out == nil {
		out = []Hit{}
	}
	return out
}

// TopK keeps the K best hits offered to it, whatever the order they
// arrive in. It holds them in a binary heap with the worst kept hit at
// the root, grown by append: K may come from the network, and a TopK
// never holds more than it was offered. The zero K keeps nothing.
type TopK struct {
	K    int
	heap []Hit
}

// Grow makes room for n more hits in one allocation, for a caller that
// knows it will offer at least that many: n is the caller's own count,
// never a K off the network.
func (t *TopK) Grow(n int) { t.heap = slices.Grow(t.heap, n) }

// Offer considers one hit.
func (t *TopK) Offer(h Hit) {
	if len(t.heap) < t.K {
		t.heap = append(t.heap, h)
		for i := len(t.heap) - 1; i > 0; {
			p := (i - 1) / 2
			if Compare(t.heap[i], t.heap[p]) <= 0 {
				break
			}
			t.heap[i], t.heap[p] = t.heap[p], t.heap[i]
			i = p
		}
		return
	}
	if len(t.heap) == 0 || Compare(h, t.heap[0]) >= 0 {
		return
	}
	t.heap[0] = h
	for i, n := 0, len(t.heap); ; {
		w := i // the worst of i and its children
		if l := 2*i + 1; l < n && Compare(t.heap[l], t.heap[w]) > 0 {
			w = l
		}
		if r := 2*i + 2; r < n && Compare(t.heap[r], t.heap[w]) > 0 {
			w = r
		}
		if w == i {
			return
		}
		t.heap[i], t.heap[w] = t.heap[w], t.heap[i]
		i = w
	}
}

// Sorted returns the kept hits in canonical order. It sorts the heap in
// place, so it ends the TopK's use.
func (t *TopK) Sorted() []Hit {
	Sort(t.heap)
	return t.heap
}
