package sparse

import (
	"sort"

	"erfilter/internal/entity"
)

// PrefixEpsJoin is an AllPairs-style prefix-filtering range join (Bayardo
// et al., WWW 2007): tokens are ordered by ascending document frequency
// and only the first few ("prefix") tokens of each set are indexed, which
// suffices to find every pair whose similarity reaches eps. It returns
// exactly the pairs a ScanCount Index's RangeQuery does, sorted — the
// family of exact ε-Join algorithms differ only in run-time (Section II) —
// and is competitive at the high thresholds it was designed for, while
// ScanCount wins at the low thresholds typical of ER (which is why the
// paper employs ScanCount). At eps <= 0 every prefix is the whole set, so
// the join is every pair sharing a token, as ScanCount's is.
func PrefixEpsJoin(c *Corpus, m Measure, eps float64) []entity.Pair {
	// Order tokens by ascending global frequency so prefixes hold the
	// rarest tokens.
	freq := make([]int, c.NumTokens)
	for _, set := range c.Sets1 {
		for _, t := range set {
			freq[t]++
		}
	}
	for _, set := range c.Sets2 {
		for _, t := range set {
			freq[t]++
		}
	}
	rank := make([]int32, c.NumTokens)
	order := make([]int32, c.NumTokens)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		if freq[order[a]] != freq[order[b]] {
			return freq[order[a]] < freq[order[b]]
		}
		return order[a] < order[b]
	})
	for r, t := range order {
		rank[t] = int32(r)
	}
	sortByRank := func(sets [][]int32) [][]int32 {
		out := make([][]int32, len(sets))
		for i, set := range sets {
			s := append([]int32(nil), set...)
			sort.Slice(s, func(a, b int) bool { return rank[s[a]] < rank[s[b]] })
			out[i] = s
		}
		return out
	}
	sets1 := sortByRank(c.Sets1)
	sets2 := sortByRank(c.Sets2)

	// prefixLen returns the number of leading tokens that must be indexed
	// /probed so that any pair with sim >= eps shares at least one prefix
	// token: |s| - ceil(minOverlap(|s|, |s|_other)) + 1. Using the loosest
	// bound (other set size unknown -> minimal required overlap given eps
	// and |s| alone) keeps the join exact for all three measures.
	prefixLen := func(size int) int {
		if size == 0 {
			return 0
		}
		var minOverlap float64
		switch m {
		case Jaccard:
			// J(A,B) >= eps implies overlap >= eps * |A| (since |A∪B| >= |A|).
			minOverlap = eps * float64(size)
		case Dice:
			// D >= eps implies overlap >= eps * |A| / 2... with |B| >= 0;
			// tight bound uses |A|+|B| >= |A|, so overlap >= eps*|A|/2.
			minOverlap = eps * float64(size) / 2
		case Cosine:
			// C >= eps implies overlap >= eps * sqrt(|A|*|B|) >= ... with
			// |B| >= overlap, overlap >= eps^2 * |A|.
			minOverlap = eps * eps * float64(size)
		}
		o := int(minOverlap)
		if float64(o) < minOverlap {
			o++
		}
		if o < 1 {
			o = 1
		}
		p := size - o + 1
		if p < 1 {
			p = 1
		}
		if p > size {
			p = size
		}
		return p
	}

	// Index prefixes of E1.
	postings := make([][]int32, c.NumTokens)
	for e, set := range sets1 {
		for _, t := range set[:prefixLen(len(set))] {
			postings[t] = append(postings[t], int32(e))
		}
	}

	// Probe with prefixes of E2; verify candidates exactly.
	stamp := make([]int32, len(sets1))
	for i := range stamp {
		stamp[i] = -1
	}
	var out []entity.Pair
	for e2, set := range sets2 {
		for _, t := range set[:prefixLen(len(set))] {
			for _, e1 := range postings[t] {
				if stamp[e1] == int32(e2) {
					continue
				}
				stamp[e1] = int32(e2)
				if m.Sim(overlapSorted(sets1[e1], set, rank), len(sets1[e1]), len(set)) >= eps {
					out = append(out, entity.Pair{Left: e1, Right: int32(e2)})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Left != out[j].Left {
			return out[i].Left < out[j].Left
		}
		return out[i].Right < out[j].Right
	})
	return out
}

// overlapSorted merge-counts two rank-sorted token sets.
func overlapSorted(a, b []int32, rank []int32) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		ra, rb := rank[a[i]], rank[b[j]]
		switch {
		case ra == rb:
			n++
			i++
			j++
		case ra < rb:
			i++
		default:
			j++
		}
	}
	return n
}

// TopKJoin computes the global top-k set similarity join (Xiao et al.,
// ICDE 2009): the k highest-similarity pairs across the whole E1 × E2
// space, breaking similarity ties by pair order. The paper contrasts this
// *global* join with kNN-Join's *local* per-query budgets (Section IV-C):
// a global join is equivalent to an ε-Join whose threshold equals the
// k-th best similarity.
func TopKJoin(c *Corpus, m Measure, k int) []Neighbor2 {
	if k <= 0 {
		return nil
	}
	idx := NewIndex(c.Sets1, c.NumTokens)
	var sc Scratch
	var all []Neighbor2
	for e2, q := range c.Sets2 {
		qs := len(q)
		idx.Overlaps(q, &sc, func(e1 int32, overlap int) {
			if sim := m.Sim(overlap, qs, idx.Size(e1)); sim > 0 {
				all = append(all, Neighbor2{Pair: entity.Pair{Left: e1, Right: int32(e2)}, Sim: sim})
			}
		})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Sim != all[j].Sim {
			return all[i].Sim > all[j].Sim
		}
		if all[i].Pair.Left != all[j].Pair.Left {
			return all[i].Pair.Left < all[j].Pair.Left
		}
		return all[i].Pair.Right < all[j].Pair.Right
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// Neighbor2 is a scored candidate pair of the global top-k join.
type Neighbor2 struct {
	Pair entity.Pair
	Sim  float64
}
