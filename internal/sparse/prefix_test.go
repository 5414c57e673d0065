package sparse

import (
	"math/rand"
	"strings"
	"testing"

	"erfilter/internal/entity"
	"erfilter/internal/text"
)

// randomCorpus builds a corpus of random token strings.
func randomCorpus(n1, n2, vocab int, seed int64) *Corpus {
	rng := rand.New(rand.NewSource(seed))
	words := make([]string, vocab)
	for i := range words {
		words[i] = string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+(i/676)%26))
	}
	mk := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			k := 2 + rng.Intn(8)
			toks := make([]string, k)
			for j := range toks {
				toks[j] = words[rng.Intn(vocab)]
			}
			out[i] = strings.Join(toks, " ")
		}
		return out
	}
	return BuildCorpus(mk(n1), mk(n2), text.Model{N: 1})
}

// TestPrefixEpsJoinEquivalence verifies the central exactness property of
// the ε-Join algorithm family: every algorithm returns the same pairs.
func TestPrefixEpsJoinEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		c := randomCorpus(60, 80, 40, seed)
		for _, m := range Measures() {
			for _, eps := range []float64{0.2, 0.4, 0.6, 0.8, 0.95} {
				want := pairKeySet(epsJoin(c, m, eps))
				got := pairKeySet(PrefixEpsJoin(c, m, eps))
				if len(got) != len(want) {
					t.Fatalf("seed=%d %s eps=%v: prefix join %d pairs, scancount %d",
						seed, m, eps, len(got), len(want))
				}
				for p := range got {
					if !want[p] {
						t.Fatalf("seed=%d %s eps=%v: extra pair %v", seed, m, eps, p)
					}
				}
			}
		}
	}
}

func pairKeySet(ps []entity.Pair) map[entity.Pair]bool {
	m := make(map[entity.Pair]bool, len(ps))
	for _, p := range ps {
		m[p] = true
	}
	return m
}

func TestPrefixEpsJoinDegenerateThreshold(t *testing.T) {
	c := testCorpus()
	got := PrefixEpsJoin(c, Jaccard, 0)
	want := epsJoin(c, Jaccard, 0)
	if len(got) != len(want) {
		t.Fatalf("eps=0: %d vs %d", len(got), len(want))
	}
}

func TestTopKJoinGlobalSemantics(t *testing.T) {
	c := testCorpus()
	top := TopKJoin(c, Jaccard, 3)
	if len(top) != 3 {
		t.Fatalf("topk returned %d", len(top))
	}
	// Results sorted by similarity descending.
	for i := 1; i < len(top); i++ {
		if top[i].Sim > top[i-1].Sim {
			t.Fatalf("not sorted: %v", top)
		}
	}
	// Equivalent to eps-join at the k-th similarity: every returned pair
	// reaches that threshold, and no excluded pair exceeds it.
	kth := top[len(top)-1].Sim
	all := epsJoin(c, Jaccard, kth)
	if len(all) < len(top) {
		t.Fatalf("eps-join at k-th sim returned fewer pairs (%d < %d)", len(all), len(top))
	}
	included := map[entity.Pair]bool{}
	for _, n := range top {
		included[n.Pair] = true
	}
	for _, p := range all {
		if included[p] {
			continue
		}
		// Any non-included pair must not exceed the k-th similarity.
		sim := simOf(c, Jaccard, p)
		if sim > kth {
			t.Fatalf("pair %v with sim %v > k-th %v missing from top-k", p, sim, kth)
		}
	}
}

func simOf(c *Corpus, m Measure, p entity.Pair) float64 {
	return m.Sim(naiveOverlap(c.Sets1[p.Left], c.Sets2[p.Right]),
		len(c.Sets1[p.Left]), len(c.Sets2[p.Right]))
}

func TestTopKJoinEdge(t *testing.T) {
	c := testCorpus()
	if got := TopKJoin(c, Cosine, 0); got != nil {
		t.Fatal("k=0 must return nil")
	}
	huge := TopKJoin(c, Cosine, 10000)
	// Bounded by the number of overlapping pairs.
	if len(huge) > 16 {
		t.Fatalf("topk returned %d pairs", len(huge))
	}
}
