package sparse

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"erfilter/internal/entity"
	"erfilter/internal/text"
)

func TestMeasureValues(t *testing.T) {
	// A = {a,b,c}, B = {b,c,d}: overlap 2.
	if got := Cosine.Sim(2, 3, 3); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Errorf("cosine = %v", got)
	}
	if got := Dice.Sim(2, 3, 3); math.Abs(got-4.0/6.0) > 1e-12 {
		t.Errorf("dice = %v", got)
	}
	if got := Jaccard.Sim(2, 3, 3); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("jaccard = %v", got)
	}
	// Empty sets.
	for _, m := range Measures() {
		if got := m.Sim(0, 0, 5); got != 0 {
			t.Errorf("%s on empty set = %v", m, got)
		}
	}
}

func TestMeasureProperties(t *testing.T) {
	f := func(overlap, a, b uint8) bool {
		o, sa, sb := int(overlap), int(a), int(b)
		if o > sa {
			o = sa
		}
		if o > sb {
			o = sb
		}
		for _, m := range Measures() {
			s := m.Sim(o, sa, sb)
			if s < 0 || s > 1 || math.IsNaN(s) {
				return false
			}
			// symmetry
			if s != m.Sim(o, sb, sa) {
				return false
			}
			// identity: full overlap of equal sets gives 1
			if sa > 0 && m.Sim(sa, sa, sa) != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBuildCorpusSharedDictionary(t *testing.T) {
	c := BuildCorpus([]string{"canon camera"}, []string{"camera bag"}, text.Model{N: 1})
	if c.NumTokens != 3 {
		t.Fatalf("dictionary size = %d, want 3", c.NumTokens)
	}
	// "camera" must map to the same id in both sets.
	common := map[int32]bool{}
	for _, id := range c.Sets1[0] {
		common[id] = true
	}
	shared := 0
	for _, id := range c.Sets2[0] {
		if common[id] {
			shared++
		}
	}
	if shared != 1 {
		t.Fatalf("shared token count = %d, want 1", shared)
	}
}

func naiveOverlap(a, b []int32) int {
	m := map[int32]bool{}
	for _, x := range a {
		m[x] = true
	}
	n := 0
	for _, x := range b {
		if m[x] {
			n++
		}
	}
	return n
}

func TestScanCountMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	numTokens := 50
	mkSet := func() []int32 {
		n := rng.Intn(10) + 1
		seen := map[int32]bool{}
		var s []int32
		for len(s) < n {
			tok := int32(rng.Intn(numTokens))
			if !seen[tok] {
				seen[tok] = true
				s = append(s, tok)
			}
		}
		return s
	}
	var sets [][]int32
	for i := 0; i < 40; i++ {
		sets = append(sets, mkSet())
	}
	idx := NewIndex(sets, numTokens)
	for trial := 0; trial < 30; trial++ {
		q := mkSet()
		got := map[int32]int{}
		idx.Overlaps(q, func(e int32, o int) { got[e] = o })
		for e, set := range sets {
			want := naiveOverlap(q, set)
			if want == 0 {
				if _, ok := got[int32(e)]; ok {
					t.Fatalf("entity %d reported with zero overlap", e)
				}
				continue
			}
			if got[int32(e)] != want {
				t.Fatalf("overlap(%d) = %d, want %d", e, got[int32(e)], want)
			}
		}
	}
}

func naiveEpsJoin(c *Corpus, m Measure, eps float64) map[entity.Pair]bool {
	out := map[entity.Pair]bool{}
	for i, a := range c.Sets1 {
		for j, b := range c.Sets2 {
			if m.Sim(naiveOverlap(a, b), len(a), len(b)) >= eps {
				out[entity.Pair{Left: int32(i), Right: int32(j)}] = true
			}
		}
	}
	return out
}

func testCorpus() *Corpus {
	t1 := []string{
		"canon powershot a540 camera",
		"nikon coolpix p100",
		"sony cybershot dsc w55",
		"olympus stylus",
	}
	t2 := []string{
		"canon powershot a540 6mp camera",
		"nikon coolpix p100 12mp",
		"sony dsc w55 cybershot camera",
		"kodak easyshare",
	}
	return BuildCorpus(t1, t2, text.Model{N: 1})
}

func TestEpsJoinMatchesNaive(t *testing.T) {
	c := testCorpus()
	for _, m := range Measures() {
		for _, eps := range []float64{0.1, 0.3, 0.5, 0.8, 1.0} {
			got := EpsJoin(c, m, eps)
			want := naiveEpsJoin(c, m, eps)
			if len(got) != len(want) {
				t.Fatalf("%s eps=%v: %d pairs, want %d", m, eps, len(got), len(want))
			}
			for _, p := range got {
				if !want[p] {
					t.Fatalf("%s eps=%v: unexpected pair %v", m, eps, p)
				}
			}
		}
	}
}

func TestEpsJoinMonotoneInThreshold(t *testing.T) {
	c := testCorpus()
	prev := math.MaxInt
	for _, eps := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		n := len(EpsJoin(c, Jaccard, eps))
		if n > prev {
			t.Fatalf("candidates not monotone: eps=%v gives %d > %d", eps, n, prev)
		}
		prev = n
	}
}

func TestKNNQueryTieSemantics(t *testing.T) {
	// Three indexed sets; two are equidistant from the query.
	sets := [][]int32{
		{0, 1},    // sim to query {0,1}: jaccard 1
		{0, 2},    // jaccard 1/3
		{1, 2},    // jaccard 1/3 (tie with previous)
		{3, 4, 5}, // 0
	}
	idx := NewIndex(sets, 6)
	got := idx.KNNQuery([]int32{0, 1}, Jaccard, 2)
	// k=2 distinct similarity values: 1.0 and 1/3; the 1/3 tie includes
	// both entities -> 3 results.
	if len(got) != 3 {
		t.Fatalf("kNN with ties returned %d, want 3: %v", len(got), got)
	}
	if got[0].ID != 0 || got[0].Score != 1 {
		t.Fatalf("first neighbor wrong: %v", got[0])
	}
	// Zero-similarity entity never returned.
	for _, n := range got {
		if n.ID == 3 {
			t.Fatal("zero-similarity entity returned")
		}
	}
	// k=1 returns only the top value.
	if got := idx.KNNQuery([]int32{0, 1}, Jaccard, 1); len(got) != 1 {
		t.Fatalf("k=1 returned %v", got)
	}
}

func TestKNNQueryMatchesNaive(t *testing.T) {
	c := randomCorpus(40, 30, 30, 9)
	idx := NewIndex(c.Sets1, c.NumTokens)
	for qi, q := range c.Sets2 {
		for _, k := range []int{1, 2, 5} {
			got := idx.KNNQuery(q, Cosine, k)
			// Naive: compute all sims, keep those within the k highest
			// distinct positive values.
			type sv struct {
				e   int64
				sim float64
			}
			var all []sv
			for e, set := range c.Sets1 {
				if s := Cosine.Sim(naiveOverlap(q, set), len(q), len(set)); s > 0 {
					all = append(all, sv{e: int64(e), sim: s})
				}
			}
			sort.Slice(all, func(i, j int) bool { return all[i].sim > all[j].sim })
			distinct := map[float64]bool{}
			want := map[int64]bool{}
			for _, x := range all {
				if !distinct[x.sim] {
					if len(distinct) == k {
						break
					}
					distinct[x.sim] = true
				}
				want[x.e] = true
			}
			if len(got) != len(want) {
				t.Fatalf("query %d k=%d: got %d results, want %d", qi, k, len(got), len(want))
			}
			for _, n := range got {
				if !want[n.ID] {
					t.Fatalf("query %d k=%d: unexpected entity %d", qi, k, n.ID)
				}
			}
		}
	}
}
