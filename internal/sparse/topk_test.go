package sparse

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"erfilter/internal/hit"
)

// naiveHits is the oracle every probe is a cut of: each live set (alive
// nil: every set) that shares a token with the query, scored by
// naiveOverlap and Measure.Sim, under its position, in the canonical hit
// order. With naiveKNN it is the kNN-Join probe as it stood before
// selection replaced it — collect every candidate, sort them all, cut
// after k distinct values — which the probe must equal element for
// element, whichever way its index was built.
func naiveHits(sets [][]int32, alive []bool, query []int32, m Measure) []hit.Hit {
	var out []hit.Hit
	for e, set := range sets {
		if alive != nil && !alive[e] {
			continue
		}
		if sim := m.Sim(naiveOverlap(query, set), len(query), len(set)); sim > 0 {
			out = append(out, hit.Hit{ID: int64(e), Score: sim})
		}
	}
	hit.Sort(out)
	return out
}

// naiveRange is the ε-Join probe's cut of the oracle: the hits at or
// above eps.
func naiveRange(all []hit.Hit, eps float64) []hit.Hit {
	n := 0
	for n < len(all) && all[n].Score >= eps {
		n++
	}
	return all[:n]
}

// naiveKNN is the kNN-Join probe's cut of the oracle: the hits within the
// k highest distinct scores.
func naiveKNN(all []hit.Hit, k int) []hit.Hit {
	distinct, last := 0, math.Inf(1)
	for i, h := range all {
		if h.Score != last {
			if distinct == k {
				return all[:i]
			}
			distinct, last = distinct+1, h.Score
		}
	}
	return all
}

// tieHeavySets draws n sets of 1–4 tokens over a 10-token universe: a
// handful of distinct similarity values shared by many sets, which is
// where a top-k-distinct cut and a top-k cut part ways.
func tieHeavySets(rng *rand.Rand, n int) [][]int32 {
	sets := make([][]int32, n)
	for i := range sets {
		perm := rng.Perm(10)[:1+rng.Intn(4)]
		for _, tok := range perm {
			sets[i] = append(sets[i], int32(tok))
		}
	}
	return sets
}

// TestKNNQueryEqualsFullSort holds Index.KNNQuery, on a frozen IncIndex
// and on a NewIndex, to the collect-sort-cut oracle on random
// tie-heavy collections with tombstones (compacted or not), at the k that
// exercise every branch of the selection: 1, 3, exactly the number of
// candidates, and a k far beyond any collection — the corruption suite
// queries a loaded snapshot with K = 0x80000002, so nothing may be sized
// by k.
func TestKNNQueryEqualsFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 200; trial++ {
		sets := tieHeavySets(rng, 1+rng.Intn(60))
		alive := make([]bool, len(sets))
		inc := NewIncIndex()
		for e, set := range sets {
			alive[e] = true
			if err := inc.Add(int64(e), set); err != nil {
				t.Fatal(err)
			}
		}
		for e := range sets {
			if rng.Intn(3) == 0 {
				alive[e] = false
				inc.Remove(int64(e))
			}
		}
		if trial%2 == 0 {
			inc.Compact()
		}
		snap := inc.Freeze()
		// The batch index has no tombstones: it holds the survivors, in
		// order, and survivor[i] maps its entity numbers back.
		var survivors [][]int32
		var survivor []int64
		for e, set := range sets {
			if alive[e] {
				survivors = append(survivors, set)
				survivor = append(survivor, int64(e))
			}
		}
		batch := NewIndex(survivors, 10)

		for qi := 0; qi < 4; qi++ {
			query := tieHeavySets(rng, 1)[0]
			for _, m := range Measures() {
				all := len(naiveHits(sets, alive, query, m))
				for _, k := range []int{1, 3, all, 1 << 31} {
					want := naiveKNN(naiveHits(sets, alive, query, m), k)
					var sc Scratch // the zero value must do
					got := snap.KNNQuery(query, m, k, &sc)
					gotBatch := batch.KNNQuery(query, m, k, &Scratch{})
					if len(got) != len(want) || len(gotBatch) != len(want) {
						t.Fatalf("trial %d %v k=%d: %d incremental and %d batch neighbours, want %d",
							trial, m, k, len(got), len(gotBatch), len(want))
					}
					for i, w := range want {
						if got[i] != w {
							t.Fatalf("trial %d %v k=%d: incremental neighbour %d = %v, want %v", trial, m, k, i, got[i], w)
						}
						if b := gotBatch[i]; survivor[b.ID] != w.ID || b.Score != w.Score {
							t.Fatalf("trial %d %v k=%d: batch neighbour %d = %v, want %v", trial, m, k, i, b, w)
						}
					}
				}
			}
		}
	}
}

func TestKNNFloor(t *testing.T) {
	const all = math.SmallestNonzeroFloat64
	for _, c := range []struct {
		sims []float64
		k    int
		want float64
	}{
		{nil, 3, all},
		{[]float64{0.5, 0.2, 0.9}, 3, all},                        // no more than k candidates
		{[]float64{0.5, 0, 0.5, -1, 0.5, 0}, 2, all},              // one distinct positive value
		{[]float64{0.5, 0, 0.2, 0.5, 0.9, 0.2}, 3, 0.2},           // exactly k distinct
		{[]float64{0.5, 0.1, 0.2, 0.5, 0.9, 0.2, 0.7}, 3, 0.5},    // 0.7 evicts 0.2
		{[]float64{0.1, 0.2, 0.3, 0.4, 0.5}, 1, 0.5},              // ascending: every value inserts
		{[]float64{0.5, 0.4, 0.3, 0.2, 0.1}, 4, 0.2},              // descending: every value appends
		{[]float64{0.3, 0.3, 0.3}, 1 << 31, all},                  // k beyond any collection
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, 10, 3}, // past the stack buffer
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, 11, 2},
	} {
		if got := KNNFloor(c.sims, c.k); got != c.want {
			t.Errorf("KNNFloor(%v, %d) = %v, want %v", c.sims, c.k, got, c.want)
		}
	}
}

// probeCollection is a 10 000-set collection shaped like character
// 3-grams of product names: ~45 tokens per set from a skewed vocabulary,
// so a query shares a token with most of the collection — the shape that
// made the full sort three quarters of a read.
func probeCollection() (*Index, [][]int32) {
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.1, 8, 5999)
	mkSet := func() []int32 {
		seen := map[int32]bool{}
		var set []int32
		for n := 30 + rng.Intn(30); len(set) < n; {
			if tok := int32(zipf.Uint64()); !seen[tok] {
				seen[tok] = true
				set = append(set, tok)
			}
		}
		return set
	}
	idx := NewIncIndex()
	for id := int64(0); id < 10000; id++ {
		if err := idx.Add(id, mkSet()); err != nil {
			panic(err)
		}
	}
	queries := make([][]int32, 64)
	for i := range queries {
		queries[i] = mkSet()
	}
	return idx.Freeze(), queries
}

// TestKNNQueryAllocations pins what selection bought: a probe allocates
// its few survivors, not a candidate array (22 allocations and 681 KB
// per query on the benchmark's collection before; a reintroduced
// collect-all shows here first).
func TestKNNQueryAllocations(t *testing.T) {
	snap, queries := probeCollection()
	var sc Scratch
	i := 0
	allocs := testing.AllocsPerRun(len(queries), func() {
		snap.KNNQuery(queries[i%len(queries)], Cosine, 3, &sc)
		i++
	})
	if allocs > 6 {
		t.Fatalf("Index.KNNQuery allocates %.1f times per query, want at most 6", allocs)
	}
}

var probeSink int

// BenchmarkKNNQuery is one k = 3 probe of the 10 000-set collection.
func BenchmarkKNNQuery(b *testing.B) {
	snap, queries := probeCollection()
	var sc Scratch
	snap.KNNQuery(queries[0], Cosine, 3, &sc) // grow the scratch: -benchtime 1x is CI's smoke
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		probeSink += len(snap.KNNQuery(queries[i%len(queries)], Cosine, 3, &sc))
	}
}

// BenchmarkKNNQueryFewSlots is one k = 3 probe of a 100 000-set collection
// of rare tokens, where a query touches about 8 slots (under 1 %): the
// side of the crossover where the counter array's passes over every slot
// (Begin's zeroing, Found's walk), not the postings, are the probe's cost.
func BenchmarkKNNQueryFewSlots(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n, vocab = 100000, 400000
	mkSet := func(size int) []int32 {
		set := make([]int32, 0, size)
		for len(set) < size {
			if tok := int32(rng.Intn(vocab)); !slices.Contains(set, tok) {
				set = append(set, tok)
			}
		}
		return set
	}
	idx := NewIncIndex()
	for id := int64(0); id < n; id++ {
		if err := idx.Add(id, mkSet(4)); err != nil {
			b.Fatal(err)
		}
	}
	snap := idx.Freeze()
	queries := make([][]int32, 64)
	touched := 0
	var sc Scratch
	for i := range queries {
		queries[i] = mkSet(8)
		snap.Overlaps(queries[i], &sc, func(int32, int) { touched++ })
	}
	snap.KNNQuery(queries[0], Cosine, 3, &sc) // grow the scratch: -benchtime 1x is CI's smoke
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		probeSink += len(snap.KNNQuery(queries[i%len(queries)], Cosine, 3, &sc))
	}
	b.ReportMetric(float64(touched)/float64(len(queries)), "slots/query")
}

// BenchmarkRangeQuery is one ε = 0.25 probe of the 10 000-set collection.
func BenchmarkRangeQuery(b *testing.B) {
	snap, queries := probeCollection()
	var sc Scratch
	snap.RangeQuery(queries[0], Cosine, 0.25, &sc) // grow the scratch: -benchtime 1x is CI's smoke
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		probeSink += len(snap.RangeQuery(queries[i%len(queries)], Cosine, 0.25, &sc))
	}
}
