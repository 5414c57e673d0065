package knn

import (
	"math"
	"sort"
	"testing"

	"erfilter/internal/hit"
	"erfilter/internal/vector"
)

func randomVecs(n, dim int, seed uint64) []vector.Vec {
	out := make([]vector.Vec, n)
	buf := make([]float64, dim)
	for i := range out {
		vector.Gaussian(buf, seed+uint64(i)*31)
		v := make(vector.Vec, dim)
		for j := range v {
			v[j] = float32(buf[j])
		}
		out[i] = vector.Normalize(v)
	}
	return out
}

// naiveSearch is the oracle of the batch indexes: score everything with
// the raw smaller-is-better metric score, sort it all, keep a prefix, and
// only then report hits (higher is better).
func naiveSearch(vecs []vector.Vec, q vector.Vec, k int, m Metric) []hit.Hit {
	all := make([]hit.Hit, len(vecs))
	for i, v := range vecs {
		all[i] = hit.Hit{ID: int64(i), Score: m.score(q, v)}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score < all[j].Score
		}
		return all[i].ID < all[j].ID
	})
	for i := range all {
		all[i].Score = -all[i].Score
	}
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

func TestFlatMatchesNaive(t *testing.T) {
	vecs := randomVecs(100, 24, 1)
	queries := randomVecs(10, 24, 2)
	for _, m := range []Metric{DotProduct, L2Squared} {
		f := NewFlat(vecs, m)
		for _, q := range queries {
			for _, k := range []int{1, 3, 10} {
				got := f.Search(q, k)
				want := naiveSearch(vecs, q, k, m)
				if len(got) != len(want) {
					t.Fatalf("%s k=%d: %d results, want %d", m, k, len(got), len(want))
				}
				for i := range got {
					if got[i].ID != want[i].ID {
						t.Fatalf("%s k=%d pos %d: id %d, want %d", m, k, i, got[i].ID, want[i].ID)
					}
				}
			}
		}
	}
}

// TestFlatSearchAllocations holds a batch search to the answer it returns
// and nothing per candidate: the selection offers typed hits to a heap it
// sizes once (container/heap boxed every push into an interface).
func TestFlatSearchAllocations(t *testing.T) {
	f := NewFlat(randomVecs(1000, 16, 40), L2Squared)
	q := randomVecs(1, 16, 41)[0]
	if allocs := testing.AllocsPerRun(20, func() { f.Search(q, 10) }); allocs > 2 {
		t.Fatalf("Flat.Search allocates %.0f times per query, want at most 2", allocs)
	}
}

func TestFlatSelfNearest(t *testing.T) {
	vecs := randomVecs(50, 16, 3)
	f := NewFlat(vecs, L2Squared)
	for i := range vecs {
		got := f.Search(vecs[i], 1)
		if len(got) != 1 || got[0].ID != int64(i) {
			t.Fatalf("vector %d: nearest = %v", i, got)
		}
	}
}

func TestFlatEdgeCases(t *testing.T) {
	vecs := randomVecs(3, 8, 4)
	f := NewFlat(vecs, DotProduct)
	if got := f.Search(vecs[0], 0); got != nil {
		t.Fatal("k=0 should return nil")
	}
	if got := f.Search(vecs[0], 100); len(got) != 3 {
		t.Fatalf("k beyond index size: %d results", len(got))
	}
	if f.Len() != 3 {
		t.Fatalf("Len = %d", f.Len())
	}
}

func TestMetricsAgreeOnNormalizedVectors(t *testing.T) {
	vecs := randomVecs(60, 16, 5)
	q := randomVecs(1, 16, 6)[0]
	dp := NewFlat(vecs, DotProduct).Search(q, 5)
	l2 := NewFlat(vecs, L2Squared).Search(q, 5)
	for i := range dp {
		if dp[i].ID != l2[i].ID {
			t.Fatalf("rankings diverge on normalized vectors: %v vs %v", dp, l2)
		}
	}
}

func TestKMeansInvariants(t *testing.T) {
	vecs := randomVecs(80, 8, 7)
	km := kmeans(vecs, 5, 10, 42)
	if len(km.centroids) != 5 {
		t.Fatalf("centroids = %d", len(km.centroids))
	}
	if len(km.assign) != len(vecs) {
		t.Fatalf("assign length = %d", len(km.assign))
	}
	// Every vector is assigned to its nearest centroid.
	for i, v := range vecs {
		best, bestD := 0, math.Inf(1)
		for c := range km.centroids {
			if d := vector.L2Sq(v, km.centroids[c]); d < bestD {
				best, bestD = c, d
			}
		}
		if km.assign[i] != best {
			t.Fatalf("vector %d assigned to %d, nearest is %d", i, km.assign[i], best)
		}
	}
	// No empty clusters in this regime.
	counts := make([]int, 5)
	for _, c := range km.assign {
		counts[c]++
	}
	for c, n := range counts {
		if n == 0 {
			t.Fatalf("cluster %d empty", c)
		}
	}
}

func TestKMeansMoreClustersThanPoints(t *testing.T) {
	vecs := randomVecs(3, 4, 8)
	km := kmeans(vecs, 10, 5, 1)
	if len(km.centroids) > 3 {
		t.Fatalf("centroids = %d, want <= 3", len(km.centroids))
	}
}

func TestPartitionedBFHighRecall(t *testing.T) {
	vecs := randomVecs(300, 16, 9)
	queries := randomVecs(30, 16, 10)
	flat := NewFlat(vecs, L2Squared)
	part := NewPartitioned(vecs, PartitionedConfig{Metric: L2Squared, Scoring: BruteForce, Seed: 1})
	hits, total := 0, 0
	for _, q := range queries {
		want := map[int64]bool{}
		for _, r := range flat.Search(q, 5) {
			want[r.ID] = true
		}
		for _, r := range part.Search(q, 5) {
			if want[r.ID] {
				hits++
			}
			total++
		}
	}
	recall := float64(hits) / float64(total)
	if recall < 0.6 {
		t.Fatalf("partitioned BF recall vs flat = %.2f", recall)
	}
}

func TestPartitionedSelfQuery(t *testing.T) {
	vecs := randomVecs(100, 16, 11)
	part := NewPartitioned(vecs, PartitionedConfig{Metric: L2Squared, Scoring: BruteForce, Seed: 2})
	found := 0
	for i := range vecs {
		rs := part.Search(vecs[i], 1)
		if len(rs) == 1 && rs[0].ID == int64(i) {
			found++
		}
	}
	// The query's own partition always contains it, so self-recall is 1.
	if found != len(vecs) {
		t.Fatalf("self-query found %d/%d", found, len(vecs))
	}
}

func TestPartitionedAHApproximates(t *testing.T) {
	vecs := randomVecs(200, 32, 12)
	queries := randomVecs(20, 32, 13)
	flat := NewFlat(vecs, L2Squared)
	ah := NewPartitioned(vecs, PartitionedConfig{
		Metric: L2Squared, Scoring: AsymmetricHashing, Subspaces: 8, Seed: 3,
	})
	hits, total := 0.0, 0.0
	for _, q := range queries {
		want := map[int64]bool{}
		for _, r := range flat.Search(q, 10) {
			want[r.ID] = true
		}
		for _, r := range ah.Search(q, 10) {
			if want[r.ID] {
				hits++
			}
			total++
		}
	}
	if hits/total < 0.3 {
		t.Fatalf("AH recall@10 vs flat = %.2f, too low", hits/total)
	}
}

func TestProductQuantizerScoresCorrelate(t *testing.T) {
	vecs := randomVecs(100, 16, 14)
	pq := newProductQuantizer(vecs, 4, 9)
	q := randomVecs(1, 16, 15)[0]
	lut := pq.lut(q, L2Squared)
	// Approximate and exact distances must correlate positively: compare
	// the mean approx distance of the 10 exact-nearest vs 10 exact-farthest.
	type pairD struct{ exact, approx float64 }
	all := make([]pairD, len(vecs))
	for i, v := range vecs {
		all[i] = pairD{exact: vector.L2Sq(q, v), approx: pq.score(lut, int32(i))}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].exact < all[j].exact })
	var near, far float64
	for i := 0; i < 10; i++ {
		near += all[i].approx
		far += all[len(all)-1-i].approx
	}
	if near >= far {
		t.Fatalf("PQ scores uncorrelated with exact distances: near=%v far=%v", near, far)
	}
}
