package lsh

import (
	"math"
	"testing"

	"erfilter/internal/entity"
	"erfilter/internal/text"
	"erfilter/internal/vector"
)

func TestProbeSequenceOrdering(t *testing.T) {
	options := [][]float64{
		{0, 0.5},
		{0, 0.1},
		{0, 0.3},
	}
	got := probeSequence(options, 8)
	if len(got) != 8 {
		t.Fatalf("probe count = %d", len(got))
	}
	// First probe must be the base.
	for _, c := range got[0] {
		if c != 0 {
			t.Fatalf("first probe not base: %v", got[0])
		}
	}
	cost := func(c []int) float64 {
		var s float64
		for p, i := range c {
			s += options[p][i]
		}
		return s
	}
	for i := 1; i < len(got); i++ {
		if cost(got[i]) < cost(got[i-1])-1e-12 {
			t.Fatalf("probe costs not non-decreasing: %v", got)
		}
	}
	// Second probe must flip the cheapest position (index 1).
	if got[1][1] != 1 || got[1][0] != 0 || got[1][2] != 0 {
		t.Fatalf("second probe = %v, want cheapest flip", got[1])
	}
	// All probes distinct.
	seen := map[string]bool{}
	for _, c := range got {
		k := fingerprint(c)
		if seen[k] {
			t.Fatalf("duplicate probe %v", c)
		}
		seen[k] = true
	}
}

func TestProbeSequenceBounds(t *testing.T) {
	if got := probeSequence(nil, 5); len(got) != 1 {
		t.Fatalf("empty options should yield just the base, got %v", got)
	}
	if got := probeSequence([][]float64{{0, 1}}, 100); len(got) != 2 {
		t.Fatalf("exhaustive enumeration expected 2 probes, got %d", len(got))
	}
	if got := probeSequence([][]float64{{0, 1}}, 0); got != nil {
		t.Fatalf("max=0 should yield nil")
	}
}

// pairs probes an index with every query, one after another as a batch
// join's prober does, and returns the (indexed, query) candidate pairs.
func pairs[Q any](queries []Q, query func(Q, *Scratch, func(e int32))) []entity.Pair {
	var sc Scratch
	var out []entity.Pair
	for j, q := range queries {
		query(q, &sc, func(e int32) { out = append(out, entity.Pair{Left: e, Right: int32(j)}) })
	}
	return out
}

func jaccardStrings(a, b string, k int) float64 {
	sa := map[string]bool{}
	for _, g := range text.NGrams(a, k) {
		sa[g] = true
	}
	sb := map[string]bool{}
	for _, g := range text.NGrams(b, k) {
		sb[g] = true
	}
	inter := 0
	for g := range sa {
		if sb[g] {
			inter++
		}
	}
	union := len(sa) + len(sb) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// TestMinHashCollisionProbability verifies the banding behaviour: pairs
// with high Jaccard similarity collide far more often than low-similarity
// pairs across repeated seeds.
func TestMinHashCollisionProbability(t *testing.T) {
	hi := [2]string{"canon powershot a540", "canon powershot a540 camera"}
	lo := [2]string{"canon powershot a540", "zzz qqq kkk www"}
	if jaccardStrings(hi[0], hi[1], 3) < 0.5 {
		t.Fatal("test setup: high pair not similar enough")
	}
	hits := func(pair [2]string) int {
		n := 0
		for seed := uint64(0); seed < 20; seed++ {
			m := &MinHash{Bands: 16, Rows: 4, K: 3, Seed: seed}
			ps := pairs([]string{pair[1]}, m.Build([]string{pair[0]}).Query)
			if len(ps) > 0 {
				n++
			}
		}
		return n
	}
	if h := hits(hi); h < 15 {
		t.Fatalf("high-similarity pair collided only %d/20 times", h)
	}
	if l := hits(lo); l > 5 {
		t.Fatalf("low-similarity pair collided %d/20 times", l)
	}
}

func TestMinHashDistinctPairs(t *testing.T) {
	m := &MinHash{Bands: 8, Rows: 2, K: 3, Seed: 1}
	t1 := []string{"alpha beta gamma", "alpha beta gamma"}
	t2 := []string{"alpha beta gamma"}
	ps := pairs(t2, m.Build(t1).Query)
	seen := map[entity.Pair]bool{}
	for _, p := range ps {
		if seen[p] {
			t.Fatalf("duplicate pair %v", p)
		}
		seen[p] = true
	}
}

// angled returns two unit vectors at the given angle (radians).
func angled(dim int, alpha float64) (vector.Vec, vector.Vec) {
	a := make(vector.Vec, dim)
	b := make(vector.Vec, dim)
	a[0] = 1
	b[0] = float32(math.Cos(alpha))
	b[1] = float32(math.Sin(alpha))
	return a, b
}

// TestHyperplaneCollisionProbability checks Pr[h(a)=h(b)] ≈ 1 - α/π per
// hyperplane by measuring single-hash agreement over many tables.
func TestHyperplaneCollisionProbability(t *testing.T) {
	dim := 32
	for _, alpha := range []float64{0.2, 1.0, 2.0} {
		a, b := angled(dim, alpha)
		collisions := 0
		trials := 400
		for s := 0; s < trials; s++ {
			h := &Hyperplane{Tables: 1, Hashes: 1, Probes: 1, Seed: uint64(s)}
			if len(pairs([]vector.Vec{b}, h.Build([]vector.Vec{a}).Query)) > 0 {
				collisions++
			}
		}
		want := 1 - alpha/math.Pi
		got := float64(collisions) / float64(trials)
		if math.Abs(got-want) > 0.1 {
			t.Errorf("alpha=%.1f: collision rate %.3f, want ≈ %.3f", alpha, got, want)
		}
	}
}

func TestHyperplaneMultiprobeWidensCandidates(t *testing.T) {
	dim := 16
	var idx []vector.Vec
	for i := 0; i < 50; i++ {
		v := make(vector.Vec, dim)
		buf := make([]float64, dim)
		vector.Gaussian(buf, uint64(i)+100)
		for j := range v {
			v[j] = float32(buf[j])
		}
		idx = append(idx, vector.Normalize(v))
	}
	q := []vector.Vec{idx[0]}
	one := &Hyperplane{Tables: 2, Hashes: 8, Probes: 1, Seed: 7}
	many := &Hyperplane{Tables: 2, Hashes: 8, Probes: 16, Seed: 7}
	n1 := len(pairs(q, one.Build(idx).Query))
	n2 := len(pairs(q, many.Build(idx).Query))
	if n2 < n1 {
		t.Fatalf("multi-probe produced fewer candidates: %d < %d", n2, n1)
	}
	if n2 == 0 {
		t.Fatal("query identical to an indexed vector found nothing")
	}
}

func TestCrossPolytopeFindsIdentical(t *testing.T) {
	dim := 32
	var idx []vector.Vec
	for i := 0; i < 30; i++ {
		v := make(vector.Vec, dim)
		buf := make([]float64, dim)
		vector.Gaussian(buf, uint64(i)+999)
		for j := range v {
			v[j] = float32(buf[j])
		}
		idx = append(idx, vector.Normalize(v))
	}
	cp := &CrossPolytope{Tables: 4, Hashes: 1, LastCPDim: 32, Probes: 1, Seed: 3}
	got := pairs([]vector.Vec{idx[5]}, cp.Build(idx).Query)
	found := false
	for _, p := range got {
		if p.Left == 5 {
			found = true
		}
	}
	if !found {
		t.Fatalf("identical vector not among candidates: %v", got)
	}
}

func TestCrossPolytopeSelectivity(t *testing.T) {
	// More hash functions -> fewer candidates (finer partition).
	dim := 32
	var idx []vector.Vec
	for i := 0; i < 200; i++ {
		v := make(vector.Vec, dim)
		buf := make([]float64, dim)
		vector.Gaussian(buf, uint64(i)+5000)
		for j := range v {
			v[j] = float32(buf[j])
		}
		idx = append(idx, vector.Normalize(v))
	}
	q := idx[:20]
	coarse := &CrossPolytope{Tables: 2, Hashes: 1, Probes: 1, Seed: 11}
	fine := &CrossPolytope{Tables: 2, Hashes: 3, Probes: 1, Seed: 11}
	nc := len(pairs(q, coarse.Build(idx).Query))
	nf := len(pairs(q, fine.Build(idx).Query))
	if nf > nc {
		t.Fatalf("more hashes should not increase candidates: fine=%d coarse=%d", nf, nc)
	}
}

func TestHadamardInvolution(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	orig := append([]float64(nil), v...)
	hadamard(v)
	hadamard(v)
	// H*H = n*I for the unnormalized transform.
	for i := range v {
		if math.Abs(v[i]-8*orig[i]) > 1e-9 {
			t.Fatalf("hadamard involution failed: %v", v)
		}
	}
}

func TestCrossPolytopeLastDimOne(t *testing.T) {
	// With lastCPDim=1 and a single hash the family degenerates to a
	// hyperplane-like single-bit hash; candidates must still be found for
	// identical vectors.
	dim := 16
	v := make(vector.Vec, dim)
	v[3] = 1
	cp := &CrossPolytope{Tables: 8, Hashes: 1, LastCPDim: 1, Probes: 1, Seed: 21}
	got := pairs([]vector.Vec{v}, cp.Build([]vector.Vec{v}).Query)
	if len(got) != 1 {
		t.Fatalf("identical vectors with lastCPDim=1: %v", got)
	}
}
