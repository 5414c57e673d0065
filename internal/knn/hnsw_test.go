package knn

import (
	"testing"

	"erfilter/internal/hit"
	"erfilter/internal/vector"
)

func TestHNSWSelfRecall(t *testing.T) {
	vecs := randomVecs(200, 16, 21)
	idx := NewHNSW(vecs, L2Squared, HNSWParams{Seed: 1})
	found := 0
	for i := range vecs {
		rs := idx.Search(vecs[i], 1)
		if len(rs) == 1 && rs[0].ID == int64(i) {
			found++
		}
	}
	if found < 195 {
		t.Fatalf("self-recall %d/200", found)
	}
}

func TestHNSWRecallVsFlat(t *testing.T) {
	vecs := randomVecs(400, 24, 22)
	queries := randomVecs(40, 24, 23)
	flat := NewFlat(vecs, L2Squared)
	idx := NewHNSW(vecs, L2Squared, HNSWParams{EfSearch: 96, Seed: 2})
	hits, total := 0, 0
	for _, q := range queries {
		want := map[int64]bool{}
		for _, r := range flat.Search(q, 10) {
			want[r.ID] = true
		}
		for _, r := range idx.Search(q, 10) {
			if want[r.ID] {
				hits++
			}
			total++
		}
	}
	recall := float64(hits) / float64(total)
	if recall < 0.8 {
		t.Fatalf("HNSW recall@10 = %.2f", recall)
	}
}

func TestHNSWResultsSorted(t *testing.T) {
	vecs := randomVecs(100, 8, 24)
	idx := NewHNSW(vecs, L2Squared, HNSWParams{Seed: 3})
	rs := idx.Search(randomVecs(1, 8, 25)[0], 10)
	for i := 1; i < len(rs); i++ {
		if hit.Compare(rs[i-1], rs[i]) >= 0 {
			t.Fatalf("results not sorted: %v", rs)
		}
	}
}

func TestHNSWEdgeCases(t *testing.T) {
	empty := NewHNSW(nil, L2Squared, HNSWParams{})
	if got := empty.Search(make(vector.Vec, 8), 5); got != nil {
		t.Fatalf("empty index returned %v", got)
	}
	one := randomVecs(1, 8, 26)
	single := NewHNSW(one, L2Squared, HNSWParams{})
	if got := single.Search(one[0], 5); len(got) != 1 || got[0].ID != 0 {
		t.Fatalf("single-vector index returned %v", got)
	}
	if got := single.Search(one[0], 0); got != nil {
		t.Fatal("k=0 must return nil")
	}
}

func TestHNSWDeterministicGivenSeed(t *testing.T) {
	vecs := randomVecs(150, 12, 27)
	q := randomVecs(1, 12, 28)[0]
	a := NewHNSW(vecs, L2Squared, HNSWParams{Seed: 9}).Search(q, 5)
	b := NewHNSW(vecs, L2Squared, HNSWParams{Seed: 9}).Search(q, 5)
	if len(a) != len(b) {
		t.Fatal("non-deterministic result size")
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatal("non-deterministic results for equal seeds")
		}
	}
}
