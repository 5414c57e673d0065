package core

import (
	"testing"

	"erfilter/internal/entity"
	"erfilter/internal/sparse"
	"erfilter/internal/text"
)

// knnJoin runs the kNN-Join over whitespace tokens of the two text
// collections.
func knnJoin(t *testing.T, t1, t2 []string, m sparse.Measure, k int, reverse bool) []entity.Pair {
	t.Helper()
	in := NewInput(taskOf(t, t1, t2, nil), entity.SchemaAgnostic)
	out, err := (&KNNJoinFilter{Model: text.Model{N: 1}, Measure: m, K: k, Reverse: reverse}).Run(in)
	if err != nil {
		t.Fatal(err)
	}
	return out.Pairs
}

var (
	cameras1 = []string{
		"canon powershot a540 camera",
		"nikon coolpix p100",
		"sony cybershot dsc w55",
		"olympus stylus",
	}
	cameras2 = []string{
		"canon powershot a540 6mp camera",
		"nikon coolpix p100 12mp",
		"sony dsc w55 cybershot camera",
		"kodak easyshare",
	}
)

func TestKNNJoinSubsetMonotoneInK(t *testing.T) {
	prev := map[entity.Pair]bool{}
	for k := 1; k <= 4; k++ {
		cur := map[entity.Pair]bool{}
		for _, p := range knnJoin(t, cameras1, cameras2, sparse.Cosine, k, false) {
			cur[p] = true
		}
		for p := range prev {
			if !cur[p] {
				t.Fatalf("k=%d lost pair %v present at k-1", k, p)
			}
		}
		prev = cur
	}
}

func TestKNNJoinNotCommutative(t *testing.T) {
	// Asymmetric setup: E2 has an entity similar to many E1 entities.
	t1 := []string{"a b", "c e", "d f"}
	t2 := []string{"a b c d"}
	fwd := knnJoin(t, t1, t2, sparse.Jaccard, 1, false) // one query (E2) -> its single best value
	rev := knnJoin(t, t1, t2, sparse.Jaccard, 1, true)  // three queries (E1) -> up to 3 pairs
	if len(rev) <= len(fwd) {
		t.Fatalf("expected reverse join to produce more pairs: fwd=%d rev=%d", len(fwd), len(rev))
	}
	// Whichever side was indexed, a pair is (E1 entity, E2 entity).
	for _, p := range rev {
		if int(p.Left) >= len(t1) || int(p.Right) >= len(t2) {
			t.Fatalf("reverse pair out of range: %v", p)
		}
	}
}

func TestKNNJoinPerQueryBudget(t *testing.T) {
	k := 2
	perQuery := map[int32]int{}
	for _, p := range knnJoin(t, cameras1, cameras2, sparse.Cosine, k, false) {
		perQuery[p.Right]++
	}
	// Each query can exceed k only due to ties; with this corpus ties are
	// absent, so each query yields at most k pairs.
	for q, n := range perQuery {
		if n > k+2 {
			t.Fatalf("query %d has %d neighbors for k=%d", q, n, k)
		}
	}
}

// TestSidesAndPairOfAreInverse pins the two RVS functions to each other:
// a groundtruth pair splits into (indexed, query) by Sides, and PairOf
// puts exactly that pair back, in both directions.
func TestSidesAndPairOfAreInverse(t *testing.T) {
	p := entity.Pair{Left: 3, Right: 7}
	for _, reverse := range []bool{false, true} {
		indexed, query := Sides(reverse, p.Left, p.Right)
		if got := PairOf(reverse, int(query), int64(indexed)); got != p {
			t.Errorf("reverse=%v: PairOf(Sides(%v)) = %v", reverse, p, got)
		}
	}
	if indexed, _ := Sides(true, "e1", "e2"); indexed != "e2" {
		t.Errorf("RVS indexes %s, want e2", indexed)
	}
}
