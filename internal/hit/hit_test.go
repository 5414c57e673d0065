package hit

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

var cuts = []Cut{Union, Top, Distinct}

// seeded returns a quick.Config whose seed the test logs, so a failure
// reproduces: replace the seed with the printed one.
func seeded(t *testing.T, n int) *quick.Config {
	seed := time.Now().UnixNano()
	t.Logf("seed %d", seed)
	return &quick.Config{MaxCount: n, Rand: rand.New(rand.NewSource(seed))}
}

// tieHeavy draws n hits with distinct ids and scores from a handful of
// values (both zeros among them), so ties straddle every cut.
func tieHeavy(rng *rand.Rand, n int) []Hit {
	scores := []float64{0.9, 0.75, 0.75, 0.5, 0.25, 0, math.Copysign(0, -1), -0.3}
	hs := make([]Hit, n)
	for i, id := range rng.Perm(n) {
		hs[i] = Hit{ID: int64(id), Score: scores[rng.Intn(1+rng.Intn(len(scores)))]}
	}
	return hs
}

// reference is the answer over the whole: full sort, then the cut.
func reference(c Cut, k int, all []Hit) []Hit {
	out := slices.Clone(all)
	Sort(out)
	return c.Apply(out, k)
}

// split deals the hits into 1–8 parts, some of them empty, and answers
// each part on its own: sorted and cut.
func split(rng *rand.Rand, c Cut, k int, all []Hit) [][]Hit {
	parts := make([][]Hit, 1+rng.Intn(8))
	for _, h := range all {
		i := rng.Intn(len(parts))
		if len(parts) > 2 && i == 0 {
			i = 1 // with three or more parts the first stays empty
		}
		parts[i] = append(parts[i], h)
	}
	for i := range parts {
		parts[i] = reference(c, k, parts[i])
	}
	return parts
}

func ks(n int) []int { return []int{0, 1, n - 1, n, n + 1, 1 << 31} }

func same(a, b []Hit) bool { return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b)) }

// TestGatherAssociative is the contract every scatter-gather in the
// repository rests on: however a collection is partitioned, gathering
// the parts' own answers gives the answer over the whole.
func TestGatherAssociative(t *testing.T) {
	prop := func(seed int64, size uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		all := tieHeavy(rng, int(size)%40)
		for _, c := range cuts {
			for _, k := range ks(len(all)) {
				got := Gather(c, k, split(rng, c, k, all)...)
				if want := reference(c, k, all); !same(got, want) {
					t.Logf("cut %d k %d over %v:\ngot  %v\nwant %v", c, k, all, got, want)
					return false
				}
				if got == nil {
					t.Logf("cut %d k %d: a gathered answer is never nil", c, k)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, seeded(t, 300)); err != nil {
		t.Fatal(err)
	}
}

// TestGatherFlattens: a gather of gathers is the one-level gather. This
// is what lets a shard fold its memtable and every segment in one step
// instead of folding the segments first.
func TestGatherFlattens(t *testing.T) {
	prop := func(seed int64, size uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		all := tieHeavy(rng, int(size)%40)
		for _, c := range cuts {
			for _, k := range ks(len(all)) {
				parts := split(rng, c, k, all)
				cutAt := rng.Intn(len(parts) + 1)
				nested := Gather(c, k, Gather(c, k, parts[:cutAt]...), Gather(c, k, parts[cutAt:]...))
				if flat := Gather(c, k, parts...); !same(nested, flat) {
					t.Logf("cut %d k %d parts %v split at %d:\nnested %v\nflat   %v", c, k, parts, cutAt, nested, flat)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, seeded(t, 300)); err != nil {
		t.Fatal(err)
	}
}

func TestGatherSinglePartAsItStands(t *testing.T) {
	part := []Hit{{ID: 3, Score: 1}, {ID: 1, Score: 1}} // neither sorted nor cut
	if got := Gather(Top, 1, part); &got[0] != &part[0] || len(got) != 2 {
		t.Fatalf("a single part must come back as it stands, got %v", got)
	}
	for _, parts := range [][][]Hit{nil, {nil}, {nil, nil}, {{}, nil}} {
		got := Gather(Distinct, 3, parts...)
		if got == nil || len(got) != 0 {
			t.Fatalf("Gather(%v) = %#v, want the empty, non-nil list", parts, got)
		}
		if raw, _ := json.Marshal(got); string(raw) != "[]" {
			t.Fatalf("an empty answer encodes as %s, want []", raw)
		}
	}
}

// TestTopKEqualsSortPrefix: the bounded heap keeps exactly the k-prefix
// of the full sort, in whatever order the hits arrive.
func TestTopKEqualsSortPrefix(t *testing.T) {
	prop := func(seed int64, size uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		all := tieHeavy(rng, int(size)%60)
		for _, k := range ks(len(all)) {
			top := TopK{K: k}
			for _, h := range all {
				top.Offer(h)
			}
			if got, want := top.Sorted(), reference(Top, k, all); !same(got, want) {
				t.Logf("k %d over %v:\ngot  %v\nwant %v", k, all, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, seeded(t, 500)); err != nil {
		t.Fatal(err)
	}

	// equal scores, ids on both sides of the boundary, worst ids first
	top := TopK{K: 3}
	for _, id := range []int64{9, 8, 7, 1, 2, 3, 6} {
		top.Offer(Hit{ID: id, Score: 0.5})
	}
	if got, want := top.Sorted(), []Hit{{1, 0.5}, {2, 0.5}, {3, 0.5}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("equal scores: kept %v, want %v", got, want)
	}
}

// TestTopKAllocatesForWhatItHolds: k arrives from the network; a TopK
// asked for two billion hits and offered ten holds ten.
func TestTopKAllocatesForWhatItHolds(t *testing.T) {
	top := TopK{K: 1 << 31}
	for i := 0; i < 10; i++ {
		top.Offer(Hit{ID: int64(i), Score: float64(i % 3)})
	}
	if got := top.Sorted(); len(got) != 10 || cap(got) > 32 {
		t.Fatalf("TopK{K: 1<<31} offered 10 hits holds len %d cap %d", len(got), cap(got))
	}
}

// TestZerosAreOneScore: an exact L2² match scores -0 and an empty
// overlap +0; they tie, keep id order, and count as one distinct value.
func TestZerosAreOneScore(t *testing.T) {
	neg := math.Copysign(0, -1)
	hs := []Hit{{ID: 4, Score: 0}, {ID: 2, Score: neg}, {ID: 3, Score: 0}, {ID: 1, Score: neg}, {ID: 5, Score: -1}}
	Sort(hs)
	if ids := []int64{hs[0].ID, hs[1].ID, hs[2].ID, hs[3].ID, hs[4].ID}; !reflect.DeepEqual(ids, []int64{1, 2, 3, 4, 5}) {
		t.Fatalf("sorted ids %v, want 1..5: the zeros must tie and fall back to id order", ids)
	}
	if n := Distinct.Count(hs); n != 2 {
		t.Fatalf("Distinct.Count = %d, want 2 (zero, -1)", n)
	}
	if got := Distinct.Apply(hs, 1); len(got) != 4 {
		t.Fatalf("Distinct.Apply(k=1) kept %d, want the four zeros", len(got))
	}
	if raw, _ := json.Marshal(hs[0]); string(raw) != `{"id":1,"score":-0}` {
		t.Fatalf("wire form %s", raw)
	}
}

// TestCutCountAndApply pins each cut against a hand-worked list.
func TestCutCountAndApply(t *testing.T) {
	hs := []Hit{{1, 0.9}, {2, 0.8}, {5, 0.8}, {3, 0.7}, {4, 0.7}, {6, 0.1}}
	for _, tc := range []struct {
		cut   Cut
		k     int
		count int
		keep  int
	}{
		{Union, 0, 6, 6}, {Union, 2, 6, 6},
		{Top, -1, 6, 0}, {Top, 0, 6, 0}, {Top, 2, 6, 2}, {Top, 6, 6, 6}, {Top, 1 << 31, 6, 6},
		{Distinct, -1, 4, 0}, {Distinct, 0, 4, 0}, {Distinct, 1, 4, 1}, {Distinct, 2, 4, 3}, {Distinct, 3, 4, 5},
		{Distinct, 4, 4, 6}, {Distinct, 1 << 31, 4, 6},
	} {
		if got := tc.cut.Count(hs); got != tc.count {
			t.Errorf("cut %d: Count = %d, want %d", tc.cut, got, tc.count)
		}
		if got := tc.cut.Apply(hs, tc.k); len(got) != tc.keep || (tc.keep > 0 && &got[0] != &hs[0]) {
			t.Errorf("cut %d k %d: kept %d, want the first %d in place", tc.cut, tc.k, len(got), tc.keep)
		}
	}
	if Distinct.Count(nil) != 0 || len(Distinct.Apply(nil, 3)) != 0 {
		t.Error("the empty list counts and keeps nothing")
	}
}

// TestSortIsTheOneOrder holds Sort to an independent comparison sort.
func TestSortIsTheOneOrder(t *testing.T) {
	prop := func(seed int64, size uint8) bool {
		all := tieHeavy(rand.New(rand.NewSource(seed)), int(size)%50)
		want := slices.Clone(all)
		sort.Slice(want, func(i, j int) bool {
			if want[i].Score != want[j].Score {
				return want[i].Score > want[j].Score
			}
			return want[i].ID < want[j].ID
		})
		Sort(all)
		return same(all, want)
	}
	if err := quick.Check(prop, seeded(t, 300)); err != nil {
		t.Fatal(err)
	}
}
