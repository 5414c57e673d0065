package sparse

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"erfilter/internal/hit"
)

// mix scrambles a uint64 into a pseudo-random stream for deriving
// deterministic sets from property-test inputs.
func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	return x ^ (x >> 33)
}

// setFrom derives a small token set over a 24-token universe.
func setFrom(v uint64) []int32 {
	v = mix(v)
	n := 1 + int(v%5)
	seen := map[int32]bool{}
	var out []int32
	for i := 0; i < n; i++ {
		v = mix(v + uint64(i) + 1)
		tok := int32(v % 24)
		if !seen[tok] {
			seen[tok] = true
			out = append(out, tok)
		}
	}
	return out
}

// mirror is the reference model: surviving id → token set.
type mirror map[int64][]int32

// batchIndex builds a plain batch Index over the survivors in ascending
// id order and returns it with the position→id mapping.
func (m mirror) batchIndex() (*Index, []int64) {
	ids := make([]int64, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	sets := make([][]int32, len(ids))
	for i, id := range ids {
		sets[i] = m[id]
	}
	return NewIndex(sets, 24), ids
}

// applyOps replays a random op sequence against both an IncIndex and the
// mirror. Ops: v%5==0 → remove a surviving id, v%11==0 → compact,
// otherwise add a derived set.
func applyOps(ops []uint64) (*IncIndex, mirror) {
	idx := NewIncIndex()
	m := mirror{}
	var nextID int64
	var liveIDs []int64
	for _, v := range ops {
		switch {
		case v%5 == 0 && len(liveIDs) > 0:
			i := int(mix(v) % uint64(len(liveIDs)))
			id := liveIDs[i]
			liveIDs = append(liveIDs[:i], liveIDs[i+1:]...)
			if !idx.Remove(id) {
				panic("remove of live id failed")
			}
			delete(m, id)
		case v%11 == 0:
			idx.Compact()
		default:
			set := setFrom(v)
			id := nextID
			nextID++
			if err := idx.Add(id, set); err != nil {
				panic(err)
			}
			m[id] = set
			liveIDs = append(liveIDs, id)
		}
	}
	return idx, m
}

// byID lays the survivors out for the reference probes: sets[id] and
// alive[id], for every id up to the largest survivor.
func (m mirror) byID() ([][]int32, []bool) {
	var sets [][]int32
	var alive []bool
	for id, set := range m {
		for int64(len(sets)) <= id {
			sets, alive = append(sets, nil), append(alive, false)
		}
		sets[id], alive[id] = set, true
	}
	return sets, alive
}

// sameNeighbors compares reference results by id with batch results
// mapped through the position→id table.
func sameNeighbors(want, batch []hit.Hit, ids []int64) bool {
	if len(want) != len(batch) {
		return false
	}
	for i := range want {
		if want[i].ID != ids[batch[i].ID] || want[i].Score != batch[i].Score {
			return false
		}
	}
	return true
}

// TestIncIndexEquivalenceQuick is the interleaving property test: after
// any sequence of Add/Remove/Compact, the frozen index answers every
// range and kNN query exactly as the brute-force references do over the
// surviving sets, and so does a batch index built from them.
func TestIncIndexEquivalenceQuick(t *testing.T) {
	prop := func(ops []uint64, qseed uint64) bool {
		idx, m := applyOps(ops)
		snap := idx.Freeze()
		batch, ids := m.batchIndex()
		sets, alive := m.byID()
		if snap.Len() != len(ids) || batch.Len() != len(ids) {
			return false
		}
		for qi := 0; qi < 4; qi++ {
			query := setFrom(qseed + uint64(qi))
			for _, measure := range Measures() {
				for _, k := range []int{1, 3} {
					want := naiveKNN(naiveHits(sets, alive, query, measure), k)
					inc := snap.KNNQuery(query, measure, k, &Scratch{})
					ref := batch.KNNQuery(query, measure, k, &Scratch{})
					if !slices.Equal(inc, want) || !sameNeighbors(want, ref, ids) {
						t.Logf("kNN mismatch: measure=%v k=%d inc=%v batch=%v want=%v", measure, k, inc, ref, want)
						return false
					}
				}
				for _, eps := range []float64{0.2, 0.5} {
					want := naiveRange(naiveHits(sets, alive, query, measure), eps)
					inc := snap.RangeQuery(query, measure, eps, &Scratch{})
					ref := batch.RangeQuery(query, measure, eps, &Scratch{})
					if !slices.Equal(inc, want) || !sameNeighbors(want, ref, ids) {
						t.Logf("range mismatch: measure=%v eps=%v inc=%v batch=%v want=%v", measure, eps, inc, ref, want)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestNewIndexEqualsFrozenIncIndex: the batch index is the all-live
// snapshot. NewIndex over sets holds what IncIndex.Add(i, sets[i]) for
// every i, then Freeze, holds — the same posting lists, sizes and view —
// on random sets and on sets that cross two blocks of 2^16 slots.
func TestNewIndexEqualsFrozenIncIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	random := make([][]int32, 500)
	for i := range random {
		for _, tok := range rng.Perm(40)[:rng.Intn(8)] { // empty sets too
			random[i] = append(random[i], int32(tok))
		}
	}
	for name, sets := range map[string][][]int32{"random": random, "blocks": blockSets(140000)} {
		numTokens := 0
		inc := NewIncIndex()
		for i, set := range sets {
			for _, tok := range set {
				numTokens = max(numTokens, int(tok)+1)
			}
			if err := inc.Add(int64(i), set); err != nil {
				t.Fatal(err)
			}
		}
		batch, frozen := NewIndex(sets, numTokens), inc.Freeze()
		if !reflect.DeepEqual(batch.View, frozen.View) {
			t.Fatalf("%s: views differ: %d/%d slots, %d/%d live", name, batch.Slots(), frozen.Slots(), batch.Len(), frozen.Len())
		}
		if !slices.Equal(batch.sizes, frozen.sizes) {
			t.Fatalf("%s: sizes differ", name)
		}
		if batch.postings.Len() != frozen.postings.Len() {
			t.Fatalf("%s: %d and %d posting lists", name, batch.postings.Len(), frozen.postings.Len())
		}
		for tok := range batch.postings.Len() {
			if !slices.Equal(batch.postings.At(tok), frozen.postings.At(tok)) {
				t.Fatalf("%s: token %d's posting lists differ", name, tok)
			}
		}
	}
}

// TestIncIndexSnapshotImmutable pins the RCU contract: a frozen snapshot
// keeps answering from its epoch while the index mutates and compacts
// underneath it.
func TestIncIndexSnapshotImmutable(t *testing.T) {
	idx := NewIncIndex()
	for i := int64(0); i < 10; i++ {
		if err := idx.Add(i, setFrom(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	snap := idx.Freeze()
	query := setFrom(99)
	before := snap.KNNQuery(query, Jaccard, 5, &Scratch{})

	for i := int64(0); i < 10; i += 2 {
		idx.Remove(i)
	}
	for i := int64(10); i < 200; i++ {
		if err := idx.Add(i, setFrom(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	idx.Compact()
	after := snap.KNNQuery(query, Jaccard, 5, &Scratch{})
	if len(before) != len(after) {
		t.Fatalf("snapshot changed under mutation: %v vs %v", before, after)
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("snapshot changed under mutation: %v vs %v", before, after)
		}
	}
	if snap.Len() != 10 {
		t.Fatalf("snapshot Len = %d, want 10", snap.Len())
	}
}

// TestIncIndexAddGrowthIsAmortised pins the linear bulk load: 20 000 sets
// that each introduce a fresh token id must allocate O(V) bytes for the
// posting table, not the 24·V²/2 (4.8 GB here) of growing it to exactly
// tok+1 on every new id. The budget covers the table's geometric growth
// and the writer's per-token block array beside it, the per-slot arrays,
// the id map and one list of 2-byte entries per token.
func TestIncIndexAddGrowthIsAmortised(t *testing.T) {
	const n = 20000
	sets := make([][]int32, n)
	for i := range sets {
		sets[i] = []int32{0, int32(i + 1)} // one shared token, one fresh
	}
	idx := NewIncIndex()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, set := range sets {
		if err := idx.Add(int64(i), set); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	const header = 24 // bytes of one posting-list slice header
	if got, budget := after.TotalAlloc-before.TotalAlloc, uint64(32*header*n); got > budget {
		t.Fatalf("adding %d fresh token ids allocated %d bytes, budget %d (32 x 24 x V)", n, got, budget)
	}
	// The snapshot reads the table at its length (the page directory it
	// copies has no slack: slots.TestFreezeCopiesTheDirectoryOnly).
	snap := idx.Freeze()
	if snap.postings.Len() != n+1 {
		t.Fatalf("snapshot table len=%d, want %d", snap.postings.Len(), n+1)
	}
	if got := snap.KNNQuery([]int32{0, n}, Jaccard, 1, &Scratch{}); len(got) != 1 || got[0].ID != n-1 {
		t.Fatalf("query after bulk add: %v", got)
	}
}

// TestIncIndexBytesPerPosting pins the posting list's footprint: 10 000
// sets of 80 distinct Zipf tokens over 20 000 must take less than 4.5
// bytes of live heap a posting, everything the index holds counted — the
// 2-byte entries and append's slack, the headers, the per-slot arrays
// and the id map. A list of int32s takes about 6.5.
func TestIncIndexBytesPerPosting(t *testing.T) {
	const n, size = 10000, 80
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.1, 8, 19999)
	sets := make([][]int32, n)
	for i := range sets {
		seen := map[int32]bool{}
		for len(sets[i]) < size {
			if tok := int32(zipf.Uint64()); !seen[tok] {
				seen[tok] = true
				sets[i] = append(sets[i], tok)
			}
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	idx := NewIncIndex()
	for i, set := range sets {
		if err := idx.Add(int64(i), set); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perPosting := float64(after.HeapAlloc-before.HeapAlloc) / (n * size)
	t.Logf("%d postings: %.2f B of heap a posting", n*size, perPosting)
	if perPosting >= 4.5 {
		t.Fatalf("%.2f B of heap a posting, want under 4.5", perPosting)
	}
	runtime.KeepAlive(idx)
	runtime.KeepAlive(sets) // not counted: dead, they would be freed inside the measurement
}

// TestScratchGrowthIsAmortised: a pooled Scratch following an index that
// gains one slot per insert reallocates O(log n) times.
func TestScratchGrowthIsAmortised(t *testing.T) {
	sc := &Scratch{}
	reallocs := 0
	for n := 1; n <= 10000; n++ {
		was := len(sc.counts)
		sc.Begin(n)
		if len(sc.counts) != was {
			reallocs++
		}
		if len(sc.counts) < n {
			t.Fatalf("Begin(%d): counts %d", n, len(sc.counts))
		}
		sc.Touch(int32(n - 1))
		if f := sc.Found(); len(f) != 1 || sc.Overlap(f[0]) != 1 {
			t.Fatalf("Begin(%d) then one Touch: found %v", n, f)
		}
	}
	if reallocs > 15 {
		t.Fatalf("10 000 one-slot grows reallocated %d times, want O(log n)", reallocs)
	}
}

func TestIncIndexAddRemoveCompact(t *testing.T) {
	idx := NewIncIndex()
	if err := idx.Add(7, []int32{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := idx.Add(7, []int32{4}); err == nil {
		t.Fatal("duplicate add must error")
	}
	if idx.Remove(99) {
		t.Fatal("removing absent id must report false")
	}
	if !idx.Remove(7) {
		t.Fatal("removing live id must report true")
	}
	if idx.Len() != 0 || idx.Dead() != 1 {
		t.Fatalf("len=%d dead=%d", idx.Len(), idx.Dead())
	}
	idx.Compact()
	if idx.Dead() != 0 {
		t.Fatalf("dead after compact = %d", idx.Dead())
	}
	// The id can be reused after removal.
	if err := idx.Add(7, []int32{1}); err != nil {
		t.Fatal(err)
	}
	snap := idx.Freeze()
	got := snap.RangeQuery([]int32{1}, Jaccard, 0.5, &Scratch{})
	if len(got) != 1 || got[0].ID != 7 || got[0].Score != 1 {
		t.Fatalf("got %v", got)
	}
}

var freezeSink *Index

// BenchmarkIncIndexFreeze prices a publish of an index holding 10 000
// and 100 000 sets of 20 tokens over a 20 000-token vocabulary, one set
// in 64 tombstoned. freeze is a Freeze alone: the two page directories,
// O(tokens/16 + slots/1024) pointers. add+freeze is the publish a write
// pays: one Add of a 20-token set, whose header writes copy the pages
// they land in, then the Freeze. Neither grows with the sets, and the
// second not with the vocabulary beyond its directory either.
func BenchmarkIncIndexFreeze(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		rng := rand.New(rand.NewSource(1))
		zipf := rand.NewZipf(rng, 1.1, 8, 19999)
		idx := NewIncIndex()
		set := make([]int32, 20)
		draw := func() []int32 {
			for i := range set {
				set[i] = int32(zipf.Uint64())
			}
			return set
		}
		for id := int64(0); id < int64(n); id++ {
			if err := idx.Add(id, draw()); err != nil {
				b.Fatal(err)
			}
			if id%64 == 0 {
				idx.Remove(id)
			}
		}
		b.Run(fmt.Sprintf("%d/freeze", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				freezeSink = idx.Freeze()
			}
		})
		next := int64(n)
		b.Run(fmt.Sprintf("%d/add+freeze", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := idx.Add(next, draw()); err != nil {
					b.Fatal(err)
				}
				next++
				freezeSink = idx.Freeze()
			}
		})
	}
}
