package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
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

// sameNeighbors compares incremental results with batch results mapped
// through the position→id table.
func sameNeighbors(inc, batch []hit.Hit, ids []int64) bool {
	if len(inc) != len(batch) {
		return false
	}
	for i := range inc {
		if inc[i].ID != ids[batch[i].ID] || inc[i].Score != batch[i].Score {
			return false
		}
	}
	return true
}

// TestIncIndexEquivalenceQuick is the interleaving property test: any
// sequence of Add/Remove/Compact yields snapshot query results identical
// to a batch index built from the surviving sets.
func TestIncIndexEquivalenceQuick(t *testing.T) {
	prop := func(ops []uint64, qseed uint64) bool {
		idx, m := applyOps(ops)
		snap := idx.Freeze()
		batch, ids := m.batchIndex()
		if snap.Len() != len(ids) {
			return false
		}
		for qi := 0; qi < 4; qi++ {
			query := setFrom(qseed + uint64(qi))
			for _, measure := range Measures() {
				for _, k := range []int{1, 3} {
					inc := snap.KNNQuery(query, measure, k, &Scratch{})
					ref := batch.KNNQuery(query, measure, k)
					if !sameNeighbors(inc, ref, ids) {
						t.Logf("kNN mismatch: measure=%v k=%d inc=%v ref=%v", measure, k, inc, ref)
						return false
					}
				}
				for _, eps := range []float64{0.2, 0.5} {
					inc := snap.RangeQuery(query, measure, eps, &Scratch{})
					ref := batch.RangeQuery(query, measure, eps)
					refInc := make([]hit.Hit, len(ref))
					for i, n := range ref {
						refInc[i] = hit.Hit{ID: ids[n.ID], Score: n.Score}
					}
					hit.Sort(refInc)
					if len(inc) != len(refInc) {
						return false
					}
					for i := range inc {
						if inc[i] != refInc[i] {
							return false
						}
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

// TestScratchRoundBeyondInt32 pins that a long-lived pooled Scratch keeps
// counting correctly past the int32 range: the round counter is int64, so
// it cannot wrap and false-match a slot stamped one wrap earlier.
func TestScratchRoundBeyondInt32(t *testing.T) {
	idx := NewIncIndex()
	if err := idx.Add(1, []int32{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	snap := idx.Freeze()
	sc := &Scratch{round: math.MaxInt32}
	for i := 0; i < 3; i++ {
		got := snap.RangeQuery([]int32{1, 2, 3}, Jaccard, 0.5, sc)
		if len(got) != 1 || got[0].Score != 1 {
			t.Fatalf("round %d past int32: got %v", i, got)
		}
	}
	if sc.round != math.MaxInt32+3 {
		t.Fatalf("round = %d, want %d", sc.round, int64(math.MaxInt32+3))
	}
}

// TestIncIndexAddGrowthIsAmortised pins the linear bulk load: 20 000 sets
// that each introduce a fresh token id must allocate O(V) bytes for the
// posting table, not the 24·V²/2 (4.8 GB here) of growing it to exactly
// tok+1 on every new id. The budget covers the table's geometric growth,
// the per-slot arrays, the id map and one 4-byte list per token.
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
	// The table's spare capacity never reaches a snapshot.
	snap := idx.Freeze()
	if len(snap.postings) != n+1 || cap(snap.postings) > len(snap.postings)+len(snap.postings)/2 {
		t.Fatalf("snapshot table len=%d cap=%d, want len %d and no inherited slack", len(snap.postings), cap(snap.postings), n+1)
	}
	if got := snap.KNNQuery([]int32{0, n}, Jaccard, 1, &Scratch{}); len(got) != 1 || got[0].ID != n-1 {
		t.Fatalf("query after bulk add: %v", got)
	}
}

// TestScratchGrowthIsAmortised: a pooled Scratch following an index that
// gains one slot per insert reallocates O(log n) times, and what it grows
// into is zero-stamped.
func TestScratchGrowthIsAmortised(t *testing.T) {
	sc := &Scratch{}
	reallocs := 0
	for n := 1; n <= 10000; n++ {
		was := len(sc.stamp)
		sc.Begin(n)
		if len(sc.stamp) != was {
			reallocs++
			for _, st := range sc.stamp[was:] {
				if st != 0 {
					t.Fatalf("growing to %d left a non-zero stamp", n)
				}
			}
		}
		if len(sc.counts) < n || len(sc.counts) != len(sc.stamp) {
			t.Fatalf("Begin(%d): counts %d stamp %d", n, len(sc.counts), len(sc.stamp))
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

var freezeSink *IncSnapshot

// BenchmarkIncIndexFreeze is one publish's Freeze of an index holding
// 10 000 and 100 000 sets of 20 tokens over a 20 000-token vocabulary,
// one set in 64 tombstoned: the posting headers and the tombstone bitmap
// it copies are the O(n) term of every online write.
func BenchmarkIncIndexFreeze(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			zipf := rand.NewZipf(rng, 1.1, 8, 19999)
			idx := NewIncIndex()
			set := make([]int32, 20)
			for id := int64(0); id < int64(n); id++ {
				for i := range set {
					set[i] = int32(zipf.Uint64())
				}
				if err := idx.Add(id, set); err != nil {
					b.Fatal(err)
				}
				if id%64 == 0 {
					idx.Remove(id)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				freezeSink = idx.Freeze()
			}
		})
	}
}
