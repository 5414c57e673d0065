package knn

import (
	"sort"
	"testing"
	"testing/quick"

	"erfilter/internal/vector"
)

func mixU64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	return x ^ (x >> 33)
}

// vecFrom derives a deterministic 4-d vector. Components come from a
// small integer grid so score ties actually occur and exercise the
// deterministic (score, id) tie-breaking.
func vecFrom(v uint64) vector.Vec {
	v = mixU64(v)
	out := make(vector.Vec, 4)
	for i := range out {
		v = mixU64(v + uint64(i) + 1)
		out[i] = float32(int(v%5)) - 2
	}
	return out
}

// applyVecOps replays a random op sequence against an IncFlat and a
// mirror map of survivors.
func applyVecOps(ops []uint64, metric Metric) (*IncFlat, map[int64]vector.Vec) {
	idx := NewIncFlat(metric)
	m := map[int64]vector.Vec{}
	var nextID int64
	var live []int64
	for _, v := range ops {
		switch {
		case v%5 == 0 && len(live) > 0:
			i := int(mixU64(v) % uint64(len(live)))
			id := live[i]
			live = append(live[:i], live[i+1:]...)
			if !idx.Remove(id) {
				panic("remove of live id failed")
			}
			delete(m, id)
		case v%11 == 0:
			idx.Compact()
		default:
			id := nextID
			nextID++
			if err := idx.Add(id, vecFrom(v)); err != nil {
				panic(err)
			}
			m[id] = vecFrom(v)
			live = append(live, id)
		}
	}
	return idx, m
}

// TestIncFlatEquivalenceQuick: any Add/Remove/Compact interleaving yields
// frozen searches identical to the naiveSearch oracle, a full sort, over
// the survivors in ascending-id order.
func TestIncFlatEquivalenceQuick(t *testing.T) {
	prop := func(ops []uint64, qseed uint64) bool {
		for _, metric := range []Metric{DotProduct, L2Squared} {
			idx, m := applyVecOps(ops, metric)
			snap := idx.Freeze()

			ids := make([]int64, 0, len(m))
			for id := range m {
				ids = append(ids, id)
			}
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			vecs := make([]vector.Vec, len(ids))
			for i, id := range ids {
				vecs[i] = m[id]
			}

			for qi := 0; qi < 3; qi++ {
				q := vecFrom(qseed + uint64(qi))
				for _, k := range []int{1, 3, 10} {
					inc := snap.Search(q, k)
					ref := naiveSearch(vecs, q, k, metric)
					if len(inc) != len(ref) {
						return false
					}
					for i := range inc {
						if inc[i].ID != ids[ref[i].ID] || inc[i].Score != ref[i].Score {
							t.Logf("mismatch metric=%v k=%d inc=%v ref=%v ids=%v", metric, k, inc, ref, ids)
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestIncFlatSnapshotImmutable pins the RCU contract for the dense index.
func TestIncFlatSnapshotImmutable(t *testing.T) {
	idx := NewIncFlat(L2Squared)
	for i := int64(0); i < 8; i++ {
		if err := idx.Add(i, vecFrom(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	snap := idx.Freeze()
	q := vecFrom(42)
	before := snap.Search(q, 4)

	for i := int64(0); i < 8; i += 2 {
		idx.Remove(i)
	}
	for i := int64(8); i < 100; i++ {
		if err := idx.Add(i, vecFrom(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	idx.Compact()
	after := snap.Search(q, 4)
	if len(before) != len(after) {
		t.Fatalf("snapshot changed: %v vs %v", before, after)
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("snapshot changed: %v vs %v", before, after)
		}
	}
	if snap.Len() != 8 {
		t.Fatalf("snapshot Len = %d, want 8", snap.Len())
	}
}

func TestIncFlatBasics(t *testing.T) {
	idx := NewIncFlat(DotProduct)
	if err := idx.Add(3, vector.Vec{1, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := idx.Add(3, vector.Vec{0, 1, 0, 0}); err == nil {
		t.Fatal("duplicate add must error")
	}
	if idx.Remove(4) {
		t.Fatal("removing absent id must report false")
	}
	if !idx.Remove(3) || idx.Len() != 0 || idx.Dead() != 1 {
		t.Fatalf("remove bookkeeping wrong: len=%d dead=%d", idx.Len(), idx.Dead())
	}
	idx.Compact()
	if idx.Dead() != 0 {
		t.Fatal("compact left tombstones")
	}
	if got := idx.Freeze().Search(vector.Vec{1, 0, 0, 0}, 3); len(got) != 0 {
		t.Fatalf("empty index returned %v", got)
	}
}
