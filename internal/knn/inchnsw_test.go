package knn

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"erfilter/internal/hit"
	"erfilter/internal/vector"
)

// hnswVec derives a deterministic vector on a richer grid than vecFrom:
// ties still occur, but the space is navigable enough for a small-world
// graph to mean something.
func hnswVec(v uint64, dim int) vector.Vec {
	v = mixU64(v)
	out := make(vector.Vec, dim)
	for i := range out {
		v = mixU64(v + uint64(i) + 1)
		out[i] = float32(int(v%9)) - 4
	}
	return out
}

// applyDualOps replays one op sequence against an IncHNSW and an IncFlat
// oracle in lockstep: same adds, same removes, same compaction points.
func applyDualOps(ops []uint64, metric Metric, p HNSWParams, dim int) (*IncHNSW, *IncFlat) {
	hidx := NewIncHNSW(metric, p)
	fidx := NewIncFlat(metric)
	var nextID int64
	var live []int64
	for _, v := range ops {
		switch {
		case v%5 == 0 && len(live) > 0:
			i := int(mixU64(v) % uint64(len(live)))
			id := live[i]
			live = append(live[:i], live[i+1:]...)
			if !hidx.Remove(id) || !fidx.Remove(id) {
				panic("remove of live id failed")
			}
		case v%11 == 0:
			hidx.Compact()
			fidx.Compact()
		default:
			id := nextID
			nextID++
			vec := hnswVec(v, dim)
			if err := hidx.Add(id, vec); err != nil {
				panic(err)
			}
			if err := fidx.Add(id, vec); err != nil {
				panic(err)
			}
			live = append(live, id)
		}
	}
	return hidx, fidx
}

// recallAgainst counts how many approximate results score at least as
// well as the exact k-th best. Tie-tolerant: an approximate hit that
// ties the oracle's cutoff counts even if the ids differ.
func recallAgainst(approx, exact []hit.Hit) (got, want int) {
	if len(exact) == 0 {
		return 0, 0
	}
	thr := exact[len(exact)-1].Score
	n := 0
	for _, r := range approx {
		if r.Score >= thr {
			n++
		}
	}
	if n > len(exact) {
		n = len(exact)
	}
	return n, len(exact)
}

// TestIncHNSWRecallGateQuick is the knn-level recall gate: any
// Add/Remove/Compact interleaving, followed by a save/load round-trip,
// keeps recall@k against the IncFlat oracle at 1.0 — with beams at least
// as wide as these small graphs, the approximate search must find every
// reachable answer — and the round-trip must not change a single result.
func TestIncHNSWRecallGateQuick(t *testing.T) {
	prop := func(ops []uint64, qseed uint64) bool {
		for _, metric := range []Metric{DotProduct, L2Squared} {
			hidx, fidx := applyDualOps(ops, metric, HNSWParams{Seed: 42}, 8)
			hsnap, fsnap := hidx.Freeze(), fidx.Freeze()

			var buf bytes.Buffer
			if err := hsnap.Save(&buf); err != nil {
				t.Logf("save: %v", err)
				return false
			}
			loaded, err := LoadHNSW(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Logf("load: %v", err)
				return false
			}
			lsnap := loaded.Freeze()

			var hits, wants int
			for qi := 0; qi < 4; qi++ {
				q := hnswVec(qseed+uint64(qi), 8)
				for _, k := range []int{1, 3, 10} {
					approx := hsnap.Search(q, k)
					exact := fsnap.Search(q, k)
					h, w := recallAgainst(approx, exact)
					hits += h
					wants += w
					if ex := hsnap.SearchExact(q, k); len(ex) != len(exact) {
						t.Logf("exact len mismatch: %d vs %d", len(ex), len(exact))
						return false
					} else {
						for i := range ex {
							if ex[i] != exact[i] {
								t.Logf("SearchExact diverged from flat oracle: %v vs %v", ex, exact)
								return false
							}
						}
					}
					rt := lsnap.Search(q, k)
					if len(rt) != len(approx) {
						t.Logf("round-trip len mismatch: %v vs %v", rt, approx)
						return false
					}
					for i := range rt {
						if rt[i] != approx[i] {
							t.Logf("round-trip diverged: %v vs %v", rt, approx)
							return false
						}
					}
				}
			}
			if hits < wants { // ef >= graph size here: demand perfection
				t.Logf("recall %d/%d under metric %v", hits, wants, metric)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestIncHNSWRecallGateAtScale enforces the CI recall floor at a size
// where the graph is genuinely approximate: 2000 vectors, a fifth
// deleted, compacted, recall@10 >= 0.95 against the flat oracle.
func TestIncHNSWRecallGateAtScale(t *testing.T) {
	const (
		n    = 2000
		dim  = 16
		gate = 0.95
	)
	hidx := NewIncHNSW(L2Squared, HNSWParams{Seed: 7})
	fidx := NewIncFlat(L2Squared)
	for i := 0; i < n; i++ {
		v := hnswVec(uint64(i)+1e6, dim)
		if err := hidx.Add(int64(i), v); err != nil {
			t.Fatal(err)
		}
		if err := fidx.Add(int64(i), v); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i += 5 {
		hidx.Remove(int64(i))
		fidx.Remove(int64(i))
	}
	hidx.Compact()
	fidx.Compact()
	hsnap, fsnap := hidx.Freeze(), fidx.Freeze()

	var hits, wants int
	for qi := 0; qi < 50; qi++ {
		q := hnswVec(uint64(qi)+5e6, dim)
		h, w := recallAgainst(hsnap.Search(q, 10), fsnap.Search(q, 10))
		hits += h
		wants += w
	}
	if recall := float64(hits) / float64(wants); recall < gate {
		t.Fatalf("recall@10 = %.3f (%d/%d), gate %v", recall, hits, wants, gate)
	}
}

// TestIncHNSWDeterminism: same seed + same op sequence means
// byte-identical Save output and identical query results at any
// checkpoint, compaction included — and a loaded index re-saves to the
// same bytes.
func TestIncHNSWDeterminism(t *testing.T) {
	const dim = 8
	ops := make([]uint64, 300)
	for i := range ops {
		ops[i] = mixU64(uint64(i) + 99)
	}
	checkpoints := map[int]bool{60: true, 121: true, 200: true, 299: true}

	a := NewIncHNSW(L2Squared, HNSWParams{Seed: 9})
	b := NewIncHNSW(L2Squared, HNSWParams{Seed: 9})
	var nextID int64
	var live []int64
	step := func(idx *IncHNSW, v uint64, id int64) {
		switch {
		case v%5 == 0 && len(live) > 0:
			idx.Remove(live[int(mixU64(v)%uint64(len(live)))])
		case v%7 == 0:
			idx.Compact()
		default:
			if err := idx.Add(id, hnswVec(v, dim)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, v := range ops {
		id := nextID
		step(a, v, id)
		step(b, v, id)
		// Mirror bookkeeping once per op (step must not mutate shared state).
		switch {
		case v%5 == 0 && len(live) > 0:
			j := int(mixU64(v) % uint64(len(live)))
			live = append(live[:j], live[j+1:]...)
		case v%7 == 0:
		default:
			nextID++
			live = append(live, id)
		}
		if !checkpoints[i] {
			continue
		}
		var abuf, bbuf bytes.Buffer
		asnap, bsnap := a.Freeze(), b.Freeze()
		if err := asnap.Save(&abuf); err != nil {
			t.Fatal(err)
		}
		if err := bsnap.Save(&bbuf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(abuf.Bytes(), bbuf.Bytes()) {
			t.Fatalf("checkpoint %d: identical op sequences saved different bytes", i)
		}
		loaded, err := LoadHNSW(bytes.NewReader(abuf.Bytes()))
		if err != nil {
			t.Fatalf("checkpoint %d: load: %v", i, err)
		}
		var rbuf bytes.Buffer
		if err := loaded.Save(&rbuf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(abuf.Bytes(), rbuf.Bytes()) {
			t.Fatalf("checkpoint %d: save/load/save not byte-identical", i)
		}
		for qi := 0; qi < 3; qi++ {
			q := hnswVec(uint64(qi)+7e6, dim)
			ra, rb := asnap.Search(q, 5), bsnap.Search(q, 5)
			if len(ra) != len(rb) {
				t.Fatalf("checkpoint %d: result lengths differ", i)
			}
			for j := range ra {
				if ra[j] != rb[j] {
					t.Fatalf("checkpoint %d: results differ: %v vs %v", i, ra, rb)
				}
			}
		}
	}
}

// TestIncHNSWSnapshotImmutable pins the copy-on-write contract: a frozen
// snapshot's results must not move while the writer keeps inserting,
// deleting, pruning and compacting.
func TestIncHNSWSnapshotImmutable(t *testing.T) {
	idx := NewIncHNSW(L2Squared, HNSWParams{M: 4, Seed: 3})
	for i := int64(0); i < 60; i++ {
		if err := idx.Add(i, hnswVec(uint64(i), 8)); err != nil {
			t.Fatal(err)
		}
	}
	snap := idx.Freeze()
	q := hnswVec(424242, 8)
	before := snap.Search(q, 8)
	beforeExact := snap.SearchExact(q, 8)
	var beforeBytes bytes.Buffer
	if err := snap.Save(&beforeBytes); err != nil {
		t.Fatal(err)
	}

	for i := int64(0); i < 60; i += 3 {
		idx.Remove(i)
	}
	// Heavy insert load after the freeze: every new link claims and
	// mutates existing nodes' adjacency (M=4 keeps pruning hot).
	for i := int64(60); i < 400; i++ {
		if err := idx.Add(i, hnswVec(uint64(i), 8)); err != nil {
			t.Fatal(err)
		}
	}
	idx.Compact()

	after := snap.Search(q, 8)
	afterExact := snap.SearchExact(q, 8)
	var afterBytes bytes.Buffer
	if err := snap.Save(&afterBytes); err != nil {
		t.Fatal(err)
	}
	if len(before) != len(after) {
		t.Fatalf("snapshot changed: %v vs %v", before, after)
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("snapshot changed: %v vs %v", before, after)
		}
	}
	for i := range beforeExact {
		if beforeExact[i] != afterExact[i] {
			t.Fatalf("snapshot exact results changed: %v vs %v", beforeExact, afterExact)
		}
	}
	if !bytes.Equal(beforeBytes.Bytes(), afterBytes.Bytes()) {
		t.Fatal("snapshot serialization changed under writer mutations")
	}
	if snap.Len() != 60 {
		t.Fatalf("snapshot Len = %d, want 60", snap.Len())
	}
}

func TestIncHNSWBasics(t *testing.T) {
	idx := NewIncHNSW(DotProduct, HNSWParams{})
	if got := idx.Params(); got.M != 16 || got.EfConstruction != 100 || got.EfSearch != 64 {
		t.Fatalf("defaults not applied: %+v", got)
	}
	if err := idx.Add(3, vector.Vec{1, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := idx.Add(3, vector.Vec{0, 1, 0, 0}); err == nil {
		t.Fatal("duplicate add must error")
	}
	if idx.Remove(4) {
		t.Fatal("removing absent id must report false")
	}
	if idx.Dim() != 4 {
		t.Fatalf("Dim = %d, want 4", idx.Dim())
	}
	if !idx.Remove(3) || idx.Len() != 0 || idx.Dead() != 1 {
		t.Fatalf("remove bookkeeping wrong: len=%d dead=%d", idx.Len(), idx.Dead())
	}
	// The tombstoned node routes but must not surface.
	if got := idx.Freeze().Search(vector.Vec{1, 0, 0, 0}, 3); len(got) != 0 {
		t.Fatalf("tombstoned id surfaced: %v", got)
	}
	idx.Compact()
	if idx.Dead() != 0 {
		t.Fatal("compact left tombstones")
	}
	if got := idx.Freeze().Search(vector.Vec{1, 0, 0, 0}, 3); len(got) != 0 {
		t.Fatalf("empty index returned %v", got)
	}
	if err := idx.Add(3, vector.Vec{0, 1, 0, 0}); err != nil {
		t.Fatalf("re-add after compact: %v", err)
	}
	if got := idx.Freeze().Search(vector.Vec{0, 1, 0, 0}, 1); len(got) != 1 || got[0].ID != 3 {
		t.Fatalf("re-added id not found: %v", got)
	}
}

// TestHNSWBatchConcurrentBuildsDeterministic pins the level-draw fix:
// index builds share no RNG state, so concurrent builds of the same data
// are identical.
func TestHNSWBatchConcurrentBuildsDeterministic(t *testing.T) {
	vecs := make([]vector.Vec, 500)
	for i := range vecs {
		vecs[i] = hnswVec(uint64(i)+17, 8)
	}
	const builders = 4
	idxs := make([]*HNSW, builders)
	var wg sync.WaitGroup
	for b := 0; b < builders; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			idxs[b] = NewHNSW(vecs, HNSW{Metric: L2Squared, Seed: 11})
		}(b)
	}
	wg.Wait()
	for qi := 0; qi < 10; qi++ {
		q := hnswVec(uint64(qi)+9e6, 8)
		ref := idxs[0].Search(q, 10)
		for b := 1; b < builders; b++ {
			got := idxs[b].Search(q, 10)
			if len(got) != len(ref) {
				t.Fatalf("builder %d returned %d results, want %d", b, len(got), len(ref))
			}
			for i := range got {
				if got[i] != ref[i] {
					t.Fatalf("builder %d diverged at query %d: %v vs %v", b, qi, got, ref)
				}
			}
		}
	}
}

// TestIncAddRefusesDimensionMismatch: a vector shorter or longer than
// the indexed ones is an error from Add on both incremental indexes — not
// a slice-bounds panic mid-insert, not a silent score on the prefix — and
// the refusal touches nothing: same Len, same answers, same Save bytes,
// and the id is still free for a vector of the right length.
func TestIncAddRefusesDimensionMismatch(t *testing.T) {
	const dim, n = 8, 60
	g, f := NewIncHNSW(DotProduct, HNSWParams{}), NewIncFlat(L2Squared)
	for id := int64(0); id < n; id++ {
		v := hnswVec(uint64(id), dim)
		if err := g.Add(id, v); err != nil {
			t.Fatal(err)
		}
		if err := f.Add(id, v); err != nil {
			t.Fatal(err)
		}
	}
	state := func() (saved []byte, hits [][]hit.Hit) {
		var buf bytes.Buffer
		if err := g.Save(&buf); err != nil {
			t.Fatal(err)
		}
		q := hnswVec(1000, dim)
		return buf.Bytes(), [][]hit.Hit{g.Freeze().Search(q, 5), f.Freeze().Search(q, 5)}
	}
	savedBefore, hitsBefore := state()
	for _, bad := range []int{0, dim - 3, dim + 4} {
		if err := g.Add(n, hnswVec(7, bad)); err == nil {
			t.Fatalf("IncHNSW accepted a %d-d vector into a %d-d index", bad, dim)
		}
		if err := f.Add(n, hnswVec(7, bad)); err == nil {
			t.Fatalf("IncFlat accepted a %d-d vector into a %d-d index", bad, dim)
		}
	}
	savedAfter, hitsAfter := state()
	if g.Len() != n || f.Len() != n || g.Has(n) {
		t.Fatalf("a refused Add changed the bookkeeping: hnsw len %d, flat len %d", g.Len(), f.Len())
	}
	if !bytes.Equal(savedBefore, savedAfter) {
		t.Fatal("a refused Add changed the Save stream")
	}
	if !reflect.DeepEqual(hitsBefore, hitsAfter) {
		t.Fatalf("a refused Add changed the answers: %v, then %v", hitsBefore, hitsAfter)
	}
	if err := g.Add(n, hnswVec(7, dim)); err != nil {
		t.Fatalf("IncHNSW: the refused id is not free: %v", err)
	}
	if err := f.Add(n, hnswVec(7, dim)); err != nil {
		t.Fatalf("IncFlat: the refused id is not free: %v", err)
	}
}
