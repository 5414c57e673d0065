package knn

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"erfilter/internal/hit"
)

// TestIncSnapshotsModel is the dense twin of sparse's snapshot model: a
// seeded random sequence of Add, Remove, Compact and Freeze on an IncFlat
// and an IncHNSW, each snapshot's answers — the flat search, the exact
// and beam searches of the graph, and the graph's Save bytes — recorded
// when it is frozen. After the last write every retained snapshot must
// answer and save as it did: a write that reached a published page of
// the link headers, the tombstone bitmap or the rows changes one of
// them. The rows fill several pages of rowPage float32, so snapshots
// share a page the writer goes on appending to; the M = 6 graph's
// level-0 link rows (13 int32) fill many pages of linkPage, and
// the writer prunes into full rows a snapshot shares a page with; and
// snapshots are kept on both sides of a Compact, which writes fresh
// pages.
func TestIncSnapshotsModel(t *testing.T) {
	const seed, dim, adds = 41, 48, 1500 // 94 pages of nodes, 341 rows a page
	defer func() {
		if r := recover(); r != nil { // an index read past what it published
			t.Fatalf("seed %d: %v", seed, r)
		}
	}()
	rng := rand.New(rand.NewSource(seed))
	flat := NewIncFlat(L2Squared)
	graph := NewIncHNSW(L2Squared, HNSWParams{M: 6, EfConstruction: 32, Seed: seed})
	queries := make([][]float32, 4)
	for i := range queries {
		queries[i] = hnswVec(uint64(9e6+i), dim)
	}
	type kept struct {
		flat    *Flat
		graph   *HNSW
		answers [][]hit.Hit
		save    []byte
	}
	record := func(f *Flat, g *HNSW) ([][]hit.Hit, []byte) {
		var out [][]hit.Hit
		for _, q := range queries {
			out = append(out, f.Search(q, 5), g.SearchExact(q, 5), g.SearchEf(q, 5, 0), g.SearchEf(q, 3, 12))
		}
		var b bytes.Buffer
		if err := g.Save(&b); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		return out, b.Bytes()
	}
	var snaps []kept
	var live []int64
	compacted, keptAfter, crossed, pruned := false, false, false, false
	// prunedSince reports whether the writer has since pruned a level-0
	// row that was full in g, sharing a page with g when it was frozen:
	// a full row changes only by a prune.
	prunedSince := func(g *HNSW) bool {
		m0 := int32(2 * graph.Params().M)
		for slot := range g.base.Len() {
			if row := g.base.Row(slot); row[0] == m0 && !slices.Equal(row, graph.base.Row(slot)) {
				return true
			}
		}
		return false
	}
	var last *HNSW // the last snapshot kept, while no Compact follows it
	for next := int64(0); next < adds; {
		switch r := rng.Intn(100); {
		case r < 15 && len(live) > 0:
			i := rng.Intn(len(live))
			id := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			if !flat.Remove(id) || !graph.Remove(id) {
				t.Fatalf("seed %d: Remove(%d) of a live id failed", seed, id)
			}
		case r == 15 && next > adds/2:
			flat.Compact()
			graph.Compact()
			compacted, last = true, nil
		case r < 20:
			pruned = pruned || last != nil && prunedSince(last)
			k := kept{flat: flat.Freeze(), graph: graph.Freeze()}
			last = k.graph
			keptAfter = keptAfter || compacted
			n, per := k.flat.rows.Len(), rowPage/dim
			crossed = crossed || n > per && n%per != 0
			k.answers, k.save = record(k.flat, k.graph)
			snaps = append(snaps, k)
		default:
			v := hnswVec(uint64(next)<<8|uint64(seed), dim)
			if err := flat.Add(next, v); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if err := graph.Add(next, v); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			live = append(live, next)
			next++
		}
	}
	for i, k := range snaps {
		answers, save := record(k.flat, k.graph)
		if !reflect.DeepEqual(answers, k.answers) {
			t.Fatalf("seed %d: snapshot %d of %d answers differently after later writes", seed, i, len(snaps))
		}
		if !bytes.Equal(save, k.save) {
			t.Fatalf("seed %d: snapshot %d of %d saves different bytes after later writes", seed, i, len(snaps))
		}
	}
	if len(snaps) < 40 || !keptAfter || !crossed || !pruned || graph.base.Len() < 4*linkPage {
		t.Fatalf("seed %d: %d snapshots, one after a Compact %v, one sharing a page of rows past the first %v, one sharing a full link row the writer then pruned %v, %d link rows: the sequence no longer covers what it should",
			seed, len(snaps), keptAfter, crossed, pruned, graph.base.Len())
	}
}
