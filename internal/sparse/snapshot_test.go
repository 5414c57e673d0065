package sparse

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"erfilter/internal/hit"
)

// TestIncIndexSnapshotModel replays a seeded random sequence of Add,
// Remove, Compact and Freeze over a vocabulary of many header pages and
// past the 65 536-slot block boundary, and keeps every snapshot with the
// liveness of every set at its instant. After the last write each
// snapshot must answer KNNQuery and RangeQuery as the naiveHits oracle's
// cuts do over its own live sets: a write that reached a
// published page of the header table or the tombstone bitmap shows as
// a set the snapshot should not see, or one it lost.
func TestIncIndexSnapshotModel(t *testing.T) {
	const (
		seed    = 37
		adds    = 80000 // slots pass 65 536 before the first compaction
		vocab   = 600   // 38 header pages
		freezes = 30
	)
	defer func() {
		if r := recover(); r != nil { // an index read past what it published
			t.Fatalf("seed %d: %v", seed, r)
		}
	}()
	rng := rand.New(rand.NewSource(seed))
	var sets [][]int32 // id → set: an id is the position of its Add
	var alive []bool   // id → live in the writer
	var liveIDs []int64
	type kept struct {
		snap  *Index
		alive []bool
	}
	var snaps []kept
	idx := NewIncIndex()
	for len(sets) < adds {
		switch r := rng.Intn(2000); {
		case r < 240 && len(liveIDs) > 0:
			i := rng.Intn(len(liveIDs))
			id := liveIDs[i]
			liveIDs[i] = liveIDs[len(liveIDs)-1]
			liveIDs = liveIDs[:len(liveIDs)-1]
			if !idx.Remove(id) {
				t.Fatalf("seed %d: Remove(%d) of a live id failed", seed, id)
			}
			alive[id] = false
		case r == 240 && len(sets) > 70000:
			idx.Compact()
		case r == 241:
			snaps = append(snaps, kept{idx.Freeze(), slices.Clone(alive)})
		default:
			set := make([]int32, 0, 6)
			for range 1 + rng.Intn(6) {
				// Half the tokens from the first few pages: long lists.
				tok := int32(rng.Intn(vocab))
				if rng.Intn(2) == 0 {
					tok %= 40
				}
				if !slices.Contains(set, tok) {
					set = append(set, tok)
				}
			}
			id := int64(len(sets))
			if err := idx.Add(id, set); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			sets, alive, liveIDs = append(sets, set), append(alive, true), append(liveIDs, id)
		}
	}
	snaps = append(snaps, kept{idx.Freeze(), slices.Clone(alive)})
	if len(snaps) < freezes || idx.Slots() <= 1<<16 {
		t.Fatalf("seed %d: %d snapshots over %d slots: the sequence no longer covers what it should", seed, len(snaps), idx.Slots())
	}
	var sc Scratch
	for i, s := range snaps {
		sets := sets[:len(s.alive)]
		for q := 0; q < 3; q++ {
			query := sets[rng.Intn(len(sets))]
			m := Measures()[(i+q)%3]
			if got, want := s.snap.KNNQuery(query, m, 3, &sc), naiveKNN(naiveHits(sets, s.alive, query, m), 3); !slices.Equal(got, want) {
				t.Fatalf("seed %d: snapshot %d KNNQuery(%v, %v): %s", seed, i, query, m, diff(got, want))
			}
			if got, want := s.snap.RangeQuery(query, m, 0.4, &sc), naiveRange(naiveHits(sets, s.alive, query, m), 0.4); !slices.Equal(got, want) {
				t.Fatalf("seed %d: snapshot %d RangeQuery(%v, %v): %s", seed, i, query, m, diff(got, want))
			}
		}
	}
}

// diff names the first hit two answers disagree on.
func diff(got, want []hit.Hit) string {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return fmt.Sprintf("hit %d is %v, want %v", i, got[i], want[i])
		}
	}
	return fmt.Sprintf("%d hits, want %d", len(got), len(want))
}
