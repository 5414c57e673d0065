package segment

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"erfilter/internal/entity"
)

// TestMergeMatchesEntries holds a merge's writer input to the route it
// replaced: every input slot read back as an entity with its token list,
// the tombstoned ones dropped, the rest sorted by id and inverted afresh.
// The two must write the same bytes. Inputs take their ids from one
// shuffled range, so their id ranges interleave, as the inputs of a merge
// over segments that were not adjacent do; a token is shared by up to a
// third of the entities, and a quarter of the slots are tombstoned,
// sometimes every one of an input. Both kinds, 200 seeded trials each.
func TestMergeMatchesEntries(t *testing.T) {
	const dim = 6
	for _, kind := range []Kind{KindSparse, KindDense} {
		for trial := int64(0); trial < 200; trial++ {
			rng := rand.New(rand.NewSource(trial))
			k := 2 + rng.Intn(4)
			ids := rng.Perm(k * 12)
			inputs := make([]*Reader, k)
			dead := make([]tombs, k)
			for i := range inputs {
				n := 1 + rng.Intn(12)
				own := slices.Clone(ids[i*12 : i*12+n])
				slices.Sort(own)
				tes := make([]testEntry, n)
				for slot, id := range own {
					tes[slot] = testEntry{ID: int64(id), Attrs: []entity.Attribute{{Name: "n", Value: fmt.Sprint(id)}}}
					if kind == KindDense {
						tes[slot].Vec = denseEntry(int64(id), dim).Vec
						continue
					}
					for _, tok := range rng.Perm(k * 4)[:rng.Intn(6)] {
						tes[slot].Tokens = append(tes[slot].Tokens, fmt.Sprintf("t%02d", tok))
					}
				}
				g, err := Load(segBytes(t, kind, dim, tes), "in", nil)
				if err != nil {
					t.Fatal(err)
				}
				allDead := rng.Intn(8) == 0
				for slot := range n {
					if allDead || rng.Intn(4) == 0 {
						dead[i] = dead[i].set(slot, n)
					}
				}
				inputs[i] = g
			}

			var want []testEntry
			for i, g := range inputs {
				for slot, e := range readBack(g) {
					if !dead[i].has(slot) {
						want = append(want, e)
					}
				}
			}
			slices.SortFunc(want, func(a, b testEntry) int { return int(a.ID - b.ID) })
			ents, inv := mergeInputs(kind, inputs, dead)
			if len(ents) != len(want) {
				t.Fatalf("kind %d trial %d: merge keeps %d entities, want %d", kind, trial, len(ents), len(want))
			}
			if len(want) == 0 {
				continue
			}
			var got bytes.Buffer
			if err := writeSegment(&got, kind, dim, ents, inv); err != nil {
				t.Fatalf("kind %d trial %d: %v", kind, trial, err)
			}
			if !bytes.Equal(got.Bytes(), segBytes(t, kind, dim, want)) {
				t.Fatalf("kind %d trial %d: merged segment differs from the re-inverted entries", kind, trial)
			}
		}
	}
}
