package dict

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestDictMatchesMap: over seeded random Puts of new and repeated keys —
// the empty key, multi-byte and invalid UTF-8 included — while the table
// grows from 64 slots past 2 048, Put and Find agree with a map from key
// to the order of its first Put, and every Frozen view finds exactly the
// keys put before it: a later key reads as absent, not as its id.
func TestDictMatchesMap(t *testing.T) {
	const seed = 11
	rng := rand.New(rand.NewSource(seed))
	var d Dict
	want := map[string]uint32{}
	var keys []string
	type kept struct {
		v View
		n int
	}
	var views []kept
	for op := 0; op < 3000; op++ {
		key := fmt.Sprintf("k%d\xff語", rng.Intn(2500))
		if op == 1000 {
			key = ""
		}
		id, added := d.Put(key)
		w, had := want[key]
		if !had {
			w = uint32(len(keys))
			want[key] = w
			keys = append(keys, key)
		}
		if id != w || added == had {
			t.Fatalf("seed %d op %d: Put(%q) = %d, %v; want %d, %v", seed, op, key, id, added, w, !had)
		}
		if op%250 == 0 {
			views = append(views, kept{d.Frozen(), len(keys)})
		}
	}
	if d.Len() != len(keys) || len(d.table) < 2048 {
		t.Fatalf("seed %d: %d keys in a table of %d, want %d in 2048 or more", seed, d.Len(), len(d.table), len(keys))
	}
	for i, k := range views {
		for id, key := range keys {
			got, wantID := k.v.Find(key), int32(id)
			if id >= k.n {
				wantID = -1
			}
			if got != wantID {
				t.Fatalf("seed %d: view %d (%d keys) finds %q at %d, want %d", seed, i, k.n, key, got, wantID)
			}
		}
		if k.v.Find("never put") != -1 {
			t.Fatalf("seed %d: view %d finds a key never put", seed, i)
		}
	}
}
