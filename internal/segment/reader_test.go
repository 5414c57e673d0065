package segment

import (
	"fmt"
	"math"
	"runtime"
	"testing"
)

// TestReaderHeapPerToken bounds what Load puts on the Go heap. A sparse
// segment of 24 576 distinct tokens over 4 096 slots (six tokens a slot,
// one posting a token) may allocate 8 B a token — the two uint32 offsets
// a reader keeps — plus 4 B a slot for the transient per-slot posting
// totals, plus 4 KiB: 217 088 B. The reader allocates 213 184 B: the
// three arrays, 212 992 B, and the Reader. A dictionary of one string a
// token beside an int64 posting offset and an int32 posting count
// allocated 901 328 B here (36.7 B a token).
func TestReaderHeapPerToken(t *testing.T) {
	const slots, perSlot = 4096, 6
	ents := make([]testEntry, slots)
	for i := range ents {
		toks := make([]string, perSlot)
		for j := range toks {
			toks[j] = fmt.Sprintf("u%04d-%d", i, j)
		}
		ents[i] = testEntry{ID: int64(i), Tokens: toks}
	}
	data := segBytes(t, KindSparse, 0, ents)
	ntoks := slots * perSlot
	bound := uint64(8*ntoks + 4*slots + 4096)

	least := uint64(math.MaxUint64) // of three loads: a GC helper may allocate during one
	for range 3 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		g, err := Load(data, "heap", nil)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if len(g.tokOff) != ntoks {
			t.Fatalf("%d tokens loaded, want %d", len(g.tokOff), ntoks)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("Load allocated %d B for %d tokens over %d slots (%.2f B a token); the bound is %d B", least, ntoks, slots, float64(least)/float64(ntoks), bound)
	if least > bound {
		t.Fatalf("Load allocated %d B, want at most %d (8 B a token + 4 B a slot + 4 KiB)", least, bound)
	}
}

// TestFindComparesInPlace: the dictionary search finds every stored
// token, misses every absent one — below the first, between two, above
// the last, a prefix of a stored token, the empty string — and does not
// allocate.
func TestFindComparesInPlace(t *testing.T) {
	g, err := Load(segBytes(t, KindSparse, 0, sparseEntries(1, 2, 5, 9, 10)), "find", nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range g.tokOff {
		if got, ok := g.find(string(g.tok(i))); !ok || got != i {
			t.Fatalf("find(%q) = %d, %v, want %d", g.tok(i), got, ok, i)
		}
	}
	for _, tok := range []string{"", "a", "grp", "grp3", "tok", "tok10x", "tok4", "zzz"} {
		if _, ok := g.find(tok); ok {
			t.Fatalf("find(%q) found an absent token", tok)
		}
	}
	if n := testing.AllocsPerRun(100, func() { g.find("tok5") }); n != 0 {
		t.Fatalf("find allocates %.0f times", n)
	}
}
