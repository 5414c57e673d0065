package segment

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"erfilter/internal/entity"
	"erfilter/internal/vector"
)

// goldenDenseEntries carries vectors of exactly representable values, so
// the pinned bytes do not depend on the platform's float rounding.
func goldenDenseEntries(dim int, ids ...int64) []testEntry {
	ents := make([]testEntry, len(ids))
	for i, id := range ids {
		v := make(vector.Vec, dim)
		for j := range v {
			v[j] = float32(id*31+int64(j)) / 8
		}
		ents[i] = testEntry{ID: id, Attrs: []entity.Attribute{{Name: "name", Value: fmt.Sprintf("entity %d", id)}, {Name: "", Value: "履歴書"}}, Vec: v}
	}
	return ents
}

// TestCompatGoldenBytes pins ERSEG (both kinds) and ERMAN to the exact
// bytes the package's own codec wrote before internal/frame replaced it
// (SHA-256 and length recorded by running these generators at that
// commit).
func TestCompatGoldenBytes(t *testing.T) {
	for _, g := range []struct {
		name    string
		data    []byte
		wantLen int
		wantSum string
	}{
		{"ERSEG sparse", segBytes(t, KindSparse, 0, sparseEntries(1, 2, 5, 9, 1<<40)), 558, "8150f7b7a0b163800462507e8b2fd7e12c7fc54082736c9c6044f4706e50827a"},
		{"ERSEG dense", segBytes(t, KindDense, 6, goldenDenseEntries(6, 1, 2, 5, 9)), 421, "df3b08c99d5da157327bb98172d4818587cb8ce22b4f8eeaaae49625b2d98494"},
		{"ERMAN", manifestBytes(t), 168, "83c62efc72217f4bafd935618c25710bc91d5991e43b2d2e5e0b8fbe40254d43"},
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256(g.data)); len(g.data) != g.wantLen || got != g.wantSum {
			t.Errorf("%s is %d bytes, sha256 %s; want %d bytes, %s", g.name, len(g.data), got, g.wantLen, g.wantSum)
		}
	}
}

// TestAttrsDecodeAllocations pins the per-candidate cost of the predicate
// path: decoding a slot's attribute block allocates the slice and one
// string holding every name and value, and nothing for the cursor — it
// lives in another package now and must still stay on the stack.
func TestAttrsDecodeAllocations(t *testing.T) {
	g, err := Load(segBytes(t, KindSparse, 0, sparseEntries(1, 2, 5, 9)), "allocs", nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []entity.Attribute
	if allocs := testing.AllocsPerRun(200, func() { got = g.attrs(2) }); allocs != 2 {
		t.Fatalf("attrs(slot) made %v allocations decoding %v, want 2", allocs, got)
	}
}
