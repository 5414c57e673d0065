package knn

import (
	"runtime"
	"testing"

	"erfilter/internal/vector"
)

// raceEnabled is set by race_test.go, which only a -race build compiles.
var raceEnabled bool

// hnswPointNodes is the resident count of the repository benchmark's
// hnsw_point daemon: the entity rows its heap profile holds.
const hnswPointNodes = 2237

// TestIncHNSWBytesPerNode prices the graph beside the rows: the live heap
// of an IncHNSW over hnswPointNodes product embeddings less that of an
// IncFlat over the same vectors, a node. Level-0 links are one row of
// 2M + 1 int32 (132 B at M = 16) and their memo 9 B a link (a float64
// distance and a verdict byte); one heap object per list, and 16 B memo
// entries repeating the link's id, read 874 B here.
func TestIncHNSWBytesPerNode(t *testing.T) {
	heap := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	vecs := productVecs(hnswPointNodes)
	fill := func(add func(int64, vector.Vec) error) {
		for id, v := range vecs {
			if err := add(int64(id), v); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := heap()
	f := NewIncFlat(DotProduct)
	fill(f.Add)
	flat := heap() - before
	runtime.KeepAlive(f)
	f = nil
	before = heap()
	g := NewIncHNSW(DotProduct, HNSWParams{})
	fill(g.Add)
	graph := heap() - before
	runtime.KeepAlive(g)
	runtime.KeepAlive(vecs)
	per := (graph - flat) / hnswPointNodes
	t.Logf("%d nodes: %d B of graph a node beside %d B of rows", hnswPointNodes, per, flat/hnswPointNodes)
	if per > 600 {
		t.Fatalf("%d B of graph a node, want <= 600", per)
	}
}

// TestIncHNSWPublishBytes prices what an online write publishes on the
// dense graph: one Add and one Freeze, averaged over 32, at hnsw_point's
// resident count and four times it. A publish copies the page
// directories and the pages of rows the insert wrote in, so the two must
// stay within 1.5 x of each other, and under the 64 KiB a sparse insert
// is held to (TestInsertPublishBytes). With one header object per list
// and per-node layer tables it was 21.8 KB in 107 allocations at 2 237.
func TestIncHNSWPublishBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates beside the program")
	}
	const inserts = 32
	sizes := []int{hnswPointNodes, 4 * hnswPointNodes}
	vecs := productVecs(sizes[1] + inserts)
	per := map[int]float64{}
	for _, n := range sizes {
		g := NewIncHNSW(DotProduct, HNSWParams{})
		for id, v := range vecs[:n] {
			if err := g.Add(int64(id), v); err != nil {
				t.Fatal(err)
			}
		}
		g.Freeze()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for id := n; id < n+inserts; id++ {
			if err := g.Add(int64(id), vecs[id]); err != nil {
				t.Fatal(err)
			}
			g.Freeze()
		}
		runtime.ReadMemStats(&after)
		per[n] = float64(after.TotalAlloc-before.TotalAlloc) / inserts
		t.Logf("%d nodes: %.0f B in %.1f allocations an Add + Freeze", n, per[n], float64(after.Mallocs-before.Mallocs)/inserts)
		if per[n] > 64<<10 {
			t.Errorf("an Add + Freeze at %d nodes allocated %.0f B, want <= %d", n, per[n], 64<<10)
		}
	}
	if ratio := per[sizes[1]] / per[sizes[0]]; ratio > 1.5 || ratio < 1/1.5 {
		t.Errorf("an Add + Freeze at %d nodes allocates %.2f x one at %d, want within 1.5 x", sizes[1], ratio, sizes[0])
	}
}
