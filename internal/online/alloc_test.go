package online

import (
	"fmt"
	"runtime"
	"testing"
)

// raceEnabled is set by race_test.go, which only a -race build compiles.
var raceEnabled bool

// TestQueryAllocations pins the allocations of one Resolver.Query over
// 1 000 entities at the two topologies whose read paths differ: one
// in-memory shard (a probe result reaches the caller as the kernel made
// it) and two disk-backed shards with 100-entity memtables (memtable +
// segments fold in the shard, shards fold in the resolver). The ceilings
// are what this test measured at PR 18, before internal/hit: a probe
// result that is converted or copied on its way out shows here first.
func TestQueryAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops a quarter of all Puts")
	}
	cfgs := testConfigs()
	cases := []struct {
		cfg    string
		shards int
		disk   bool
		max    float64
	}{
		{"knnj", 1, false, 71},
		{"epsjoin", 1, false, 74},
		{"flat", 1, false, 16},
		{"hnsw", 1, false, 11},
		{"knnj", 2, true, 201},
		{"epsjoin", 2, true, 204},
		{"flat", 2, true, 80},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("%s/shards=%d/disk=%v", tc.cfg, tc.shards, tc.disk)
		t.Run(name, func(t *testing.T) {
			cfg := cfgs[tc.cfg]
			if tc.disk {
				cfg = diskConfig(cfg, t.TempDir(), 100)
				cfg.MergeFanin = 8
			}
			r := mustOpen(t, cfg, tc.shards)
			defer r.Close()
			for i := 0; i < 1000; i++ {
				r.Insert(attrsText(fmt.Sprintf("%s variant %d", corpus[i%len(corpus)], i)))
			}
			if tc.disk {
				for i, sh := range r.Stats().PerShard {
					if mem := sh.Entities - 100*sh.Segments; sh.Segments < 3 || mem <= 0 {
						t.Fatalf("shard %d: %d segments, %d in the memtable; want >= 3 and > 0", i, sh.Segments, mem)
					}
				}
			}
			q := attrsText("canon powershot a540 camera variant 7")
			if len(r.Query(q, QueryOptions{})) == 0 {
				t.Fatal("the pinned query has no candidates")
			}
			got := testing.AllocsPerRun(200, func() { r.Query(q, QueryOptions{}) })
			t.Logf("%s: %v allocs per query", name, got)
			if got > tc.max {
				t.Errorf("%v allocs per query, ceiling %v", got, tc.max)
			}
		})
	}
}

// TestInsertPublishBytes bounds what one Insert allocates into a loaded
// knnj shard — prepare, commit and the publish that follows — at 10 000
// and 40 000 product entities: at most 64 KiB either way, and within
// 1.5 x of each other. A publish that copied the posting-header table
// and a vocabulary that cloned its map on a new token read 640-680 kB
// here.
func TestInsertPublishBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates beside the program")
	}
	const inserts = 32
	per := map[int]float64{}
	for _, n := range []int{10000, 40000} {
		batch, _ := productBatch(n + inserts)
		r := mustOpen(t, benchConfigs()["knnj-C3G"], 1)
		r.InsertBatch(batch[:n])
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, attrs := range batch[n:] {
			r.Insert(attrs)
		}
		runtime.ReadMemStats(&after)
		r.Close()
		per[n] = float64(after.TotalAlloc-before.TotalAlloc) / inserts
		t.Logf("%d entities: %.0f B an insert", n, per[n])
		if per[n] > 64<<10 {
			t.Errorf("an insert into %d entities allocated %.0f B, want <= %d", n, per[n], 64<<10)
		}
	}
	if ratio := per[40000] / per[10000]; ratio > 1.5 || ratio < 1/1.5 {
		t.Errorf("an insert at 40 000 entities allocates %.2f x one at 10 000, want within 1.5 x", ratio)
	}
}
