package match

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"erfilter/internal/dedup"
	"erfilter/internal/entity"
	"erfilter/internal/faultfs"
	"erfilter/internal/online"
)

// dirtyTexts generates a dirty collection: each record is a noisy copy
// of one of a few bases, so duplicate clusters form naturally.
func dirtyText(rng *rand.Rand, i int) string {
	base := corpus[rng.Intn(len(corpus))]
	switch rng.Intn(3) {
	case 0:
		return base
	case 1:
		return base + " refurbished"
	default:
		return fmt.Sprintf("%s lot %d", base, i%5)
	}
}

// volatileInsert adapts a plain resolver to the Dirty insert seam.
func volatileInsert(r *online.Resolver) func([][]entity.Attribute) ([]int64, error) {
	return func(b [][]entity.Attribute) ([]int64, error) { return r.InsertBatch(b), nil }
}

// batchClusterOracle computes dirty-ER clusters from scratch over the
// given residents: a fresh resolver is batch-built over the survivors
// (no WAL, no segments, no replay), every entity is decided against its
// full snapshot, and the decided pairs — canonicalized through
// internal/dedup — are closed under a plain union-find. The incremental
// and recovered cluster states must match this exactly (the filter is
// an ε-join and the scorer pair-local, so decisions are pair-local).
func batchClusterOracle(t *testing.T, cfg online.Config, mcfg Config, ents map[int64][]entity.Attribute) map[int64]int64 {
	ids := make([]int64, 0, len(ents))
	for id := range ents {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	r := mustOpen(t, cfg, 1)
	batch := make([][]entity.Attribute, len(ids))
	for i, id := range ids {
		batch[i] = ents[id]
	}
	// The fresh resolver assigns dense ids in ascending original-id
	// order, so its id i stands for ids[i] and ties break alike.
	r.InsertBatch(batch)

	snap := r.Snapshot()
	var pairs []dedup.Pair
	for _, id := range ids {
		qt := cfg.TextOf(ents[id])
		cands, _ := snap.QueryBatch([][]entity.Attribute{ents[id]}, online.QueryOptions{})
		for _, c := range cands[0] {
			if ids[c.ID] == id {
				continue
			}
			attrs, ok := snap.Attrs(c.ID)
			if !ok {
				continue
			}
			if mcfg.Scorer.Sim(qt, cfg.TextOf(attrs)) >= mcfg.Threshold {
				if p, ok := dedup.Canon(int32(id), int32(ids[c.ID])); ok {
					pairs = append(pairs, p)
				}
			}
		}
	}
	// Union-find closure, canonical root = min id.
	parent := map[int64]int64{}
	for _, id := range ids {
		parent[id] = id
	}
	var find func(int64) int64
	find = func(x int64) int64 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, p := range pairs {
		a, b := find(int64(p.A)), find(int64(p.B))
		if a != b {
			if a > b {
				a, b = b, a
			}
			parent[b] = a
		}
	}
	out := make(map[int64]int64, len(ids))
	for _, id := range ids {
		out[id] = find(id)
	}
	return out
}

// clustersOf flattens a Dirty's state to id -> canonical cluster id.
func clustersOf(d *Dirty, ids []int64) map[int64]int64 {
	out := make(map[int64]int64, len(ids))
	for _, id := range ids {
		root, _, ok := d.ClusterOf(id)
		if !ok {
			continue
		}
		out[id] = root
	}
	return out
}

func sameClusters(t *testing.T, label string, got, want map[int64]int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d clustered ids, want %d\n got: %v\nwant: %v", label, len(got), len(want), got, want)
	}
	for id, root := range want {
		if got[id] != root {
			t.Fatalf("%s: id %d in cluster %d, want %d\n got: %v\nwant: %v", label, id, got[id], root, got, want)
		}
	}
}

// TestDirtyIncrementalEqualsBatch pins the dirty-ER core property: the
// clusters maintained insert-by-insert (each entity decided against the
// snapshot preceding it) equal the batch union-find oracle computed
// from scratch over the final collection — including after deletes.
func TestDirtyIncrementalEqualsBatch(t *testing.T) {
	cfg := epsCfg()
	mcfg := Config{Scorer: ScoreJaroWinkler, Threshold: 0.9}
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) * 6364136223846793005))
		r := mustOpen(t, cfg, 1)
		d := NewDirty(NewDecider(mcfg, cfg))
		model := map[int64][]entity.Attribute{}
		var live []int64
		for op := 0; op < 120; op++ {
			if rng.Intn(5) == 0 && len(live) > 0 {
				j := rng.Intn(len(live))
				id := live[j]
				live = append(live[:j], live[j+1:]...)
				r.Delete(id)
				d.Delete(id)
				delete(model, id)
				continue
			}
			n := 1 + rng.Intn(3)
			batch := make([][]entity.Attribute, n)
			for i := range batch {
				batch[i] = attrsText(dirtyText(rng, op*3+i))
			}
			decs, err := d.InsertBatch(volatileInsert(r), func() Snapshot { return r.Snapshot() }, batch, online.QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for i, dec := range decs {
				model[dec.ID] = batch[i]
				live = append(live, dec.ID)
			}
			op += n - 1
		}
		// Deletes can orphan cluster bridges incrementally; rebuild to
		// the exact closure first (the documented contract), then
		// compare with the batch oracle.
		d.Rebuild(r.Snapshot(), r.IDs(), online.QueryOptions{})
		got := clustersOf(d, r.IDs())
		want := batchClusterOracle(t, cfg, mcfg, model)
		sameClusters(t, fmt.Sprintf("trial %d", trial), got, want)
	}
}

// TestDirtyIncrementalNoDeletes pins the stronger claim available when
// nothing is deleted: the purely incremental cluster state (no rebuild)
// already equals the batch oracle.
func TestDirtyIncrementalNoDeletes(t *testing.T) {
	cfg := epsCfg()
	mcfg := Config{Scorer: ScoreJaroWinkler, Threshold: 0.9}
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)*31 + 7))
		r := mustOpen(t, cfg, 1)
		d := NewDirty(NewDecider(mcfg, cfg))
		model := map[int64][]entity.Attribute{}
		for op := 0; op < 90; op++ {
			batch := [][]entity.Attribute{attrsText(dirtyText(rng, op))}
			decs, err := d.InsertBatch(volatileInsert(r), func() Snapshot { return r.Snapshot() }, batch, online.QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			model[decs[0].ID] = batch[0]
		}
		got := clustersOf(d, r.IDs())
		want := batchClusterOracle(t, cfg, mcfg, model)
		sameClusters(t, fmt.Sprintf("trial %d", trial), got, want)
	}
}

// TestDirtyCrashRecovery is the dirty-ER durability gate: inserts flow
// through a durable store with fault-injected fsyncs; after a crash
// that tears the un-fsynced WAL tail, the store recovers the acked
// survivors, the clusters are rebuilt over the recovered snapshot, and
// the result must equal the batch union-find oracle computed from
// scratch over exactly those survivors.
func TestDirtyCrashRecovery(t *testing.T) {
	cfg := epsCfg()
	mcfg := Config{Scorer: ScoreJaroWinkler, Threshold: 0.9}
	for trial := 0; trial < 12; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(trial) * 7919))
			m := faultfs.NewMem()
			s, err := online.OpenStore("store", cfg, 1, online.StoreOptions{FS: m, SegmentBytes: 512})
			if err != nil {
				t.Fatalf("open store: %v", err)
			}
			d := NewDirty(NewDecider(mcfg, cfg))
			m.LimitWrites(int64(300 + rng.Intn(5000)))

			model := map[int64][]entity.Attribute{} // acked inserts
			var live []int64
			crashed := false
			for op := 0; op < 100 && !crashed; op++ {
				if rng.Intn(5) == 0 && len(live) > 0 {
					j := rng.Intn(len(live))
					id := live[j]
					ok, err := s.Delete(id)
					if err != nil {
						crashed = true
						break
					}
					if !ok {
						t.Fatalf("delete of resident %d reported missing", id)
					}
					d.Delete(id)
					live = append(live[:j], live[j+1:]...)
					delete(model, id)
					continue
				}
				batch := [][]entity.Attribute{attrsText(dirtyText(rng, op))}
				decs, err := d.InsertBatch(s.InsertBatch, func() Snapshot { return s.Resolver().Snapshot() }, batch, online.QueryOptions{})
				if err != nil {
					crashed = true
					break
				}
				model[decs[0].ID] = batch[0]
				live = append(live, decs[0].ID)
			}
			if !crashed {
				if err := s.Close(); err != nil {
					t.Fatalf("clean close: %v", err)
				}
			}
			// Power failure: tear a random amount of the un-fsynced tail.
			m.Crash()
			m.Restart(func(name string, unsynced int) int { return rng.Intn(unsynced + 1) })

			s2, err := online.OpenStore("store", cfg, 1, online.StoreOptions{FS: m})
			if err != nil {
				t.Fatalf("recovery failed (crashed=%v): %v", crashed, err)
			}
			defer s2.Close()

			ids := s2.Resolver().IDs()
			if len(ids) != len(model) {
				t.Fatalf("recovered %d residents, want %d acked", len(ids), len(model))
			}
			d2 := NewDirty(NewDecider(mcfg, cfg))
			d2.Rebuild(s2.Resolver().Snapshot(), ids, online.QueryOptions{})
			got := clustersOf(d2, ids)
			want := batchClusterOracle(t, cfg, mcfg, model)
			sameClusters(t, fmt.Sprintf("trial %d (crashed=%v)", trial, crashed), got, want)
		})
	}
}
