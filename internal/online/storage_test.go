package online

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"

	"erfilter/internal/entity"
	"erfilter/internal/faultfs"
)

// diskConfig turns a test config into its disk-backed twin with a tiny
// memtable and inline merges, so short workloads exercise flushes,
// merges and tombstone GC.
func diskConfig(cfg Config, dir string, cap int) Config {
	cfg.Storage = StorageDisk
	cfg.SegmentDir = dir
	cfg.MemtableCap = cap
	cfg.MergeFanin = 2
	cfg.segSyncMerge = true
	return cfg
}

// tierSize sums the on-disk segment count and bytes over every shard.
func tierSize(r *Resolver) (segments int, diskBytes int64) {
	for _, sh := range r.Stats().PerShard {
		segments += sh.Segments
		diskBytes += sh.DiskBytes
	}
	return segments, diskBytes
}

// applyOpsAll drives one randomized workload — single inserts, batch
// inserts, deletes (of residents and of already-flushed entities) —
// against every target, asserting identical id assignment and delete
// outcomes throughout. Returns the ids still live.
func applyOpsAll(t *testing.T, rng *rand.Rand, targets []*Resolver, inserts, deletes int) []int64 {
	t.Helper()
	var live []int64
	i := 0
	for i < inserts {
		if rng.Intn(4) == 0 {
			n := 1 + rng.Intn(8)
			if i+n > inserts {
				n = inserts - i
			}
			batch := make([][]entity.Attribute, n)
			for j := range batch {
				batch[j] = attrsText(fmt.Sprintf("%s batch %d", corpus[rng.Intn(len(corpus))], i+j))
			}
			first := targets[0].InsertBatch(batch)
			for _, m := range targets[1:] {
				if ids := m.InsertBatch(batch); !reflect.DeepEqual(ids, first) {
					t.Fatalf("batch id divergence: %v vs %v", ids, first)
				}
			}
			live = append(live, first...)
			i += n
		} else {
			attrs := attrsText(fmt.Sprintf("%s variant %d", corpus[rng.Intn(len(corpus))], i))
			first := targets[0].Insert(attrs)
			for _, m := range targets[1:] {
				if id := m.Insert(attrs); id != first {
					t.Fatalf("id divergence: %d vs %d", id, first)
				}
			}
			live = append(live, first)
			i++
		}
		// Interleave deletes with inserts so some deletes land on
		// entities that later flushes and merges must garbage-collect.
		if len(live) > 0 && deletes > 0 && rng.Intn(3) == 0 {
			j := rng.Intn(len(live))
			id := live[j]
			live = append(live[:j], live[j+1:]...)
			first := targets[0].Delete(id)
			for _, m := range targets[1:] {
				if ok := m.Delete(id); ok != first {
					t.Fatalf("delete divergence on %d: %v vs %v", id, ok, first)
				}
			}
			deletes--
		}
	}
	for d := 0; d < deletes && len(live) > 0; d++ {
		j := rng.Intn(len(live))
		id := live[j]
		live = append(live[:j], live[j+1:]...)
		first := targets[0].Delete(id)
		for _, m := range targets[1:] {
			if ok := m.Delete(id); ok != first {
				t.Fatalf("delete divergence on %d: %v vs %v", id, ok, first)
			}
		}
	}
	return live
}

// checkAnswersMatch asserts byte-identical JSON query results between
// the oracle and every other target, across query options, plus Get and
// Len agreement.
func checkAnswersMatch(t *testing.T, label string, targets []*Resolver, rng *rand.Rand, maxID int64) {
	t.Helper()
	oracle := targets[0]
	opts := []QueryOptions{{}, {K: 1}, {K: 7}, {Threshold: 0.2}}
	for _, opt := range opts {
		for p := 0; p < 10; p++ {
			probe := attrsText(fmt.Sprintf("%s probe %d", corpus[rng.Intn(len(corpus))], rng.Intn(40)))
			want, _ := json.Marshal(oracle.Query(probe, opt))
			for ti, m := range targets[1:] {
				got, _ := json.Marshal(m.Query(probe, opt))
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: target %d query %q opt %+v diverged:\nwant %s\n got %s",
						label, ti+1, probe[0].Value, opt, want, got)
				}
			}
		}
	}
	for ti, m := range targets[1:] {
		if m.Len() != oracle.Len() {
			t.Fatalf("%s: target %d Len = %d, want %d", label, ti+1, m.Len(), oracle.Len())
		}
	}
	for id := int64(0); id < maxID; id++ {
		a, aok := oracle.Get(id)
		for ti, m := range targets[1:] {
			b, bok := m.Get(id)
			if aok != bok || !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: target %d Get(%d) diverged: (%v,%v) vs (%v,%v)", label, ti+1, id, a, aok, b, bok)
			}
		}
	}
}

// TestDiskTierEquivalenceQuick is the acceptance property test of the
// LSM tier: for random workloads — deletes that merges must GC,
// memtable caps small enough to force many flushes mid-stream, shard
// counts 1..8 — a disk-backed resolver (and a disk-backed sharded
// resolver) must answer byte-identically to the all-in-memory oracle,
// and must keep doing so after a save/load round trip and after a
// close/reopen of the segment directory.
func TestDiskTierEquivalenceQuick(t *testing.T) {
	trials := 4
	if testing.Short() {
		trials = 1
	}
	for name, cfg := range testConfigs() {
		if cfg.Dense == DenseHNSW {
			continue // disk storage serves the exact dense index only
		}
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			check := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				label := fmt.Sprintf("seed=%d", seed)

				oracle := mustOpen(t, cfg, 1)
				dcfg := diskConfig(cfg, t.TempDir(), 8+rng.Intn(24))
				disk, err := Open(dcfg, 1)
				if err != nil {
					t.Fatalf("%s: Open: %v", label, err)
				}
				shards := 1 + rng.Intn(8)
				scfg := diskConfig(cfg, t.TempDir(), 4+rng.Intn(16))
				sharded, err := Open(scfg, shards)
				if err != nil {
					t.Fatalf("%s: Open at %d shards: %v", label, shards, err)
				}

				targets := []*Resolver{oracle, disk, sharded}
				inserts := 120 + rng.Intn(120)
				deletes := 50 + rng.Intn(60)
				applyOpsAll(t, rng, targets, inserts, deletes)
				// A mid-stream forced flush leaves a short tail segment.
				if err := disk.Flush(); err != nil {
					t.Fatalf("%s: forced flush: %v", label, err)
				}
				maxID := int64(inserts)
				checkAnswersMatch(t, label, targets, rng, maxID)

				if segs, bytes := tierSize(disk); segs == 0 || bytes == 0 {
					t.Fatalf("%s: workload never flushed (stats %+v)", label, disk.Stats())
				}

				// Save the disk resolver, load as memory: still identical.
				var buf bytes.Buffer
				if err := disk.Save(&buf); err != nil {
					t.Fatalf("%s: save: %v", label, err)
				}
				reloaded, err := Load(bytes.NewReader(buf.Bytes()), Config{}, 1)
				if err != nil {
					t.Fatalf("%s: load: %v", label, err)
				}
				checkAnswersMatch(t, label+" reloaded", []*Resolver{oracle, reloaded}, rng, maxID)
				// ... and into a fresh disk tier at another shard count.
				reshards := 1 + rng.Intn(8)
				resharded, err := Load(bytes.NewReader(buf.Bytes()), diskConfig(Config{}, t.TempDir(), 4+rng.Intn(16)), reshards)
				if err != nil {
					t.Fatalf("%s: load onto disk at %d shards: %v", label, reshards, err)
				}
				checkAnswersMatch(t, fmt.Sprintf("%s reloaded on disk at %d shards", label, reshards), []*Resolver{oracle, resharded}, rng, maxID)
				if err := resharded.Close(); err != nil {
					t.Fatalf("%s: resharded close: %v", label, err)
				}

				// Close and reopen the tier directory: the flushed bulk and
				// the replayed memtable must reconstruct the same answers.
				if err := disk.Close(); err != nil {
					t.Fatalf("%s: close: %v", label, err)
				}
				// Note: the volatile resolver's memtable dies with it, so a
				// plain reopen only holds flushed entities. Flush() above
				// plus this check pins the reopen path.
				reopened, err := Open(dcfg, 1)
				if err != nil {
					t.Fatalf("%s: reopen: %v", label, err)
				}
				if got := reopened.Len(); got > oracle.Len() {
					t.Fatalf("%s: reopened resolver has %d live, oracle %d", label, got, oracle.Len())
				}
				if err := reopened.Close(); err != nil {
					t.Fatalf("%s: reopened close: %v", label, err)
				}
				if err := sharded.Close(); err != nil {
					t.Fatalf("%s: sharded close: %v", label, err)
				}
				return !t.Failed()
			}
			if err := quick.Check(check, &quick.Config{MaxCount: trials}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDiskTierVolatileReopenPersistence pins the volatile reopen
// contract exactly: everything flushed (explicitly or by cap overflow)
// survives a Close/Open cycle with queries and deletes intact.
func TestDiskTierVolatileReopenPersistence(t *testing.T) {
	cfg := diskConfig(testConfigs()["epsjoin"], t.TempDir(), 4)
	r, err := Open(cfg, 1)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	var ids []int64
	for i := 0; i < 10; i++ {
		ids = append(ids, r.Insert(attrsText(fmt.Sprintf("%s unit %d", corpus[i%len(corpus)], i))))
	}
	if !r.Delete(ids[3]) {
		t.Fatal("delete failed")
	}
	if err := r.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	want, _ := json.Marshal(r.Query(attrsText("canon camera unit"), QueryOptions{Threshold: 0.05}))
	wantLen := r.Len()
	nextBefore := r.nextID.Load()
	if err := r.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	r2, err := Open(cfg, 1)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r2.Close()
	if r2.Len() != wantLen {
		t.Fatalf("reopened Len = %d, want %d", r2.Len(), wantLen)
	}
	got, _ := json.Marshal(r2.Query(attrsText("canon camera unit"), QueryOptions{Threshold: 0.05}))
	if !bytes.Equal(got, want) {
		t.Fatalf("reopened answers diverged:\nwant %s\n got %s", want, got)
	}
	// The id watermark survives: new inserts never reuse an id.
	if nextAfter := r2.nextID.Load(); nextAfter < nextBefore {
		t.Fatalf("watermark regressed: nextID %d after reopen, %d before", nextAfter, nextBefore)
	}
	if id := r2.Insert(attrsText("fresh entity")); id < nextBefore {
		t.Fatalf("reopened resolver reused id %d (< %d)", id, nextBefore)
	}
}

// TestDiskTierConfigPinned: the manifest's stored configuration wins
// over a drifted caller config on reopen.
func TestDiskTierConfigPinned(t *testing.T) {
	dir := t.TempDir()
	cfg := diskConfig(testConfigs()["epsjoin"], dir, 4)
	r, err := Open(cfg, 1)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	r.Insert(attrsText(corpus[0]))
	if err := r.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	drifted := cfg
	drifted.Threshold = 0.9
	drifted.Clean = false
	r2, err := Open(drifted, 1)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r2.Close()
	got := r2.Config()
	if got.Threshold != cfg.Threshold || got.Clean != cfg.Clean {
		t.Fatalf("reopened config %+v did not pin stored threshold/clean %+v", got, cfg)
	}
}

// TestDiskTierRejectsHNSW: the approximate dense index cannot flush,
// so disk storage refuses it up front.
func TestDiskTierRejectsHNSW(t *testing.T) {
	cfg := diskConfig(testConfigs()["hnsw"], t.TempDir(), 8)
	if _, err := Open(cfg, 1); err == nil {
		t.Fatal("Open accepted hnsw + disk")
	}
}

// TestLoadIntoDiskStorage loads a memory snapshot into a fresh disk tier and
// demands identical answers; a second load into the same (now
// non-empty) directory must be refused.
func TestLoadIntoDiskStorage(t *testing.T) {
	src := mustOpen(t, testConfigs()["knnj"], 1)
	for i := 0; i < 20; i++ {
		src.Insert(attrsText(fmt.Sprintf("%s item %d", corpus[i%len(corpus)], i)))
	}
	src.Delete(2)
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}

	cfg := diskConfig(Config{}, t.TempDir(), 6)
	r, err := Load(bytes.NewReader(buf.Bytes()), cfg, 1)
	if err != nil {
		t.Fatalf("Load onto disk: %v", err)
	}
	defer r.Close()
	if r.Len() != src.Len() {
		t.Fatalf("loaded Len = %d, want %d", r.Len(), src.Len())
	}
	probe := attrsText("canon item probe")
	want, _ := json.Marshal(src.Query(probe, QueryOptions{K: 5}))
	got, _ := json.Marshal(r.Query(probe, QueryOptions{K: 5}))
	if !bytes.Equal(got, want) {
		t.Fatalf("loaded disk resolver diverged:\nwant %s\n got %s", want, got)
	}
	if segs, _ := tierSize(r); segs == 0 {
		t.Fatalf("load never flushed: %+v", r.Stats())
	}

	if _, err := Load(bytes.NewReader(buf.Bytes()), cfg, 1); err == nil {
		t.Fatal("Load accepted a non-empty tier directory")
	}
}

// TestDiskStoreCrashRecoveryProperty extends the crash-safety property
// to the segment tier: a tiny memtable cap and checkpoint period mean
// the random write budget can expire inside a WAL append, a segment
// flush, a manifest swap or an inline merge, and the restart keeps only
// a random prefix of each file's un-fsynced tail. Whatever the crash
// point, the recovered store must hold exactly the acknowledged
// survivors — whether they live in segments, in tier tombstones or in
// the replayed memtable — and answer like a batch resolver over them.
func TestDiskStoreCrashRecoveryProperty(t *testing.T) {
	base := testConfigs()["epsjoin"]
	trials := 25
	if testing.Short() {
		trials = 6
	}
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(trial)*104729 + 17))
			cfg := diskConfig(base, "", 3+rng.Intn(6))
			cfg.SegmentDir = "" // durable stores derive it from the store dir
			m := faultfs.NewMem()
			s, err := OpenStore(storeDir, cfg, 1, StoreOptions{
				FS:              m,
				SegmentBytes:    512,
				CheckpointEvery: 4 + rng.Intn(8),
			})
			if err != nil {
				t.Fatalf("open store: %v", err)
			}
			m.LimitWrites(int64(300 + rng.Intn(9000)))

			// The oracle: entities whose write was acknowledged.
			model := map[int64][]entity.Attribute{}
			var nextID int64
			crashed := false
			for op := 0; op < 140 && !crashed; op++ {
				switch {
				case op%19 == 18:
					// Explicit checkpoints race the budget too — a torn
					// flush or manifest swap must not lose acked state.
					_ = s.Checkpoint()
					if ok, _ := s.Ready(); !ok {
						crashed = true
					}
				case rng.Intn(4) == 0 && len(model) > 0:
					ids := keysOf(model)
					id := ids[rng.Intn(len(ids))]
					ok, err := s.Delete(id)
					if err != nil {
						crashed = true
						break
					}
					if !ok {
						t.Fatalf("delete of resident %d reported missing", id)
					}
					delete(model, id)
				default:
					txt := fmt.Sprintf("%s variant %d", corpus[rng.Intn(len(corpus))], op)
					id, err := s.Insert(attrsText(txt))
					if err != nil {
						crashed = true
						break
					}
					if id != nextID {
						t.Fatalf("acked insert id %d, want %d", id, nextID)
					}
					model[id] = attrsText(txt)
					nextID++
				}
			}
			if !crashed {
				if err := s.Close(); err != nil {
					t.Fatalf("clean close: %v", err)
				}
			}
			// Power failure: drop a random amount of the un-fsynced tail.
			m.Crash()
			m.Restart(func(name string, unsynced int) int { return rng.Intn(unsynced + 1) })

			s2, err := OpenStore(storeDir, cfg, 1, StoreOptions{FS: m})
			if err != nil {
				t.Fatalf("recovery failed (crashed=%v): %v", crashed, err)
			}
			defer s2.Close()
			r2 := s2.Resolver()
			if got := r2.Len(); got != len(model) {
				t.Fatalf("recovered %d residents, want %d acked (crashed=%v)\n got: %v\nwant: %v",
					got, len(model), crashed, recoveredIDs(r2, nextID), keysOf(model))
			}
			for id, want := range model {
				got, ok := r2.Get(id)
				if !ok || !reflect.DeepEqual(got, want) {
					t.Fatalf("recovered Get(%d) = (%v, %v), want %v", id, got, ok, want)
				}
			}
			sameAnswers(t, fmt.Sprintf("trial %d", trial), r2, batchOver(t, cfg, model))
			// The recovered store must stay writable with a fresh id.
			id, err := s2.Insert(attrsText("post recovery insert"))
			if err != nil {
				t.Fatalf("insert after recovery: %v", err)
			}
			if id < nextID {
				t.Fatalf("recovered store reused id %d (acked next %d)", id, nextID)
			}
		})
	}
}

// recoveredIDs lists the live ids a recovered resolver actually holds,
// for crash-test failure messages.
func recoveredIDs(r *Resolver, maxID int64) []int64 {
	var ids []int64
	for id := int64(0); id < maxID; id++ {
		if _, ok := r.Get(id); ok {
			ids = append(ids, id)
		}
	}
	return ids
}

// TestOpenStoreStorageMismatch: a store directory refuses to reopen
// under the other storage kind.
func TestOpenStoreStorageMismatch(t *testing.T) {
	memCfg := testConfigs()["epsjoin"]

	t.Run("memory-then-disk", func(t *testing.T) {
		dir := t.TempDir()
		st, err := OpenStore(dir, memCfg, 1, StoreOptions{})
		if err != nil {
			t.Fatalf("OpenStore: %v", err)
		}
		if _, err := st.Insert(attrsText(corpus[0])); err != nil {
			t.Fatalf("insert: %v", err)
		}
		if err := st.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		dcfg := memCfg
		dcfg.Storage = StorageDisk
		if _, err := OpenStore(dir, dcfg, 1, StoreOptions{}); err == nil {
			t.Fatal("memory-store dir reopened as disk")
		}
	})

	t.Run("disk-then-memory", func(t *testing.T) {
		dir := t.TempDir()
		dcfg := memCfg
		dcfg.Storage = StorageDisk
		st, err := OpenStore(dir, dcfg, 1, StoreOptions{})
		if err != nil {
			t.Fatalf("OpenStore: %v", err)
		}
		if _, err := st.Insert(attrsText(corpus[0])); err != nil {
			t.Fatalf("insert: %v", err)
		}
		if err := st.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		if _, err := OpenStore(dir, memCfg, 1, StoreOptions{}); err == nil {
			t.Fatal("disk-store dir reopened as memory")
		}
	})
}

// TestDiskStoreDurableRoundTrip: the durable disk-backed store flushes
// at the memtable cap, survives Close/Open with the flushed bulk in
// segments and the tail replayed from the WAL, and keeps answering
// like a memory oracle fed the same surviving operations.
func TestDiskStoreDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := diskConfig(testConfigs()["knnj"], "", 6)
	cfg.SegmentDir = "" // durable stores derive it from the store dir

	st, err := OpenStore(dir, cfg, 1, StoreOptions{})
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	oracle := mustOpen(t, testConfigs()["knnj"], 1)
	var ids []int64
	for i := 0; i < 20; i++ {
		attrs := attrsText(fmt.Sprintf("%s rec %d", corpus[i%len(corpus)], i))
		id, err := st.Insert(attrs)
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if oid := oracle.Insert(attrs); oid != id {
			t.Fatalf("id divergence %d vs %d", id, oid)
		}
		ids = append(ids, id)
	}
	// Delete one entity that is already flushed into a segment and one
	// that is still in the memtable.
	for _, id := range []int64{ids[1], ids[len(ids)-1]} {
		ok, err := st.Delete(id)
		if err != nil || !ok {
			t.Fatalf("delete %d: %v %v", id, ok, err)
		}
		if !oracle.Delete(id) {
			t.Fatalf("oracle delete %d", id)
		}
	}
	if segs, _ := tierSize(st.Resolver()); segs == 0 {
		t.Fatal("cap-triggered flush never happened")
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// The segment tier lives under the store directory.
	if ok, _ := faultfs.Exists(faultfs.OS{}, filepath.Join(dir, segmentsDirName, "MANIFEST")); !ok {
		t.Fatal("no segment manifest under the store dir")
	}

	st2, err := OpenStore(dir, cfg, 1, StoreOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close()
	rng := rand.New(rand.NewSource(1))
	checkAnswersMatch(t, "durable reopen", []*Resolver{oracle, st2.Resolver()}, rng, int64(len(ids)))
	// Replay must be idempotent: deletes of GC'd ids, re-inserts of
	// flushed ids — all absorbed. A fresh insert continues the id space.
	id, err := st2.Insert(attrsText("post-recovery entity"))
	if err != nil {
		t.Fatalf("post-recovery insert: %v", err)
	}
	if id < int64(len(ids)) {
		t.Fatalf("post-recovery insert reused id %d", id)
	}
}
