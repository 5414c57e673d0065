package online

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"erfilter/internal/entity"
	"erfilter/internal/faultfs"
)

const storeDir = "store"

func mustOpenStore(t *testing.T, m faultfs.FS, cfg Config, opt StoreOptions) *Store {
	t.Helper()
	opt.FS = m
	s, err := OpenStore(storeDir, cfg, 1, opt)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	return s
}

// residents returns the store's entity map as a plain copy for oracle
// comparison.
func residents(s *Store) map[int64][]entity.Attribute {
	r := s.Resolver()
	out := make(map[int64][]entity.Attribute)
	for _, id := range r.IDs() {
		out[id], _ = r.Get(id)
	}
	return out
}

// batchOver builds a fresh one-shard resolver holding exactly the given
// entities under their original ids — the oracle a recovered store must
// match.
func batchOver(tb testing.TB, cfg Config, ents map[int64][]entity.Attribute) *Resolver {
	ids := make([]int64, 0, len(ents))
	for id := range ents {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	batch := make([][]entity.Attribute, len(ids))
	for i, id := range ids {
		batch[i] = ents[id]
	}
	cfg.Storage = StorageMemory // the oracle is in-memory whatever the store under test
	r := mustOpen(tb, cfg, 1)
	r.shards[0].insertAssigned(ids, batch)
	r.resyncNextID()
	return r
}

var probeTexts = []string{
	"canon power shot a540 camera",
	"nikon coolpix bridge",
	"sony compact cybershot",
	"apple ipod 4gb",
	"wireless earbuds galaxy",
}

// sameAnswers asserts got answers every probe exactly like the oracle.
func sameAnswers(t *testing.T, label string, got, oracle *Resolver) {
	t.Helper()
	for _, probe := range probeTexts {
		g := got.Query(attrsText(probe), QueryOptions{})
		w := oracle.Query(attrsText(probe), QueryOptions{})
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: query %q diverged: recovered %v, batch oracle %v", label, probe, g, w)
		}
	}
}

// TestStoreRoundTrip covers the plain durable path for every method:
// acked writes survive a clean close and reopen, and the reopened
// resolver answers like a batch build over the survivors.
func TestStoreRoundTrip(t *testing.T) {
	for name, cfg := range testConfigs() {
		t.Run(name, func(t *testing.T) {
			m := faultfs.NewMem()
			s := mustOpenStore(t, m, cfg, StoreOptions{})
			var ids []int64
			for _, txt := range corpus {
				id, err := s.Insert(attrsText(txt))
				if err != nil {
					t.Fatalf("insert: %v", err)
				}
				ids = append(ids, id)
			}
			if ok, err := s.Delete(ids[2]); !ok || err != nil {
				t.Fatalf("delete: %v %v", ok, err)
			}
			if ok, err := s.Delete(999); ok || err != nil {
				t.Fatalf("delete missing: %v %v", ok, err)
			}
			want := residents(s)
			if err := s.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}

			s2 := mustOpenStore(t, m, cfg, StoreOptions{})
			defer s2.Close()
			if got := residents(s2); !reflect.DeepEqual(got, want) {
				t.Fatalf("reopened residents = %v, want %v", got, want)
			}
			sameAnswers(t, "reopen", s2.Resolver(), batchOver(t, cfg, want))
			// The store must keep accepting writes with fresh ids.
			id, err := s2.Insert(attrsText("fresh entity after reopen"))
			if err != nil || id != ids[len(ids)-1]+1 {
				t.Fatalf("insert after reopen: id=%d err=%v", id, err)
			}
		})
	}
}

// TestStoreBatchInsert checks the one-publish, one-fsync batch path.
func TestStoreBatchInsert(t *testing.T) {
	m := faultfs.NewMem()
	s := mustOpenStore(t, m, testConfigs()["epsjoin"], StoreOptions{})
	defer s.Close()
	batch := make([][]entity.Attribute, len(corpus))
	for i, txt := range corpus {
		batch[i] = attrsText(txt)
	}
	ids, err := s.InsertBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if id != int64(i) {
			t.Fatalf("batch ids not consecutive: %v", ids)
		}
	}
	if st := s.Stats(); st.PerShard[0].WAL.Syncs > 1 {
		t.Fatalf("batch insert used %d fsyncs, want 1", st.PerShard[0].WAL.Syncs)
	}
}

// TestStoreCheckpointTrimsWAL proves checkpoints bound the log: after
// enough writes the obsolete segments are deleted and recovery starts
// from the snapshot, not from the full history.
func TestStoreCheckpointTrimsWAL(t *testing.T) {
	m := faultfs.NewMem()
	cfg := testConfigs()["epsjoin"]
	s := mustOpenStore(t, m, cfg, StoreOptions{SegmentBytes: 256, CheckpointEvery: 10})
	for i := 0; i < 35; i++ {
		if _, err := s.Insert(attrsText(fmt.Sprintf("entity number %04d canon", i))); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Checkpoints < 3 {
		t.Fatalf("auto-checkpoint never ran: %+v", st)
	}
	if st.PerShard[0].WAL.Trimmed == 0 {
		t.Fatalf("checkpoints never trimmed the WAL: %+v", st)
	}
	names, err := m.ReadDir(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) > 3 { // current.snap + at most two live segments
		t.Fatalf("WAL not bounded after checkpoints: %v", names)
	}
	want := residents(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpenStore(t, m, cfg, StoreOptions{})
	defer s2.Close()
	if got := residents(s2); !reflect.DeepEqual(got, want) {
		t.Fatalf("residents after checkpointed reopen = %d entities, want %d", len(got), len(want))
	}
}

// TestStoreDegradedReadOnly proves a WAL disk failure flips the store to
// read-only: the failed write is not acknowledged, later writes fail
// fast with ErrDegraded, and reads keep serving.
func TestStoreDegradedReadOnly(t *testing.T) {
	m := faultfs.NewMem()
	s := mustOpenStore(t, m, testConfigs()["epsjoin"], StoreOptions{})
	for _, txt := range corpus {
		if _, err := s.Insert(attrsText(txt)); err != nil {
			t.Fatal(err)
		}
	}
	m.FailAllSyncs(true)
	if _, err := s.Insert(attrsText("never durable")); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("insert on broken disk: %v", err)
	}
	if ok, reason := s.Ready(); ok || reason == nil {
		t.Fatalf("store not degraded after disk failure: %v %v", ok, reason)
	}
	m.FailAllSyncs(false) // the disk "recovers", but the log is poisoned
	if _, err := s.Insert(attrsText("still rejected")); !errors.Is(err, ErrDegraded) {
		t.Fatalf("insert while degraded: %v", err)
	}
	if _, err := s.Delete(0); !errors.Is(err, ErrDegraded) {
		t.Fatalf("delete while degraded: %v", err)
	}
	if st := s.Stats(); !st.Degraded || st.Reason == "" {
		t.Fatalf("stats hide degradation: %+v", st)
	}
	// Reads must still work from the last published epoch.
	if got := s.Resolver().Query(attrsText(probeTexts[0]), QueryOptions{}); len(got) == 0 {
		t.Fatal("degraded store stopped serving reads")
	}
	s.Close()

	// After a restart on the healed disk, only acked writes are back.
	m.Restart(nil)
	s2 := mustOpenStore(t, m, testConfigs()["epsjoin"], StoreOptions{})
	defer s2.Close()
	if got := residents(s2); len(got) != len(corpus) {
		t.Fatalf("recovered %d entities, want %d", len(got), len(corpus))
	}
}

// TestStoreCrashRecoveryProperty is the crash-safety property test: a
// random workload of inserts, deletes and checkpoints runs against a
// file system that dies after a random write budget, with a random
// prefix of the un-fsynced tail surviving the restart. Whatever the
// crash point, the recovered store must hold exactly the acknowledged
// survivors and answer queries identically to a batch resolver built
// over them.
func TestStoreCrashRecoveryProperty(t *testing.T) {
	cfg := testConfigs()["epsjoin"]
	for trial := 0; trial < 30; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(trial) * 7919))
			m := faultfs.NewMem()
			s := mustOpenStore(t, m, cfg, StoreOptions{SegmentBytes: 512})
			m.LimitWrites(int64(200 + rng.Intn(6000)))

			// The oracle: entities whose write was acknowledged.
			model := map[int64][]entity.Attribute{}
			var nextID int64
			crashed := false
			for op := 0; op < 150 && !crashed; op++ {
				switch {
				case op%17 == 16:
					// Checkpoints race the budget too; a failed one must
					// not lose acked state.
					_ = s.Checkpoint()
					if ok, _ := s.Ready(); !ok {
						crashed = true
					}
				case rng.Intn(4) == 0 && len(model) > 0:
					ids := make([]int64, 0, len(model))
					for id := range model {
						ids = append(ids, id)
					}
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
			if got := residents(s2); !reflect.DeepEqual(got, model) {
				t.Fatalf("recovered %d residents, want %d acked (crashed=%v)\n got: %v\nwant: %v",
					len(got), len(model), crashed, keysOf(got), keysOf(model))
			}
			sameAnswers(t, fmt.Sprintf("trial %d", trial), s2.Resolver(), batchOver(t, cfg, model))
			// The recovered store must remain writable with a fresh id.
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

func keysOf(m map[int64][]entity.Attribute) []int64 {
	ids := make([]int64, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// TestSaveFileAtomic pins the temp-file + fsync + rename discipline: a
// crash right after SaveFile keeps the complete snapshot, and a crash
// during the write leaves the previous snapshot untouched.
func TestSaveFileAtomic(t *testing.T) {
	cfg := testConfigs()["epsjoin"]
	r := mustOpen(t, cfg, 1)
	for _, txt := range corpus {
		r.Insert(attrsText(txt))
	}

	m := faultfs.NewMem()
	if err := m.MkdirAll("out"); err != nil {
		t.Fatal(err)
	}
	if err := r.SaveFile(m, "out/snap"); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	m.Restart(nil)
	f, err := faultfs.Open(m, "out/snap")
	if err != nil {
		t.Fatalf("snapshot lost after crash: %v", err)
	}
	r2, err := Load(f, Config{}, 1)
	f.Close()
	if err != nil {
		t.Fatalf("snapshot damaged after crash: %v", err)
	}
	if r2.Len() != len(corpus) {
		t.Fatalf("loaded %d entities, want %d", r2.Len(), len(corpus))
	}

	// A failed rewrite must leave the old snapshot in place.
	m.FailAllSyncs(true)
	r.Insert(attrsText("extra entity"))
	if err := r.SaveFile(m, "out/snap"); err == nil {
		t.Fatal("save on broken disk must error")
	}
	m.FailAllSyncs(false)
	if _, err := faultfs.Open(m, "out/snap.tmp"); err == nil {
		t.Fatal("temp file leaked after failed save")
	}
	f, err = faultfs.Open(m, "out/snap")
	if err != nil {
		t.Fatal(err)
	}
	r3, err := Load(f, Config{}, 1)
	f.Close()
	if err != nil || r3.Len() != len(corpus) {
		t.Fatalf("old snapshot damaged by failed rewrite: %v, len %d", err, r3.Len())
	}
}
