package online

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"erfilter/internal/datagen"
	"erfilter/internal/entity"
	"erfilter/internal/faultfs"
)

// applyOps drives the same randomized workload — single inserts, batch
// inserts, deletes of residents — against a single resolver and a
// sharded one. Both allocate ids in arrival order, so the same op
// sequence produces the same id assignment on both sides.
func applyOps(rng *rand.Rand, single *Resolver, sharded *Resolver, inserts, deletes int) {
	var live []int64
	insertOne := func(i int) {
		attrs := attrsText(fmt.Sprintf("%s variant %d", corpus[rng.Intn(len(corpus))], i))
		a := single.Insert(attrs)
		b := sharded.Insert(attrs)
		if a != b {
			panic(fmt.Sprintf("id divergence: single %d, sharded %d", a, b))
		}
		live = append(live, a)
	}
	i := 0
	for i < inserts {
		if rng.Intn(4) == 0 {
			// Batch insert: exercises the block id reservation.
			n := 1 + rng.Intn(8)
			if i+n > inserts {
				n = inserts - i
			}
			batch := make([][]entity.Attribute, n)
			for j := range batch {
				batch[j] = attrsText(fmt.Sprintf("%s batch %d", corpus[rng.Intn(len(corpus))], i+j))
			}
			a := single.InsertBatch(batch)
			b := sharded.InsertBatch(batch)
			if !reflect.DeepEqual(a, b) {
				panic(fmt.Sprintf("batch id divergence: %v vs %v", a, b))
			}
			live = append(live, a...)
			i += n
		} else {
			insertOne(i)
			i++
		}
	}
	for d := 0; d < deletes && len(live) > 0; d++ {
		j := rng.Intn(len(live))
		id := live[j]
		live = append(live[:j], live[j+1:]...)
		a := single.Delete(id)
		b := sharded.Delete(id)
		if a != b {
			panic(fmt.Sprintf("delete divergence on %d: single %v, sharded %v", id, a, b))
		}
	}
}

// checkEquivalence asserts the sharded resolver answers byte-identically
// to the single one on a set of probes, through both Query and
// QueryBatch, and that the aggregate stats agree.
func checkEquivalence(t *testing.T, label string, single *Resolver, sharded *Resolver, rng *rand.Rand) {
	t.Helper()
	opts := []QueryOptions{{}, {K: 1}, {K: 7}, {Threshold: 0.2}}
	var batch [][]entity.Attribute
	for p := 0; p < 12; p++ {
		txt := fmt.Sprintf("%s probe %d", corpus[rng.Intn(len(corpus))], rng.Intn(40))
		batch = append(batch, attrsText(txt))
	}
	for _, opt := range opts {
		for _, probe := range batch {
			a := single.Query(probe, opt)
			b := sharded.Query(probe, opt)
			ja, _ := json.Marshal(a)
			jb, _ := json.Marshal(b)
			if !bytes.Equal(ja, jb) {
				t.Fatalf("%s: query %q opt %+v diverged:\n single: %s\nsharded: %s", label, probe[0].Value, opt, ja, jb)
			}
		}
		av, _ := single.Snapshot().QueryBatch(batch, opt)
		bv, _ := sharded.Snapshot().QueryBatch(batch, opt)
		ja, _ := json.Marshal(av)
		jb, _ := json.Marshal(bv)
		if !bytes.Equal(ja, jb) {
			t.Fatalf("%s: QueryBatch opt %+v diverged:\n single: %s\nsharded: %s", label, opt, ja, jb)
		}
	}
	ss, st := single.Stats(), sharded.Stats()
	if ss.Entities != st.Entities || ss.Inserts != st.Inserts || ss.Deletes != st.Deletes {
		t.Fatalf("%s: stats diverged: single %+v, sharded %+v", label, ss, st)
	}
	if got := sharded.Len(); got != single.Len() {
		t.Fatalf("%s: Len %d, want %d", label, got, single.Len())
	}
	// Every live entity is routable to its shard.
	for id := int64(0); id < int64(ss.Inserts); id++ {
		a, aok := single.Get(id)
		b, bok := sharded.Get(id)
		if aok != bok || !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: Get(%d) diverged: (%v,%v) vs (%v,%v)", label, id, a, aok, b, bok)
		}
	}
}

// TestShardedEquivalenceQuick is the tentpole property test: for random
// workloads (insert/batch-insert/delete, enough deletes to trigger
// compaction at low shard counts) and a random shard count in 1..8, a
// Resolver must answer byte-identically to a single Resolver —
// through Query and QueryBatch, for every method — and a snapshot
// round-trip through any other shard count must preserve that.
func TestShardedEquivalenceQuick(t *testing.T) {
	trials := 6
	if testing.Short() {
		trials = 2
	}
	for name, cfg := range testConfigs() {
		if cfg.Dense == DenseHNSW {
			// Per-shard HNSW graphs see different insertion orders than
			// the single resolver's one graph, so approximate answers are
			// not byte-identical across topologies (any agreement at this
			// scale is incidental). The ANN tier is instead held to exact
			// equivalence under QueryOptions{Exact: true} and a recall
			// floor in TestShardedHNSWRecallGateQuick.
			continue
		}
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			check := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				shards := 1 + rng.Intn(8)
				single := mustOpen(t, cfg, 1)
				sharded := mustOpen(t, cfg, shards)
				// Enough deletes that a 1-2 shard run crosses the
				// compaction threshold (compactMinDead dead in one shard).
				inserts := 160 + rng.Intn(140)
				deletes := 70 + rng.Intn(80)
				applyOps(rng, single, sharded, inserts, deletes)
				label := fmt.Sprintf("seed=%d shards=%d", seed, shards)
				checkEquivalence(t, label, single, sharded, rng)

				// Snapshot round-trip into a different shard count keeps
				// every answer.
				var buf bytes.Buffer
				if err := sharded.Save(&buf); err != nil {
					t.Fatalf("%s: save: %v", label, err)
				}
				reShards := 1 + rng.Intn(8)
				reloaded, err := Load(bytes.NewReader(buf.Bytes()), Config{}, reShards)
				if err != nil {
					t.Fatalf("%s: load into %d shards: %v", label, reShards, err)
				}
				probe := attrsText(corpus[rng.Intn(len(corpus))])
				a := single.Query(probe, QueryOptions{K: 5})
				b := reloaded.Query(probe, QueryOptions{K: 5})
				ja, _ := json.Marshal(a)
				jb, _ := json.Marshal(b)
				if !bytes.Equal(ja, jb) {
					t.Fatalf("%s: reloaded at %d shards diverged: %s vs %s", label, reShards, ja, jb)
				}
				return !t.Failed()
			}
			if err := quick.Check(check, &quick.Config{MaxCount: trials}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestShardedInsertBatchParallelEquivalence pins that concurrent batch
// inserts against the sharded resolver keep the id space dense and every
// entity resident — the block-reservation path under contention.
func TestShardedInsertBatchParallelEquivalence(t *testing.T) {
	cfg := testConfigs()["knnj"]
	sr := mustOpen(t, cfg, 4)
	const goroutines, perG = 8, 10
	done := make(chan []int64, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			var mine []int64
			for i := 0; i < perG; i++ {
				batch := [][]entity.Attribute{
					attrsText(fmt.Sprintf("writer %d op %d canon", g, i)),
					attrsText(fmt.Sprintf("writer %d op %d nikon", g, i)),
				}
				mine = append(mine, sr.InsertBatch(batch)...)
			}
			done <- mine
		}(g)
	}
	seen := map[int64]bool{}
	for g := 0; g < goroutines; g++ {
		for _, id := range <-done {
			if seen[id] {
				t.Fatalf("id %d assigned twice", id)
			}
			seen[id] = true
			if _, ok := sr.Get(id); !ok {
				t.Fatalf("assigned id %d not resident", id)
			}
		}
	}
	total := goroutines * perG * 2
	if sr.Len() != total || len(seen) != total {
		t.Fatalf("resident %d ids %d, want %d", sr.Len(), len(seen), total)
	}
	st := sr.Stats()
	if st.SizeSkew < 1 {
		t.Fatalf("size skew %v must be >= 1", st.SizeSkew)
	}
}

// TestShardedDurableCrashRecoveryProperty is the sharded version of the
// store crash property: random single-entity writes until the disk
// budget trips, a power failure that truncates a random amount of each
// shard's un-fsynced WAL tail independently, then recovery — the
// reopened store must hold exactly the acked writes and answer like a
// batch build over them.
func TestShardedDurableCrashRecoveryProperty(t *testing.T) {
	cfg := testConfigs()["epsjoin"]
	trials := 20
	if testing.Short() {
		trials = 5
	}
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(trial)*104729 + 17))
			shards := 1 + rng.Intn(4)
			m := faultfs.NewMem()
			ss, err := OpenStore(storeDir, cfg, shards, StoreOptions{FS: m, SegmentBytes: 512})
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			m.LimitWrites(int64(400 + rng.Intn(8000)))

			model := map[int64][]entity.Attribute{}
			var nextID int64
			crashed := false
			for op := 0; op < 150 && !crashed; op++ {
				switch {
				case op%23 == 22:
					_ = ss.Checkpoint()
					if ok, _ := ss.Ready(); !ok {
						crashed = true
					}
				case rng.Intn(4) == 0 && len(model) > 0:
					ids := keysOf(model)
					id := ids[rng.Intn(len(ids))]
					ok, err := ss.Delete(id)
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
					id, err := ss.Insert(attrsText(txt))
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
				if err := ss.Close(); err != nil {
					t.Fatalf("clean close: %v", err)
				}
			}
			// Power failure: every shard WAL independently loses a random
			// amount of its un-fsynced tail.
			m.Crash()
			m.Restart(func(name string, unsynced int) int { return rng.Intn(unsynced + 1) })

			ss2, err := OpenStore(storeDir, cfg, shards, StoreOptions{FS: m})
			if err != nil {
				t.Fatalf("recovery failed (crashed=%v, shards=%d): %v", crashed, shards, err)
			}
			defer ss2.Close()
			if got := residents(ss2); !reflect.DeepEqual(got, model) {
				t.Fatalf("recovered %d residents, want %d acked (crashed=%v, shards=%d)\n got: %v\nwant: %v",
					len(got), len(model), crashed, shards, keysOf(got), keysOf(model))
			}
			oracle := batchOver(t, cfg, model)
			for _, probe := range probeTexts {
				g := ss2.Resolver().Query(attrsText(probe), QueryOptions{})
				w := oracle.Query(attrsText(probe), QueryOptions{})
				if !reflect.DeepEqual(g, w) {
					t.Fatalf("trial %d: query %q diverged: recovered %v, oracle %v", trial, probe, g, w)
				}
			}
			// The recovered store must stay writable with a fresh id.
			id, err := ss2.Insert(attrsText("post recovery insert"))
			if err != nil {
				t.Fatalf("insert after recovery: %v", err)
			}
			if id < nextID {
				t.Fatalf("recovered store reused id %d (acked next %d)", id, nextID)
			}
		})
	}
}

// TestShardedDurableMetaMismatch pins the shard-count guard: a directory
// created at one count refuses to open at another.
func TestShardedDurableMetaMismatch(t *testing.T) {
	cfg := testConfigs()["knnj"]
	m := faultfs.NewMem()
	ss, err := OpenStore(storeDir, cfg, 3, StoreOptions{FS: m})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ss.Insert(attrsText("pinned")); err != nil {
		t.Fatal(err)
	}
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(storeDir, cfg, 5, StoreOptions{FS: m}); err == nil {
		t.Fatal("reopen at a different shard count must error")
	}
	ss2, err := OpenStore(storeDir, cfg, 3, StoreOptions{FS: m})
	if err != nil {
		t.Fatalf("reopen at the pinned count: %v", err)
	}
	defer ss2.Close()
	if ss2.Resolver().Len() != 1 {
		t.Fatalf("recovered %d entities, want 1", ss2.Resolver().Len())
	}
}

// benchSharded builds a preloaded sharded resolver with telemetry
// disabled on every shard, so the benchmark prices the data path.
func benchSharded(b *testing.B, cfg Config, shards, n int) *Resolver {
	sr := mustOpen(b, cfg, shards)
	batch := make([][]entity.Attribute, n)
	for i := range batch {
		batch[i] = benchAttrs(i)
	}
	sr.InsertBatch(batch)
	sr.disableTelemetry()
	return sr
}

// BenchmarkBulkLoad prices the -bulk boot path: 10 000 generated product
// entities (the corpus shape of the repository benchmark's knnj_point)
// through InsertBatch into an empty C3G resolver, at 1 and 2 shards. It
// reports ns/entity and B/entity; the load is linear in the token count,
// so a quadratic term anywhere in the write path (the posting table once
// grew by one copy per new token id) shows as a 10x jump in both.
func BenchmarkBulkLoad(b *testing.B) { benchBulkLoad(b, benchConfigs()["knnj-C3G"], 10000) }

// BenchmarkBulkLoadDense is the same boot path for the exact dense index:
// 2 000 entities (the repository benchmark's hnsw_point size) at 300-d.
// The load is embedding-bound — ~13 words of ~20 us each per entity
// against a 1.2 KB append — and every shard's prepare fills the
// resolver's one word-vector table from GOMAXPROCS workers, so ns/entity
// should fall with the cores (towards 2x on two) and B/entity stay what
// it is at one shard: the vocabulary is held once, not once per shard.
func BenchmarkBulkLoadDense(b *testing.B) { benchBulkLoad(b, benchConfigs()["flat-d300"], 2000) }

func benchBulkLoad(b *testing.B, cfg Config, n int) {
	task := datagen.Generate(datagen.QuickSpec(n, 0, 0, 1))
	seed := make([][]entity.Attribute, n)
	for i := range seed {
		seed[i] = task.E1.Profiles[i].Attrs
	}
	for _, shards := range []int{1, 2} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := mustOpen(b, cfg, shards).InsertBatch(seed); len(got) != n {
					b.Fatalf("loaded %d of %d", len(got), n)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/entity")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N*n), "B/entity")
		})
	}
}

// BenchmarkShardedQuery measures scatter-gather top-k latency across
// shard counts on a fixed collection: per query it pays one fan-out over
// the shard snapshots plus the deterministic merge.
func BenchmarkShardedQuery(b *testing.B) {
	c3g := benchConfigs()["knnj-C3G"]
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			const preload = 2000
			sr := benchSharded(b, c3g, shards, preload)
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					sr.Query(benchAttrs(i*31), QueryOptions{})
					i++
				}
			})
		})
	}
}

// BenchmarkShardedQueryBatch prices the batch amortization: one
// QueryBatch of 64 queries versus 64 scatter-gathers.
func BenchmarkShardedQueryBatch(b *testing.B) {
	c3g := benchConfigs()["knnj-C3G"]
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			const preload, batchN = 2000, 64
			sr := benchSharded(b, c3g, shards, preload)
			batch := make([][]entity.Attribute, batchN)
			for i := range batch {
				batch[i] = benchAttrs(i * 13)
			}
			snap := sr.Snapshot()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				snap.QueryBatch(batch, QueryOptions{})
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N*batchN), "queries")
		})
	}
}
