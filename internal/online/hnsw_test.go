package online

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"erfilter/internal/entity"
	"erfilter/internal/faultfs"
)

// onlineRecallGate is the floor the serving-path ANN tier must hold
// against the exact oracle, matching the gate in internal/knn.
const onlineRecallGate = 0.95

// recallOf computes tie-tolerant recall@k of an approximate answer
// against the oracle one: a hit is any approximate candidate scoring at
// or above the oracle's worst returned score (Candidate scores are
// higher-better for every method), capped so duplicates of the cutoff
// score cannot push recall past 1.
func recallOf(approx, exact []Candidate) float64 {
	if len(exact) == 0 {
		return 1
	}
	cutoff := exact[len(exact)-1].Score
	hit := 0
	for _, c := range approx {
		if c.Score >= cutoff {
			hit++
		}
	}
	if hit > len(exact) {
		hit = len(exact)
	}
	return float64(hit) / float64(len(exact))
}

// TestShardedHNSWRecallGateQuick is the serving-path recall gate: for
// random workloads (single and batch inserts, deletes past the shard
// compaction threshold) and shard counts 1..8, an HNSW-backed sharded
// resolver must (a) answer byte-identically to a flat-index oracle under
// QueryOptions{Exact: true} — the escape hatch is a real oracle, not a
// second approximation — and (b) keep approximate recall@k at or above
// onlineRecallGate, including after a snapshot round-trip into a
// different shard count, which rebuilds every shard graph by replay.
func TestShardedHNSWRecallGateQuick(t *testing.T) {
	flatCfg := testConfigs()["flat"]
	hnswCfg := testConfigs()["hnsw"]
	trials := 6
	if testing.Short() {
		trials = 2
	}
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		shards := 1 + rng.Intn(8)
		oracle := mustOpen(t, flatCfg, 1)
		sharded := mustOpen(t, hnswCfg, shards)
		inserts := 160 + rng.Intn(140)
		deletes := 70 + rng.Intn(80)
		applyOps(rng, oracle, sharded, inserts, deletes)
		label := fmt.Sprintf("seed=%d shards=%d", seed, shards)

		assertGate := func(phase string, sr *Resolver) {
			for p := 0; p < 12; p++ {
				probe := attrsText(fmt.Sprintf("%s probe %d", corpus[rng.Intn(len(corpus))], rng.Intn(40)))
				want := oracle.Query(probe, QueryOptions{K: 10})
				exact := sr.Query(probe, QueryOptions{K: 10, Exact: true})
				jw, _ := json.Marshal(want)
				je, _ := json.Marshal(exact)
				if !bytes.Equal(jw, je) {
					t.Fatalf("%s %s: exact query %q diverged from flat oracle:\n oracle: %s\n  exact: %s",
						label, phase, probe[0].Value, jw, je)
				}
				approx := sr.Query(probe, QueryOptions{K: 10})
				if r := recallOf(approx, want); r < onlineRecallGate {
					t.Fatalf("%s %s: query %q recall@10 %.3f below gate %.2f\n oracle: %s\n approx: %v",
						label, phase, probe[0].Value, r, onlineRecallGate, jw, approx)
				}
			}
		}
		assertGate("live", sharded)

		// Round-trip into a different shard count: sharded snapshots carry
		// no graphs, so this exercises the replay-rebuild restore path.
		var buf bytes.Buffer
		if err := sharded.Save(&buf); err != nil {
			t.Fatalf("%s: save: %v", label, err)
		}
		reShards := 1 + rng.Intn(8)
		reloaded, err := Load(bytes.NewReader(buf.Bytes()), Config{}, reShards)
		if err != nil {
			t.Fatalf("%s: load into %d shards: %v", label, reShards, err)
		}
		assertGate(fmt.Sprintf("reloaded@%d", reShards), reloaded)
		return !t.Failed()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: trials}); err != nil {
		t.Fatal(err)
	}
}

// TestShardedDurableCrashRecoveryHNSW extends the crash property to the
// ANN tier: checkpoints embed the per-shard HNSW graphs, WAL replay
// rebuilds the tail, and after a torn-tail power failure the reopened
// store must hold exactly the acked writes, answer byte-identically to
// a batch oracle under QueryOptions{Exact: true}, and keep the
// approximate path at or above the recall gate.
func TestShardedDurableCrashRecoveryHNSW(t *testing.T) {
	cfg := testConfigs()["hnsw"]
	trials := 12
	if testing.Short() {
		trials = 4
	}
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(trial)*7919 + 5))
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
					// Checkpoints on this config serialize the shard
					// graphs inline — the path the flat crash test
					// never reaches.
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
				want := oracle.Query(attrsText(probe), QueryOptions{K: 10, Exact: true})
				got := ss2.Resolver().Query(attrsText(probe), QueryOptions{K: 10, Exact: true})
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d: exact query %q diverged: recovered %v, oracle %v", trial, probe, got, want)
				}
				approx := ss2.Resolver().Query(attrsText(probe), QueryOptions{K: 10})
				if r := recallOf(approx, want); r < onlineRecallGate {
					t.Fatalf("trial %d: query %q recall@10 %.3f below gate %.2f (approx %v, oracle %v)",
						trial, probe, r, onlineRecallGate, approx, want)
				}
			}
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
