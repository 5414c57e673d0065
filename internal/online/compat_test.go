package online

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"testing"

	"erfilter/internal/entity"
	"erfilter/internal/faultfs"
	"erfilter/internal/knn"
)

// These tests pin on-disk compatibility with the layouts written before
// the resolver and the store became one type each: a one-shard store,
// tier or snapshot lives at the directory root exactly as the old
// single-resolver types wrote it, and an N-shard one is N independent
// one-shard layouts under shard-<i> plus (for a store) the SHARDS pin.
// The fixtures are assembled by those rules — shard by shard, each
// written as a standalone one-shard layout — and must open under the
// unified types with byte-identical answers.

// compatEntities is a deterministic collection with a few deleted ids.
func compatEntities() (ids []int64, batch [][]entity.Attribute, deleted []int64) {
	for i := 0; i < 40; i++ {
		ids = append(ids, int64(i))
		batch = append(batch, attrsText(fmt.Sprintf("%s compat %d", corpus[i%len(corpus)], i)))
	}
	return ids, batch, []int64{4, 11, 30}
}

// shardSlice returns the entities shard i of n owns.
func shardSlice(ids []int64, batch [][]entity.Attribute, i, n int) (sub []int64, subBatch [][]entity.Attribute) {
	for j, id := range ids {
		if shardOf(id, n) == i {
			sub, subBatch = append(sub, id), append(subBatch, batch[j])
		}
	}
	return sub, subBatch
}

// compatOracle is the in-memory one-shard resolver every fixture must
// answer like.
func compatOracle(t *testing.T, cfg Config) *Resolver {
	ids, batch, deleted := compatEntities()
	oracle := mustOpen(t, cfg, 1)
	oracle.shards[0].insertAssigned(ids, batch, nil)
	oracle.resyncNextID()
	for _, id := range deleted {
		oracle.Delete(id)
	}
	return oracle
}

func sameJSONAnswers(t *testing.T, label string, got, oracle *Resolver) {
	t.Helper()
	for _, opt := range []QueryOptions{{}, {K: 1}, {K: 7}, {Threshold: 0.2}} {
		for _, probe := range probeTexts {
			want, _ := json.Marshal(oracle.Query(attrsText(probe), opt))
			have, _ := json.Marshal(got.Query(attrsText(probe), opt))
			if !bytes.Equal(have, want) {
				t.Fatalf("%s: query %q opt %+v: got %s, want %s", label, probe, opt, have, want)
			}
		}
	}
	if got.Len() != oracle.Len() {
		t.Fatalf("%s: %d entities, want %d", label, got.Len(), oracle.Len())
	}
}

// TestCompatStoreLayouts: -wal directories in the old layouts — both
// storage kinds, 1 and 3 shards — reopen with identical answers, with
// and without a checkpoint behind the WAL tail.
func TestCompatStoreLayouts(t *testing.T) {
	base := testConfigs()["knnj"]
	ids, batch, deleted := compatEntities()
	for _, disk := range []bool{false, true} {
		for _, n := range []int{1, 3} {
			t.Run(fmt.Sprintf("disk=%v/shards=%d", disk, n), func(t *testing.T) {
				cfg := base
				if disk {
					cfg = diskConfig(base, "", 6)
				}
				m := faultfs.NewMem()
				opt := StoreOptions{FS: m}
				for i := 0; i < n; i++ {
					// One standalone one-shard store per shard, at the root
					// for n = 1 and under shard-<i> otherwise.
					st, err := OpenStore(shardDir(storeDir, i, n > 1), cfg, 1, opt)
					if err != nil {
						t.Fatalf("writing shard %d: %v", i, err)
					}
					sub, subBatch := shardSlice(ids, batch, i, n)
					half := len(sub) / 2
					if err := st.shards[0].insertAssigned(sub[:half], subBatch[:half]); err != nil {
						t.Fatal(err)
					}
					if err := st.Checkpoint(); err != nil {
						t.Fatal(err)
					}
					if err := st.shards[0].insertAssigned(sub[half:], subBatch[half:]); err != nil {
						t.Fatal(err)
					}
					for _, id := range deleted {
						if shardOf(id, n) == i {
							if ok, err := st.Delete(id); !ok || err != nil {
								t.Fatalf("delete %d: %v %v", id, ok, err)
							}
						}
					}
					// No Close: the tail stays in the WAL, as after a crash.
				}
				if n > 1 {
					if err := faultfs.WriteFileAtomic(m, storeDir, "SHARDS.tmp", shardMetaName, func(w io.Writer) error {
						_, err := fmt.Fprintf(w, "%d\n", n)
						return err
					}); err != nil {
						t.Fatal(err)
					}
				}
				m.Crash()
				m.Restart(func(string, int) int { return 0 })

				st, err := OpenStore(storeDir, cfg, n, opt)
				if err != nil {
					t.Fatalf("reopening the old layout: %v", err)
				}
				defer st.Close()
				sameJSONAnswers(t, "reopened", st.Resolver(), compatOracle(t, base))
				id, err := st.Insert(attrsText("fresh after reopen"))
				if err != nil || id != int64(len(ids)) {
					t.Fatalf("insert after reopen: id=%d err=%v, want id %d", id, err, len(ids))
				}
			})
		}
	}
}

// TestCompatSegmentDirLayouts: volatile -segment-dir tiers in the old
// layouts (root for one shard, shard-<i> for three) reopen with
// identical answers.
func TestCompatSegmentDirLayouts(t *testing.T) {
	base := testConfigs()["epsjoin"]
	ids, batch, deleted := compatEntities()
	for _, n := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			root := t.TempDir()
			for i := 0; i < n; i++ {
				r := mustOpen(t, diskConfig(base, shardDir(root, i, n > 1), 5), 1)
				sub, subBatch := shardSlice(ids, batch, i, n)
				r.shards[0].insertAssigned(sub, subBatch, nil)
				for _, id := range deleted {
					if shardOf(id, n) == i && !r.Delete(id) {
						t.Fatalf("delete %d", id)
					}
				}
				if err := r.Flush(); err != nil {
					t.Fatal(err)
				}
				if err := r.Close(); err != nil {
					t.Fatal(err)
				}
			}
			r := mustOpen(t, diskConfig(base, root, 5), n)
			defer r.Close()
			sameJSONAnswers(t, "reopened", r, compatOracle(t, base))
			if id := r.Insert(attrsText("fresh after reopen")); id != int64(len(ids)) {
				t.Fatalf("insert after reopen assigned id %d, want %d", id, len(ids))
			}
		})
	}
}

// TestCompatSnapshotFile: the snapshot stream is one format at every
// shard count — a one-shard save and a three-shard save of the same
// collection are the same bytes, and either loads at 1 or 3 shards, in
// memory or onto disk, with identical answers.
func TestCompatSnapshotFile(t *testing.T) {
	cfg := testConfigs()["knnj"]
	oracle := compatOracle(t, cfg)
	var one bytes.Buffer
	if err := oracle.Save(&one); err != nil {
		t.Fatal(err)
	}
	three, err := Load(bytes.NewReader(one.Bytes()), Config{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	var resaved bytes.Buffer
	if err := three.Save(&resaved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(one.Bytes(), resaved.Bytes()) {
		t.Fatal("a 3-shard save differs from the 1-shard save of the same collection")
	}
	for _, n := range []int{1, 3} {
		mem, err := Load(bytes.NewReader(one.Bytes()), Config{}, n)
		if err != nil {
			t.Fatal(err)
		}
		sameJSONAnswers(t, fmt.Sprintf("memory load at %d shards", n), mem, oracle)
		disk, err := Load(bytes.NewReader(one.Bytes()), diskConfig(Config{}, filepath.Join(t.TempDir(), "seg"), 6), n)
		if err != nil {
			t.Fatal(err)
		}
		sameJSONAnswers(t, fmt.Sprintf("disk load at %d shards", n), disk, oracle)
		if err := disk.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCompatHNSWSaveGolden pins a one-shard HNSW save — entity section
// plus the embedded graph — to the exact bytes the single-resolver Save
// wrote before the unification (SHA-256 recorded from that commit).
func TestCompatHNSWSaveGolden(t *testing.T) {
	const wantLen, wantSum = 20103, "25f8c05bff1e71fa3695ca8e9be70f82be9d1a083537b2f629733f04a81de607"
	r := mustOpen(t, testConfigs()["hnsw"], 1)
	for i := 0; i < 60; i++ {
		r.Insert(attrsText(fmt.Sprintf("%s golden %d", corpus[i%len(corpus)], i)))
	}
	for _, id := range []int64{3, 17, 59} {
		r.Delete(id)
	}
	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); buf.Len() != wantLen || got != wantSum {
		t.Fatalf("one-shard HNSW save is %d bytes, sha256 %s; want %d bytes, %s", buf.Len(), got, wantLen, wantSum)
	}
}

// goldenAttrs has an empty name, an empty value and multi-byte text.
var goldenAttrs = []entity.Attribute{{Name: "name", Value: "canon powershot a540"}, {Name: "", Value: "résumé 履歴書"}, {Name: "empty", Value: ""}}

// goldenWALSegment is the first WAL segment of a store that has logged
// inserts, a delete and a term record — the three payloads — read back
// before any checkpoint rotates it away.
func goldenWALSegment(t testing.TB) []byte {
	t.Helper()
	m := faultfs.NewMem()
	st, err := OpenStore(storeDir, testConfigs()["knnj"], 1, StoreOptions{FS: m})
	if err != nil {
		t.Fatal(err)
	}
	batch := [][]entity.Attribute{
		goldenAttrs,
		nil,
		attrsText("nikon coolpix p100"),
	}
	if _, err := st.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}
	if ok, err := st.Delete(1); !ok || err != nil {
		t.Fatalf("delete: %v %v", ok, err)
	}
	if err := st.Promote(3); err != nil {
		t.Fatal(err)
	}
	data, err := faultfs.ReadFile(m, filepath.Join(storeDir, "wal-0000000000000001.seg"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// goldenConfig exercises every serialized Config field with a value a
// zeroed byte would not reproduce.
func goldenConfig() Config {
	return Config{
		Method: FlatKNN, Setting: entity.SchemaBased, Clean: true, Metric: knn.L2Squared,
		K: 7, Threshold: 0.375, Dim: 48, BestAttribute: "title",
		Dense: DenseHNSW, HNSW: knn.HNSWParams{M: 12, EfConstruction: 90, EfSearch: 33, Seed: 0xfeedface},
	}
}

// TestCompatGoldenBytes pins the formats this package writes to the
// exact bytes the hand-copied codecs wrote before internal/frame
// replaced them (SHA-256 and length recorded by running these same
// generators at that commit; the segment package pins ERSEG and ERMAN,
// TestCompatHNSWSaveGolden the ERSNAP+ERHNSW pair).
func TestCompatGoldenBytes(t *testing.T) {
	var snap bytes.Buffer
	if err := compatOracle(t, testConfigs()["knnj"]).Save(&snap); err != nil {
		t.Fatal(err)
	}
	cfgMeta, err := encodeConfigMeta(goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct {
		name    string
		data    []byte
		wantLen int
		wantSum string
	}{
		{"ERSNAP sparse", snap.Bytes(), 2491, "9648366d29d6127a81f8cc2a7d817d909a9148a02c4dc449cf3456ef49f5452b"},
		{"ERCFG", cfgMeta, 64, "4b87e02e2fd61be52dd5365bd764abdc5dbed89bd2cbf253f678d397b99a7767"},
		{"WAL segment", goldenWALSegment(t), 205, "9f270366ed06c9119b1e7257787b2f38d5b29eb1886218ecf1b30a417440e907"},
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256(g.data)); len(g.data) != g.wantLen || got != g.wantSum {
			t.Errorf("%s is %d bytes, sha256 %s; want %d bytes, %s", g.name, len(g.data), got, g.wantLen, g.wantSum)
		}
	}
}

// TestPayloadCodecAllocations: a WAL record costs one allocation to
// encode — the record itself, sized up front — and a replayed one two:
// the attribute slice and one string holding every name and value. The
// encoders once built a 4 KiB bufio.Writer over a bytes.Buffer (and ran a
// checksum nobody read) per record, the decoders a 4 KiB bufio.Reader.
func TestPayloadCodecAllocations(t *testing.T) {
	attrs := goldenAttrs
	var rec []byte
	if allocs := testing.AllocsPerRun(200, func() { rec = encodeInsert(7, attrs) }); allocs != 1 {
		t.Fatalf("encodeInsert made %v allocations, want 1", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() { _, _, _ = decodeInsert(rec) }); allocs != 2 {
		t.Fatalf("decodeInsert made %v allocations, want 2 (the slice and one string)", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() { rec = encodeU64(7) }); allocs != 1 {
		t.Fatalf("encodeU64 made %v allocations, want 1", allocs)
	}
}
