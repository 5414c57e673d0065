package online

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"erfilter/internal/entity"
	"erfilter/internal/faultfs"
	"erfilter/internal/frame"
)

// ingestSeed returns n entities whose texts keep introducing tokens the
// index has not seen, so vocabulary ids and posting-table growth depend
// on commit order all the way through the batch.
func ingestSeed(n int) [][]entity.Attribute {
	seed := make([][]entity.Attribute, n)
	for i := range seed {
		seed[i] = attrsText(fmt.Sprintf("%s item %d lot %x", corpus[i%len(corpus)], i, uint32(i)*2654435761))
	}
	return seed
}

// ingestSizes straddle the pipeline's chunk boundaries: nothing, one
// inline write, one chunk less one, exactly one, one more, and several
// chunks with a ragged tail.
var ingestSizes = []int{0, 1, ingestChunk - 1, ingestChunk, ingestChunk + 1, 3*ingestChunk + 7}

func saveBytes(t *testing.T, r *Resolver) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	return buf.Bytes()
}

// sameState asserts got saves to exactly want and answers every probe —
// the fixed texts plus a sample of the resident entities themselves —
// like the oracle.
func sameState(t *testing.T, label string, got, oracle *Resolver, want []byte, seed [][]entity.Attribute) {
	t.Helper()
	if !bytes.Equal(saveBytes(t, got), want) {
		t.Fatalf("%s: Save output differs from the bulk-loaded resolver's", label)
	}
	sameAnswers(t, label, got, oracle)
	for i := 0; i < len(seed); i += 37 {
		if g, w := got.Query(seed[i], QueryOptions{}), oracle.Query(seed[i], QueryOptions{}); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: query for entity %d diverged: %v, want %v", label, i, g, w)
		}
	}
}

// sameIndex asserts the write-side indexes are equal shard for shard:
// vocabulary ids and slot order (or the exact dense index's vector
// order), which Save never records and sorted answers cannot show. An
// HNSW graph is pinned by its Save section instead.
func sameIndex(t *testing.T, label string, got, want *Resolver) {
	t.Helper()
	for i, w := range want.shards {
		g := got.shards[i]
		if w.sp != nil && !(reflect.DeepEqual(g.vocab.dict, w.vocab.dict) && reflect.DeepEqual(g.sp, w.sp)) {
			t.Fatalf("%s: shard %d assigned vocabulary ids or slots in a different order", label, i)
		}
		if _, flat := w.kn.(flatDense); flat && !reflect.DeepEqual(g.kn, w.kn) {
			t.Fatalf("%s: shard %d holds its vectors in a different order", label, i)
		}
	}
}

// eachIngestCell runs fn over {KNNJoin, EpsJoin, FlatKNN x flat, FlatKNN x
// hnsw} x shards {1, 3} x {memory, disk}. A disk tier serves the exact
// dense index only, so hnsw x disk is not a cell.
func eachIngestCell(t *testing.T, fn func(t *testing.T, base Config, shards int, disk bool)) {
	for name, base := range testConfigs() {
		for _, shards := range []int{1, 3} {
			for _, disk := range []bool{false, true} {
				if disk && base.Dense == DenseHNSW {
					continue
				}
				t.Run(fmt.Sprintf("%s/shards=%d/disk=%v", name, shards, disk), func(t *testing.T) {
					fn(t, base, shards, disk)
				})
			}
		}
	}
}

// TestBulkIngestEqualsOneByOne: a batch through the prepare → commit
// pipeline, one Insert per entity, and a Load of the batch's Save leave
// byte-identical Save output and identical answers, at every batch size
// around the chunk boundaries. The disk cells flush mid-batch (memtable
// cap 100), which is where the volatile path cuts its pipeline runs.
func TestBulkIngestEqualsOneByOne(t *testing.T) {
	eachIngestCell(t, func(t *testing.T, base Config, shards int, disk bool) {
		storage := func() Config {
			if !disk {
				return Config{}
			}
			return diskConfig(Config{}, t.TempDir(), 100)
		}
		open := func() *Resolver {
			cfg := base
			if disk {
				cfg = diskConfig(base, t.TempDir(), 100)
			}
			r := mustOpen(t, cfg, shards)
			t.Cleanup(func() { r.Close() })
			return r
		}
		for _, n := range ingestSizes {
			seed := ingestSeed(n)
			bulk := open()
			bulk.InsertBatch(seed)
			want := saveBytes(t, bulk)

			single := open()
			for _, e := range seed {
				single.Insert(e)
			}
			sameState(t, fmt.Sprintf("n=%d one by one", n), single, bulk, want, seed)
			sameIndex(t, fmt.Sprintf("n=%d one by one", n), single, bulk)

			loaded, err := Load(bytes.NewReader(want), storage(), shards)
			if err != nil {
				t.Fatalf("n=%d: load: %v", n, err)
			}
			t.Cleanup(func() { loaded.Close() })
			sameState(t, fmt.Sprintf("n=%d loaded", n), loaded, bulk, want, seed)
			sameIndex(t, fmt.Sprintf("n=%d loaded", n), loaded, bulk)
		}
	})
}

// TestStoreBulkInsertCrashReplaysTheSameState is the durable twin: a
// multi-chunk Store.InsertBatch is logged record for record like one
// Insert per entity, and a crash right after the ack replays to the
// state the batch left — same Save bytes, same answers.
func TestStoreBulkInsertCrashReplaysTheSameState(t *testing.T) {
	seed := ingestSeed(ingestSizes[len(ingestSizes)-1])
	eachIngestCell(t, func(t *testing.T, cfg Config, shards int, disk bool) {
		if disk {
			cfg = diskConfig(cfg, "", 100) // the store derives the segment dir
		}
		open := func(m *faultfs.Mem) *Store {
			s, err := OpenStore(storeDir, cfg, shards, StoreOptions{FS: m})
			if err != nil {
				t.Fatalf("open store: %v", err)
			}
			return s
		}
		m := faultfs.NewMem()
		s := open(m)
		if _, err := s.InsertBatch(seed); err != nil {
			t.Fatalf("bulk insert: %v", err)
		}
		want := saveBytes(t, s.Resolver())

		one := open(faultfs.NewMem())
		defer one.Close()
		for _, e := range seed {
			if _, err := one.Insert(e); err != nil {
				t.Fatalf("insert: %v", err)
			}
		}
		sameState(t, "one by one", one.Resolver(), s.Resolver(), want, seed)

		m.Crash()
		m.Restart(nil) // every acknowledged byte was fsynced; the rest is gone
		recovered := open(m)
		defer recovered.Close()
		sameState(t, "crash-reopened", recovered.Resolver(), one.Resolver(), want, seed)
		if !disk { // a disk store's memtable holds whatever its last flush left behind
			sameIndex(t, "one by one", one.Resolver(), s.Resolver())
			sameIndex(t, "crash-reopened", recovered.Resolver(), s.Resolver())
		}
	})
}

// TestStoreBulkInsertDegradedMidBatch fails a WAL append in the third
// chunk of a batch (a record over the log's size bound — the one append
// error that needs no broken disk). The store must degrade, acknowledge
// nothing and publish nothing: no entity of the batch is visible, from
// the logged chunks or the un-logged ones. Whatever prefix of the staged
// records a later close happens to flush is all a restart may find.
func TestStoreBulkInsertDegradedMidBatch(t *testing.T) {
	cfg := testConfigs()["epsjoin"]
	cfg.Setting, cfg.BestAttribute = entity.SchemaBased, "text" // the oversized attribute is stored, not indexed
	seed := ingestSeed(3*ingestChunk + 7)
	bad := 2*ingestChunk + 5
	for blob := strings.Repeat("x", frame.MaxStr); 8+frame.AttrsLen(seed[bad]) < 1<<26; {
		// Every value passes the entry check; together they outgrow a record.
		seed[bad] = append(seed[bad], entity.Attribute{Name: "blob", Value: blob})
	}

	m := faultfs.NewMem()
	s := mustOpenStore(t, m, cfg, StoreOptions{})
	if _, err := s.InsertBatch(seed); err == nil || errors.Is(err, ErrDegraded) {
		t.Fatalf("oversized record mid-batch: err = %v, want the append failure", err)
	}
	if ok, reason := s.Ready(); ok || reason == nil {
		t.Fatalf("store not degraded after a failed append: %v %v", ok, reason)
	}
	if n := s.Resolver().Len(); n != 0 {
		t.Fatalf("%d entities of an unacknowledged batch are visible", n)
	}
	for _, i := range []int{0, ingestChunk, bad - 1, bad + 1} {
		if got := s.Resolver().Query(seed[i][:1], QueryOptions{}); len(got) != 0 {
			t.Fatalf("entity %d of an unacknowledged batch answers a query: %v", i, got)
		}
	}
	if _, err := s.Insert(attrsText("still rejected")); !errors.Is(err, ErrDegraded) {
		t.Fatalf("insert while degraded: %v", err)
	}
	s.Close()

	m.Restart(nil)
	s2 := mustOpenStore(t, m, cfg, StoreOptions{})
	defer s2.Close()
	ids := s2.Resolver().IDs()
	if len(ids) > bad {
		t.Fatalf("recovered %d entities, but only %d records were ever staged", len(ids), bad)
	}
	for i, id := range ids {
		if id != int64(i) {
			t.Fatalf("recovered ids %v are not a prefix of the batch", ids)
		}
	}
}
