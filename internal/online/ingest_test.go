package online

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"erfilter/internal/entity"
	"erfilter/internal/faultfs"
	"erfilter/internal/frame"
	"erfilter/internal/metrics"
	"erfilter/internal/text"
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
// cap 100), which is where the volatile path cuts its pipeline runs. It
// runs at GOMAXPROCS 4 whatever the host has, so the bulk side's prepare
// is the parallel one — for the dense cells, four filling embedders
// racing on one table.
func TestBulkIngestEqualsOneByOne(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
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

// TestDeletePathsAgree drives the four cases of a delete — an entity in
// the memtable, one a flush moved to the segment tier, an id that was
// never there, and one already tombstoned in the tier — through the three
// callers of removeLocked: the volatile shard, the durable store (which
// logs before it applies, and never logs a non-resident id) and a replay
// of that store's log after a crash. All three must report the same
// residency and end in the same state — Save bytes, delete count,
// tombstone count — on memory and on disk, where the same ids exercise
// only the memtable cases.
func TestDeletePathsAgree(t *testing.T) {
	seed := ingestSeed(6)
	deletes := []struct {
		id   int64
		want bool
		what string
	}{
		{5, true, "in the memtable"},
		{1, true, "in the first flush's segment on disk"},
		{99, false, "absent"},
		{1, false, "already tombstoned"},
	}
	type outcome struct {
		save             []byte
		deletes          uint64
		tombstones, live int
	}
	observe := func(r *Resolver) outcome {
		var buf bytes.Buffer
		if err := r.Save(&buf); err != nil {
			t.Fatalf("Save: %v", err)
		}
		st := r.Stats()
		return outcome{buf.Bytes(), st.Deletes, st.Tombstones, st.Entities}
	}
	var first *outcome
	for _, disk := range []bool{false, true} {
		cfg := testConfigs()["knnj"]
		if disk {
			cfg = diskConfig(cfg, "", 4) // the fourth insert flushes ids 0..3
		}
		outcomes := map[string]outcome{}

		vcfg := cfg
		if disk {
			vcfg.SegmentDir = t.TempDir()
		}
		vol := mustOpen(t, vcfg, 1)
		defer vol.Close()
		for _, attrs := range seed {
			vol.Insert(attrs)
		}
		for _, d := range deletes {
			if got := vol.Delete(d.id); got != d.want {
				t.Fatalf("disk=%v volatile: Delete(%d) = %v, want %v (%s)", disk, d.id, got, d.want, d.what)
			}
		}
		outcomes["volatile"] = observe(vol)

		m := faultfs.NewMem()
		s := mustOpenStore(t, m, cfg, StoreOptions{})
		for i, attrs := range seed {
			if _, err := s.Insert(attrs); err != nil {
				t.Fatal(err)
			}
			if i == 3 {
				if err := s.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, d := range deletes {
			if got, err := s.Delete(d.id); err != nil || got != d.want {
				t.Fatalf("disk=%v durable: Delete(%d) = %v, %v, want %v (%s)", disk, d.id, got, err, d.want, d.what)
			}
		}
		outcomes["durable"] = observe(s.Resolver())
		if n := s.Stats().PerShard[0].WAL.Appended; n != 8 { // six inserts, the deletes of 5 and 1
			t.Fatalf("disk=%v: %d records logged, want 8: a delete of a non-resident id must not reach the log", disk, n)
		}

		m.Crash() // no Close: a close would checkpoint the deletes away
		m.Restart(nil)
		s2 := mustOpenStore(t, m, cfg, StoreOptions{})
		defer s2.Close()
		outcomes["replayed"] = observe(s2.Resolver())

		for path, got := range outcomes {
			if first == nil {
				first = &got
			}
			if !bytes.Equal(got.save, first.save) || got.deletes != 2 || got.tombstones != 2 || got.live != 4 {
				t.Errorf("disk=%v %s: %d Save bytes (equal to the first path's: %v), %d deletes, %d tombstones, %d live; want 2, 2, 4",
					disk, path, len(got.save), bytes.Equal(got.save, first.save), got.deletes, got.tombstones, got.live)
			}
		}
		if disk {
			if seg, _ := tierSize(vol); seg != 1 {
				t.Fatalf("the volatile disk shard holds %d segments, want the 1 that makes id 1 tier-resident", seg)
			}
		}
	}
}

// tableWords reads the online_embed_table_words gauge off a scrape.
func tableWords(t *testing.T, r *Resolver) int {
	t.Helper()
	reg := metrics.NewRegistry()
	r.RegisterMetrics(reg)
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := metrics.ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := metrics.Find(samples, "online_embed_table_words", nil)
	if !ok {
		t.Fatal("no online_embed_table_words series")
	}
	return int(v)
}

// distinctWords counts the distinct words of the batch's texts.
func distinctWords(cfg Config, batch [][]entity.Attribute) int {
	seen := map[string]bool{}
	for _, e := range batch {
		for _, w := range text.Tokenize(cfg.normalize().TextOf(e)) {
			seen[w] = true
		}
	}
	return len(seen)
}

// TestDenseTableSharedAcrossShards: the word-vector table is the
// resolver's, so three shards hold the batch's vocabulary once, not once
// per shard — through Open, through Load, and through a store whose three
// shards replay their logs, or load their checkpoints, at once.
func TestDenseTableSharedAcrossShards(t *testing.T) {
	cfg := testConfigs()["flat"]
	seed := ingestSeed(2*ingestChunk + 7) // "item" and "lot" are in every entity of every shard
	want := distinctWords(cfg, seed)

	r := mustOpen(t, cfg, 3)
	r.InsertBatch(seed)
	if got := tableWords(t, r); got != want {
		t.Fatalf("3-shard resolver: table holds %d words, the batch has %d distinct", got, want)
	}
	loaded, err := Load(bytes.NewReader(saveBytes(t, r)), Config{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := tableWords(t, loaded); got != want {
		t.Fatalf("loaded resolver: table holds %d words, the batch has %d distinct", got, want)
	}

	m := faultfs.NewMem()
	s, err := OpenStore(storeDir, cfg, 3, StoreOptions{FS: m})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.InsertBatch(seed); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	m.Restart(nil)
	for _, how := range []string{"replayed from three logs", "loaded from three checkpoints"} {
		if s, err = OpenStore(storeDir, cfg, 3, StoreOptions{FS: m}); err != nil {
			t.Fatal(err)
		}
		if got := tableWords(t, s.Resolver()); got != want {
			t.Fatalf("store %s: table holds %d words, the batch has %d distinct", how, got, want)
		}
		if err := s.Close(); err != nil { // checkpoints every shard
			t.Fatal(err)
		}
	}
	if got := tableWords(t, mustOpen(t, testConfigs()["knnj"], 3)); got != 0 {
		t.Fatalf("a sparse resolver's table holds %d words", got)
	}
}

// TestReaderNeverFillsTable: queries read the table and never write it —
// 10 000 queries of words no entity has leave it at the vocabulary the
// inserts put there, where a caching query side grew by a word per typo
// for as long as the daemon ran.
func TestReaderNeverFillsTable(t *testing.T) {
	for _, name := range []string{"flat", "hnsw"} {
		r := mustOpen(t, testConfigs()[name], 2)
		seed := ingestSeed(50)
		r.InsertBatch(seed)
		want := tableWords(t, r)
		if want != distinctWords(r.cfg, seed) {
			t.Fatalf("%s: table holds %d words after the inserts, the batch has %d distinct", name, want, distinctWords(r.cfg, seed))
		}
		for i := 0; i < 10000; i++ {
			if got := r.Query(attrsText(fmt.Sprintf("canon typo%d", i)), QueryOptions{}); len(got) == 0 {
				t.Fatalf("%s: query %d found nothing", name, i)
			}
		}
		if got := tableWords(t, r); got != want {
			t.Fatalf("%s: table grew from %d to %d words over 10 000 queries", name, want, got)
		}
	}
}
