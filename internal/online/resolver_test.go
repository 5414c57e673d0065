package online

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"erfilter/internal/core"
	"erfilter/internal/entity"
	"erfilter/internal/hit"
	"erfilter/internal/knn"
	"erfilter/internal/sparse"
	"erfilter/internal/text"
	"erfilter/internal/tuning"
	"erfilter/internal/vector"
)

func attrsText(s string) []entity.Attribute {
	return []entity.Attribute{{Name: "text", Value: s}}
}

// mustOpen opens an n-shard resolver under cfg or fails the test.
func mustOpen(tb testing.TB, cfg Config, n int) *Resolver {
	tb.Helper()
	r, err := Open(cfg, n)
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

func testConfigs() map[string]Config {
	c3g, _ := text.ParseModel("C3G")
	return map[string]Config{
		"knnj":    {Method: KNNJoin, Model: c3g, Measure: sparse.Cosine, K: 2, Clean: true},
		"epsjoin": {Method: EpsJoin, Model: c3g, Measure: sparse.Jaccard, Threshold: 0.3, Clean: true},
		"flat":    {Method: FlatKNN, K: 2, Metric: knn.L2Squared, Dim: 32},
		"hnsw":    {Method: FlatKNN, K: 2, Metric: knn.L2Squared, Dim: 32, Dense: DenseHNSW, HNSW: knn.HNSWParams{Seed: 1}},
	}
}

var corpus = []string{
	"canon powershot a540 digital camera",
	"nikon coolpix p100 bridge camera",
	"sony cybershot dsc w55 compact",
	"apple ipod nano 4gb silver",
	"samsung galaxy buds wireless earbuds",
}

func TestResolverBasicQuery(t *testing.T) {
	for name, cfg := range testConfigs() {
		t.Run(name, func(t *testing.T) {
			r := mustOpen(t, cfg, 1)
			ids := make([]int64, len(corpus))
			for i, s := range corpus {
				ids[i] = r.Insert(attrsText(s))
			}
			got := r.Query(attrsText("canon power shot a540 camera"), QueryOptions{})
			if len(got) == 0 {
				t.Fatal("no candidates")
			}
			if got[0].ID != ids[0] {
				t.Fatalf("top candidate = %d, want %d (all: %v)", got[0].ID, ids[0], got)
			}
			for i := 1; i < len(got); i++ {
				if got[i].Score > got[i-1].Score {
					t.Fatalf("candidates not sorted best-first: %v", got)
				}
			}
		})
	}
}

func TestResolverDeleteHidesEntity(t *testing.T) {
	for name, cfg := range testConfigs() {
		t.Run(name, func(t *testing.T) {
			r := mustOpen(t, cfg, 1)
			var ids []int64
			for _, s := range corpus {
				ids = append(ids, r.Insert(attrsText(s)))
			}
			query := attrsText("canon powershot a540 digital camera")
			if got := r.Query(query, QueryOptions{}); len(got) == 0 || got[0].ID != ids[0] {
				t.Fatalf("precondition failed: %v", got)
			}
			if !r.Delete(ids[0]) {
				t.Fatal("delete failed")
			}
			if r.Delete(ids[0]) {
				t.Fatal("double delete must report false")
			}
			for _, c := range r.Query(query, QueryOptions{}) {
				if c.ID == ids[0] {
					t.Fatalf("deleted entity %d still returned", ids[0])
				}
			}
			if _, ok := r.Get(ids[0]); ok {
				t.Fatal("deleted entity still gettable")
			}
		})
	}
}

func TestSnapshotIsolation(t *testing.T) {
	cfg := testConfigs()["knnj"]
	r := mustOpen(t, cfg, 1)
	r.Insert(attrsText(corpus[0]))
	snap := r.Snapshot()
	epoch := snap.Epoch()

	for _, s := range corpus[1:] {
		r.Insert(attrsText(s))
	}
	if snap.Len() != 1 {
		t.Fatalf("old snapshot sees %d entities, want 1", snap.Len())
	}
	if r.Snapshot().Epoch() <= epoch {
		t.Fatalf("epoch did not advance: %d -> %d", epoch, r.Snapshot().Epoch())
	}
	got := snap.Query(attrsText("nikon coolpix"), QueryOptions{})
	for _, c := range got {
		if c.ID != 0 {
			t.Fatalf("old snapshot returned entity %d from a later epoch", c.ID)
		}
	}
}

// TestResolverConcurrent hammers one resolver with concurrent queries,
// inserts, deletes and stats reads; run under -race via `make race`.
// Afterwards a snapshot round-trip pins that the surviving state is
// coherent.
func TestResolverConcurrent(t *testing.T) {
	for name, cfg := range testConfigs() {
		t.Run(name, func(t *testing.T) {
			r := mustOpen(t, cfg, 1)
			for i := 0; i < 50; i++ {
				r.Insert(attrsText(fmt.Sprintf("%s lot %d", corpus[i%len(corpus)], i)))
			}
			const (
				readers = 4
				queries = 150
				writes  = 200
			)
			var wg sync.WaitGroup
			for g := 0; g < readers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < queries; i++ {
						q := attrsText(corpus[(g+i)%len(corpus)])
						snap := r.Snapshot()
						cands := snap.Query(q, QueryOptions{K: 1 + i%3})
						for j := 1; j < len(cands); j++ {
							if cands[j].Score > cands[j-1].Score {
								t.Errorf("unsorted candidates %v", cands)
								return
							}
						}
					}
				}(g)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < writes; i++ {
					id := r.Insert(attrsText(fmt.Sprintf("streamed entity %d widget", i)))
					if i%3 == 0 {
						r.Delete(id - int64(i%2))
					}
					if i%17 == 0 {
						r.Stats()
						r.Get(id)
					}
				}
			}()
			wg.Wait()

			st := r.Stats()
			if st.Entities != r.Len() {
				t.Fatalf("stats entities %d != len %d", st.Entities, r.Len())
			}
			var buf bytes.Buffer
			if err := r.Save(&buf); err != nil {
				t.Fatal(err)
			}
			r2, err := Load(&buf, Config{}, 1)
			if err != nil {
				t.Fatal(err)
			}
			q := attrsText(corpus[0])
			if got, want := r2.Query(q, QueryOptions{}), r.Query(q, QueryOptions{}); !reflect.DeepEqual(got, want) {
				t.Fatalf("loaded resolver answers differently: %v vs %v", got, want)
			}
		})
	}
}

// TestSaveLoadByteIdentical is the acceptance check: Save→Load of a
// populated resolver (including tombstones) returns byte-identical query
// results, and a second Save round-trips byte-identically.
func TestSaveLoadByteIdentical(t *testing.T) {
	queries := [][]entity.Attribute{
		attrsText("canon powershot digital"),
		attrsText("sony compact camera"),
		attrsText("wireless buds"),
		attrsText("zzz no overlap whatsoever qqq"),
	}
	for name, cfg := range testConfigs() {
		t.Run(name, func(t *testing.T) {
			r := mustOpen(t, cfg, 1)
			for i := 0; i < 40; i++ {
				r.Insert(attrsText(fmt.Sprintf("%s variant %d", corpus[i%len(corpus)], i)))
			}
			for i := int64(0); i < 40; i += 3 {
				r.Delete(i)
			}

			answers := func(res *Resolver) []byte {
				var all [][]Candidate
				for _, q := range queries {
					all = append(all, res.Query(q, QueryOptions{K: 5}))
				}
				b, err := json.Marshal(all)
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			before := answers(r)

			var buf bytes.Buffer
			if err := r.Save(&buf); err != nil {
				t.Fatal(err)
			}
			saved := append([]byte(nil), buf.Bytes()...)
			r2, err := Load(&buf, Config{}, 1)
			if err != nil {
				t.Fatal(err)
			}
			after := answers(r2)
			if !bytes.Equal(before, after) {
				t.Fatalf("query results differ after reload:\n%s\nvs\n%s", before, after)
			}

			var buf2 bytes.Buffer
			if err := r2.Save(&buf2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(saved, buf2.Bytes()) {
				t.Fatal("snapshot bytes differ after a save/load/save round-trip")
			}

			// New inserts continue the id sequence without collisions.
			id := r2.Insert(attrsText("fresh arrival"))
			if id != 40 {
				t.Fatalf("next id after reload = %d, want 40", id)
			}
		})
	}
}

// TestSparseQueryMatchesBatchPipeline holds an online query to the batch
// kernels, the reference model, hit for hit: both sides return []hit.Hit,
// so nothing is converted before the comparison. Sparse, it pins the
// query-side normalization: a query containing tokens the index has never
// seen must score exactly as in the batch pipeline, where
// sparse.BuildCorpus encodes both collections with one shared dictionary
// and the query-set size counts every token, seen or not. Dense, a flat
// resolver under either metric answers as knn.Flat does over the same
// embeddings, negated scores included.
func TestSparseQueryMatchesBatchPipeline(t *testing.T) {
	const query = "canon powershot a540 waterproof housing xkzzyq"
	configs := testConfigs()
	delete(configs, "hnsw") // approximate by default; TestANN* hold it to the flat answer
	configs["flat-dp"] = Config{Method: FlatKNN, K: 2, Metric: knn.DotProduct, Dim: 32}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			r := mustOpen(t, cfg, 1)
			texts := make([]string, len(corpus))
			for i, s := range corpus {
				if id := r.Insert(attrsText(s)); id != int64(i) {
					t.Fatalf("entity %d inserted under id %d: batch positions would not be ids", i, id)
				}
				texts[i] = cfg.TextOf(attrsText(s))
			}
			q := cfg.TextOf(attrsText(query))

			var batch []hit.Hit
			if cfg.Method == FlatKNN {
				emb := vector.NewEmbedder(cfg.Dim)
				batch = knn.NewFlat(emb.Texts(texts), cfg.Metric).Search(emb.Text(q), cfg.K)
			} else {
				c := sparse.BuildCorpus(texts, []string{q}, cfg.Model)
				idx := sparse.NewIndex(c.Sets1, c.NumTokens)
				if cfg.Method == EpsJoin {
					batch = idx.RangeQuery(c.Sets2[0], cfg.Measure, cfg.Threshold, &sparse.Scratch{})
					hit.Sort(batch) // a union comes back in no particular order
				} else {
					batch = idx.KNNQuery(c.Sets2[0], cfg.Measure, cfg.K, &sparse.Scratch{})
				}
			}
			if len(batch) == 0 {
				t.Fatal("batch found no hits")
			}

			if got := r.Query(attrsText(query), QueryOptions{}); !reflect.DeepEqual(got, batch) {
				t.Fatalf("online answered %v, batch %v", got, batch)
			}
		})
	}
}

// TestQueryScoresSurviveVocabHistory pins restore invariance: tokens
// introduced only by a since-deleted entity linger in the live vocabulary
// but are forgotten by a Save/Load replay, and query scores must not
// depend on the difference.
func TestQueryScoresSurviveVocabHistory(t *testing.T) {
	cfg := testConfigs()["epsjoin"]
	cfg.Threshold = 0.01
	r := mustOpen(t, cfg, 1)
	r.Insert(attrsText("canon powershot a540"))
	ephemeral := r.Insert(attrsText("waterproof housing kit"))
	if !r.Delete(ephemeral) {
		t.Fatal("delete failed")
	}

	query := attrsText("canon powershot waterproof housing")
	before := r.Query(query, QueryOptions{})
	if len(before) == 0 {
		t.Fatal("query found no candidates")
	}

	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}
	r2, err := Load(&buf, Config{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if after := r2.Query(query, QueryOptions{}); !reflect.DeepEqual(before, after) {
		t.Fatalf("scores changed across save/load: %v vs %v", before, after)
	}
}

// TestLoadRejectsCorruptConfig flips single header bytes to out-of-range
// enum values and expects Load to fail loudly rather than serve them.
func TestLoadRejectsCorruptConfig(t *testing.T) {
	save := func(cfg Config) []byte {
		r := mustOpen(t, cfg, 1)
		r.Insert(attrsText("canon powershot"))
		var buf bytes.Buffer
		if err := r.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	sparseSnap := save(testConfigs()["knnj"])
	flatSnap := save(testConfigs()["flat"])
	// Header layout: 8 bytes magic, then method, setting, clean, model.N,
	// multiset, measure, metric — one byte each.
	cases := []struct {
		name string
		snap []byte
		off  int
	}{
		{"method", sparseSnap, 8},
		{"setting", sparseSnap, 9},
		{"model.N", sparseSnap, 11},
		{"measure", sparseSnap, 13},
		{"metric", flatSnap, 14},
	}
	for _, c := range cases {
		b := append([]byte(nil), c.snap...)
		b[c.off] = 99
		if _, err := Load(bytes.NewReader(b), Config{}, 1); err == nil {
			t.Errorf("%s: snapshot with corrupt byte at %d was accepted", c.name, c.off)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a snapshot")), Config{}, 1); err == nil {
		t.Fatal("garbage input must fail")
	}
	if _, err := Load(bytes.NewReader(nil), Config{}, 1); err == nil {
		t.Fatal("empty input must fail")
	}
}

func TestCompactionTriggers(t *testing.T) {
	cfg := testConfigs()["knnj"]
	r := mustOpen(t, cfg, 1)
	for i := 0; i < 200; i++ {
		r.Insert(attrsText(fmt.Sprintf("%s unit %d", corpus[i%len(corpus)], i)))
	}
	for i := int64(0); i < 150; i++ {
		r.Delete(i)
	}
	st := r.Stats()
	if st.Compactions == 0 {
		t.Fatalf("no compaction after 150 deletes: %+v", st)
	}
	if st.Tombstones >= 150 {
		t.Fatalf("tombstones not reclaimed: %+v", st)
	}
	got := r.Query(attrsText(corpus[0]), QueryOptions{K: 3})
	for _, c := range got {
		if c.ID < 150 {
			t.Fatalf("compacted entity %d still answered", c.ID)
		}
	}
}

func TestFromTuning(t *testing.T) {
	c3gm, _ := text.ParseModel("C3GM")
	cases := []struct {
		filter core.Filter
		want   Method
	}{
		{&core.KNNJoinFilter{Clean: true, Model: c3gm, Measure: sparse.Dice, K: 7}, KNNJoin},
		{&core.EpsJoinFilter{Model: c3gm, Measure: sparse.Jaccard, Threshold: 0.55}, EpsJoin},
		{&core.FlatKNNFilter{Clean: true, K: 4}, FlatKNN},
	}
	for _, c := range cases {
		cfg, err := FromTuning(&tuning.Result{Method: "x", Filter: c.filter}, entity.SchemaAgnostic, "")
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Method != c.want {
			t.Fatalf("method = %v, want %v", cfg.Method, c.want)
		}
	}
	if _, err := FromTuning(&tuning.Result{Method: "pbw", Filter: core.NewPBW()}, entity.SchemaAgnostic, ""); err == nil {
		t.Fatal("blocking workflow must be rejected")
	}
	if _, err := FromTuning(&tuning.Result{}, entity.SchemaAgnostic, ""); err == nil {
		t.Fatal("empty result must be rejected")
	}
}

func TestSchemaBasedTextAssembly(t *testing.T) {
	c3g, _ := text.ParseModel("C3G")
	cfg := Config{
		Method: KNNJoin, Model: c3g, Measure: sparse.Jaccard, K: 1,
		Setting: entity.SchemaBased, BestAttribute: "name",
	}
	r := mustOpen(t, cfg, 1)
	nameID := r.Insert([]entity.Attribute{{Name: "name", Value: "canon a540"}, {Name: "price", Value: "199"}})
	r.Insert([]entity.Attribute{{Name: "name", Value: "different thing"}, {Name: "price", Value: "canon a540"}})
	got := r.Query([]entity.Attribute{{Name: "name", Value: "canon a540"}}, QueryOptions{})
	if len(got) != 1 || got[0].ID != nameID {
		t.Fatalf("schema-based query leaked non-best attributes: %v", got)
	}
}

func TestAttrsFromMapDeterministic(t *testing.T) {
	m := map[string]string{"b": "2", "a": "1", "c": "3"}
	want := []entity.Attribute{{Name: "a", Value: "1"}, {Name: "b", Value: "2"}, {Name: "c", Value: "3"}}
	for i := 0; i < 10; i++ {
		if got := AttrsFromMap(m); !reflect.DeepEqual(got, want) {
			t.Fatalf("got %v", got)
		}
	}
}

func TestParseMethod(t *testing.T) {
	for _, s := range []string{"knnj", "KNN-Join", "epsjoin", "flat", "faiss"} {
		if _, err := ParseMethod(s); err != nil {
			t.Fatalf("%q: %v", s, err)
		}
	}
	if _, err := ParseMethod("pbw"); err == nil {
		t.Fatal("pbw must be rejected")
	}
}
