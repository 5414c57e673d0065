package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"erfilter/internal/datagen"
	"erfilter/internal/entity"
	"erfilter/internal/frame"
	"erfilter/internal/knn"
	"erfilter/internal/online"
	"erfilter/internal/serve"
	"erfilter/internal/sparse"
	"erfilter/internal/text"
)

func testServingConfig() online.Config {
	c3g, _ := text.ParseModel("C3G")
	return online.Config{
		Method: online.KNNJoin, Model: c3g, Measure: sparse.Cosine, K: 3, Clean: true,
	}
}

func writeTaskCSVs(t *testing.T) (e1, e2, truth string) {
	t.Helper()
	dir := t.TempDir()
	task := datagen.Generate(datagen.QuickSpec(20, 40, 12, 5))
	write := func(name string, fn func(f *os.File) error) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := fn(f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	e1 = write("e1.csv", func(f *os.File) error { return entity.WriteCSV(f, task.E1) })
	e2 = write("e2.csv", func(f *os.File) error { return entity.WriteCSV(f, task.E2) })
	truth = write("truth.csv", func(f *os.File) error {
		for _, p := range task.Truth.Pairs() {
			if _, err := fmt.Fprintf(f, "%d,%d\n", p.Left, p.Right); err != nil {
				return err
			}
		}
		return nil
	})
	return e1, e2, truth
}

// baseOptions are the flag defaults the CLI would apply, for tests that
// drive buildState directly.
func baseOptions() options {
	return options{
		method: "knnj", schema: "agnostic", model: "C3G", knnIndex: "flat",
		clean: true, k: 3, threshold: 0.4, target: 0.9, workers: 1, shards: 1,
		storage: "memory", memtableCap: 32768, mergeFanin: 8,
		maxBody: serve.DefaultMaxBody, maxBatch: serve.DefaultMaxBatch, maxLine: serve.DefaultMaxLine,
	}
}

// TestValidateOptions audits the flag validation: every rejected value
// names its flag, and the combinations that cannot work together are
// refused before any file is touched — the CSV and snapshot paths below
// name no file. The rows online.Topology refuses are here for their
// wording (a daemon error names flags); that every layer refuses them
// alike is TestTopologyAgreement's.
func TestValidateOptions(t *testing.T) {
	cases := []struct {
		name string
		mut  func(o *options)
		set  []string
		want string // substring of the error; "" means valid
	}{
		{"defaults", func(o *options) {}, nil, ""},
		{"negative workers", func(o *options) { o.workers = -1 }, nil, "-workers"},
		{"zero shards", func(o *options) { o.shards = 0 }, nil, "-shards"},
		{"hnsw-m zero when set", func(o *options) { o.hnswM = 0 }, []string{"hnsw-m"}, "-hnsw-m"},
		{"hnsw-m zero unset is default", func(o *options) { o.hnswM = 0 }, nil, ""},
		{"hnsw-m above the loader's bound", func(o *options) { o.hnswM = 1025 }, []string{"hnsw-m"}, "-hnsw-m"},
		{"hnsw-m at the loader's bound", func(o *options) { o.hnswM = 1024 }, []string{"hnsw-m"}, ""},
		{"hnsw-efc negative when set", func(o *options) { o.hnswEfC = -4 }, []string{"hnsw-efc"}, "-hnsw-efc"},
		{"hnsw-ef zero when set", func(o *options) { o.hnswEf = 0 }, []string{"hnsw-ef"}, "-hnsw-ef"},
		{"negative checkpoint-every", func(o *options) { o.checkpointEvery = -1 }, nil, "-checkpoint-every"},
		{"zero memtable-cap", func(o *options) { o.memtableCap = 0 }, nil, "-memtable-cap"},
		{"zero max-body", func(o *options) { o.maxBody = 0 }, nil, "-max-body"},
		{"negative max-batch", func(o *options) { o.maxBatch = -1 }, nil, "-max-batch"},
		{"zero max-line", func(o *options) { o.maxLine = 0 }, nil, "-max-line"},
		{"merge-fanin below two", func(o *options) { o.mergeFanin = 1 }, nil, "-merge-fanin"},
		{"unknown storage", func(o *options) { o.storage = "floppy" }, nil, "-storage"},
		{"disk with hnsw index", func(o *options) {
			o.storage, o.method, o.knnIndex = "disk", "flat", "hnsw"
			o.segmentDir = "seg"
		}, nil, "exact"},
		{"volatile disk without segment-dir", func(o *options) { o.storage = "disk" }, nil, "-segment-dir"},
		{"segment-dir with wal", func(o *options) {
			o.storage, o.segmentDir, o.walDir = "disk", "seg", "store"
		}, nil, "conflicts"},
		{"segment-dir without disk", func(o *options) { o.segmentDir = "seg" }, nil, "requires -storage disk"},
		{"durable disk", func(o *options) { o.storage, o.walDir = "disk", "store" }, nil, ""},
		{"volatile disk", func(o *options) { o.storage, o.segmentDir = "disk", "seg" }, nil, ""},
		{"dirty without match", func(o *options) { o.dirty = true }, nil, "-dirty requires -match"},
		{"assign without match", func(o *options) { o.matchAssign = "bipartite" }, []string{"assign"}, "requires -match"},
		{"match-scorer without match", func(o *options) { o.matchScorer = "jaro" }, []string{"match-scorer"}, "requires -match"},
		{"match-t without match", func(o *options) { o.matchT = 0.9 }, []string{"match-t"}, "requires -match"},
		{"unknown assign", func(o *options) { o.matchStage, o.matchAssign = true, "munkres" }, nil, "-assign"},
		{"unknown match scorer", func(o *options) { o.matchStage, o.matchScorer = true, "tfidf" }, nil, "-match-scorer"},
		{"match-t out of range", func(o *options) { o.matchStage, o.matchT = true, 1.5 }, nil, "-match-t"},
		{"match with dirty", func(o *options) { o.matchStage, o.dirty = true, true }, nil, ""},
		{"match bipartite", func(o *options) {
			o.matchStage, o.matchAssign, o.matchScorer, o.matchT = true, "bipartite", "levenshtein", 0.9
		}, nil, ""},
		{"unknown method", func(o *options) { o.method = "pbw" }, nil, "-method"},
		{"unknown knn-index", func(o *options) { o.method, o.knnIndex = "flat", "annoy" }, nil, "-knn-index"},
		{"hnsw under a sparse method, before the tune", func(o *options) {
			o.knnIndex, o.bulk, o.tuneCSV, o.truthCSV = "hnsw", "a.csv", "b.csv", "gt.csv"
		}, nil, "requires -method flat"},
		{"tune without truth", func(o *options) { o.bulk, o.tuneCSV = "a.csv", "b.csv" }, nil, "-tune requires"},
		{"tune without bulk", func(o *options) { o.tuneCSV, o.truthCSV = "b.csv", "gt.csv" }, nil, "-tune requires"},
		{"tuned startup", func(o *options) { o.bulk, o.tuneCSV, o.truthCSV = "a.csv", "b.csv", "gt.csv" }, nil, ""},
		{"load with bulk", func(o *options) { o.load, o.bulk = "s.snap", "a.csv" }, nil, "drop -bulk/-tune"},
		{"load with tune", func(o *options) { o.load, o.tuneCSV = "s.snap", "b.csv" }, nil, "drop -bulk/-tune"},
		{"load with wal", func(o *options) { o.load, o.walDir = "s.snap", "store" }, nil, "mutually exclusive"},
		{"load overrides the config flags", func(o *options) { o.load, o.method, o.knnIndex = "s.snap", "pbw", "hnsw" }, nil, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := baseOptions()
			tc.mut(&o)
			set := map[string]bool{}
			for _, name := range tc.set {
				set[name] = true
			}
			err := validateOptions(o, set)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("valid options rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

// TestReplFlagValidation audits the replication flag combinations: a
// replicated node needs a single-sharded durable store (of either
// storage kind), follower flags exclude leader flags, and -proxy
// excludes the whole resolver surface.
func TestReplFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(o *options)
		want string // substring of the error; "" means valid
	}{
		{"follower without wal", func(o *options) { o.replicaOf = "http://leader" }, "set -wal"},
		{"replication with shards", func(o *options) {
			o.walDir, o.lease, o.shards = "store", "shared/leader.lease", 4
		}, "-shards 1"},
		{"follower with bulk", func(o *options) {
			o.walDir, o.follow, o.bulk = "store", true, "seed.csv"
		}, "drop -bulk"},
		{"follower with repl-ack", func(o *options) {
			o.walDir, o.replicaOf, o.replAck = "store", "http://leader", 1
		}, "leader flag"},
		{"proxy with resolver flags", func(o *options) {
			o.proxy, o.walDir = "http://a,http://b", "store"
		}, "router"},
		{"proxy with match", func(o *options) {
			o.proxy, o.matchStage = "http://a,http://b", true
		}, "router"},
		{"proxy with dirty", func(o *options) { o.proxy, o.dirty = "http://a,http://b", true }, "router"},
		{"dirty follower", func(o *options) {
			o.walDir, o.follow, o.matchStage, o.dirty = "store", true, true, true
		}, "drop -dirty"},
		{"matching follower", func(o *options) {
			o.walDir, o.follow, o.matchStage = "store", true, true
		}, ""},
		{"proxy alone", func(o *options) { o.proxy = "http://a,http://b" }, ""},
		{"leader with lease and acks", func(o *options) {
			o.walDir, o.lease, o.replAck = "store", "shared/leader.lease", 1
		}, ""},
		{"follower awaiting re-parent", func(o *options) { o.walDir, o.follow = "store", true }, ""},
		{"disk follower", func(o *options) {
			o.walDir, o.replicaOf, o.storage = "store", "http://leader", "disk"
		}, ""},
		{"disk leader", func(o *options) {
			o.walDir, o.lease, o.storage = "store", "shared/leader.lease", "disk"
		}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := baseOptions()
			tc.mut(&o)
			err := validateOptions(o, map[string]bool{})
			if tc.want == "" {
				if err != nil {
					t.Fatalf("valid options rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

// TestBuildStatePaths covers the volatile startup paths: bulk CSV load,
// tuned startup, snapshot resume (single and sharded) and what -load
// excludes.
func TestBuildStatePaths(t *testing.T) {
	e1, e2, truth := writeTaskCSVs(t)

	o := baseOptions()
	o.bulk = e1
	st, err := buildState(o)
	if err != nil {
		t.Fatal(err)
	}
	if st.res.Len() != 20 || st.store != nil {
		t.Fatalf("bulk load: %d entities, store=%v", st.res.Len(), st.store)
	}

	tunedOpt := baseOptions()
	tunedOpt.bulk, tunedOpt.tuneCSV, tunedOpt.truthCSV = e1, e2, truth
	tuned, err := buildState(tunedOpt)
	if err != nil {
		t.Fatal(err)
	}
	if tuned.res.Len() != 20 {
		t.Fatalf("tuned load: %d entities", tuned.res.Len())
	}
	if !strings.Contains(tuned.res.Config().Describe(), "method=knnj") {
		t.Fatalf("tuned config: %s", tuned.res.Config().Describe())
	}

	snapPath := filepath.Join(t.TempDir(), "resolver.snap")
	if err := st.res.SaveFile(nil, snapPath); err != nil {
		t.Fatal(err)
	}
	resumed, err := buildState(options{load: snapPath, shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.res.Len() != st.res.Len() {
		t.Fatalf("resumed %d entities, want %d", resumed.res.Len(), st.res.Len())
	}
	// The same snapshot loads into a sharded resolver and keeps every
	// entity; its own snapshot round-trips back.
	shardedResume, err := buildState(options{load: snapPath, shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if shardedResume.res.Len() != st.res.Len() {
		t.Fatalf("sharded resume: %d entities, want %d", shardedResume.res.Len(), st.res.Len())
	}
	reSnap := filepath.Join(t.TempDir(), "sharded.snap")
	if err := shardedResume.res.SaveFile(nil, reSnap); err != nil {
		t.Fatal(err)
	}

	// Sharded bulk load from flags.
	so := baseOptions()
	so.bulk, so.shards = e1, 3
	sst, err := buildState(so)
	if err != nil {
		t.Fatal(err)
	}
	if sst.res.Len() != 20 {
		t.Fatalf("sharded bulk load: %d entities", sst.res.Len())
	}

	bad := baseOptions()
	bad.bulk, bad.method = e1, "pbw"
	if _, err := buildState(bad); err == nil {
		t.Fatal("unservable method must error")
	}
	// -load resumes what was saved: seed flags beside it used to be
	// dropped without a word (st above served the snapshot, not e2).
	seeded := baseOptions()
	seeded.load, seeded.bulk = snapPath, e2
	if err := validateOptions(seeded, nil); err == nil || !strings.Contains(err.Error(), "drop -bulk/-tune") {
		t.Fatalf("-load with -bulk: %v, want the refusal", err)
	}
}

// TestBuildStateHNSW covers the -knn-index flag: an hnsw build serves
// approximate dense queries, its snapshot resumes with the graph, the
// knobs reach the config, and the flag combinations that cannot work
// (hnsw under a sparse method, which online.Open refuses like the flag
// check before it; an unknown index name) error at startup.
func TestBuildStateHNSW(t *testing.T) {
	e1, _, _ := writeTaskCSVs(t)

	o := baseOptions()
	o.bulk, o.method, o.knnIndex = e1, "flat", "hnsw"
	o.hnswM, o.hnswEf, o.hnswSeed = 8, 48, 42
	st, err := buildState(o)
	if err != nil {
		t.Fatal(err)
	}
	if st.res.Len() != 20 {
		t.Fatalf("hnsw bulk load: %d entities", st.res.Len())
	}
	desc := st.res.Config().Describe()
	if !strings.Contains(desc, "index=hnsw") || !strings.Contains(desc, "m=8") {
		t.Fatalf("hnsw config not applied: %s", desc)
	}
	probe := []entity.Attribute{{Name: "text", Value: "probe"}}
	approx, _ := st.res.Snapshot().QueryTraced(probe, online.QueryOptions{K: 3})
	exact, _ := st.res.Snapshot().QueryTraced(probe, online.QueryOptions{K: 3, Exact: true})
	if len(approx) == 0 || len(exact) == 0 {
		t.Fatalf("hnsw serving returned no candidates (approx %d, exact %d)", len(approx), len(exact))
	}

	// The shutdown snapshot carries the graph and resumes as hnsw.
	snapPath := filepath.Join(t.TempDir(), "hnsw.snap")
	if err := st.res.SaveFile(nil, snapPath); err != nil {
		t.Fatal(err)
	}
	resumed, err := buildState(options{load: snapPath, shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := resumed.res.Config().Describe(); !strings.Contains(got, "index=hnsw") {
		t.Fatalf("resumed config lost the index: %s", got)
	}
	if resumed.res.Len() != st.res.Len() {
		t.Fatalf("resumed %d entities, want %d", resumed.res.Len(), st.res.Len())
	}

	sparseHNSW := baseOptions()
	sparseHNSW.bulk, sparseHNSW.knnIndex = e1, "hnsw"
	if _, err := buildState(sparseHNSW); err == nil {
		t.Fatal("-knn-index hnsw with a sparse method must error")
	}
	unknown := baseOptions()
	unknown.bulk, unknown.method, unknown.knnIndex = e1, "flat", "annoy"
	if _, err := buildState(unknown); err == nil {
		t.Fatal("unknown -knn-index must error")
	}
}

// TestBuildStateDurable covers the -wal startup paths: bulk seeding an
// empty store, recovery taking precedence over the seed on reopen, and
// the -wal/-load conflict.
func TestBuildStateDurable(t *testing.T) {
	e1, _, _ := writeTaskCSVs(t)
	o := baseOptions()
	o.bulk = e1
	o.walDir = filepath.Join(t.TempDir(), "store")
	o.checkpointEvery = 64

	st, err := buildState(o)
	if err != nil {
		t.Fatal(err)
	}
	if st.store == nil || st.res.Len() != 20 {
		t.Fatalf("durable bulk seed: store=%v len=%d", st.store, st.res.Len())
	}
	if _, err := st.store.InsertBatch([][]entity.Attribute{{{Name: "name", Value: "extra"}}}); err != nil {
		t.Fatal(err)
	}
	if err := st.close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the store recovers 21 entities; the bulk seed must NOT
	// re-run on a non-empty store.
	st2, err := buildState(o)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.close()
	if st2.res.Len() != 21 {
		t.Fatalf("recovered %d entities, want 21", st2.res.Len())
	}

	conflicted := o
	conflicted.load, conflicted.bulk = "something.snap", ""
	if err := validateOptions(conflicted, nil); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("-wal with -load: %v, want the refusal", err)
	}
}

// TestBuildStateShardedDurable covers the sharded -wal paths: seeding,
// recovery across all shards, and the pinned-shard-count refusal.
func TestBuildStateShardedDurable(t *testing.T) {
	e1, _, _ := writeTaskCSVs(t)
	o := baseOptions()
	o.bulk = e1
	o.shards = 3
	o.walDir = filepath.Join(t.TempDir(), "store")
	o.checkpointEvery = 64

	st, err := buildState(o)
	if err != nil {
		t.Fatal(err)
	}
	if st.store == nil || st.res.Len() != 20 {
		t.Fatalf("sharded durable seed: store=%v len=%d", st.store, st.res.Len())
	}
	if _, err := st.store.InsertBatch([][]entity.Attribute{
		{{Name: "name", Value: "extra one"}},
		{{Name: "name", Value: "extra two"}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.close(); err != nil {
		t.Fatal(err)
	}

	st2, err := buildState(o)
	if err != nil {
		t.Fatal(err)
	}
	if st2.res.Len() != 22 {
		t.Fatalf("sharded recovery: %d entities, want 22", st2.res.Len())
	}
	if err := st2.close(); err != nil {
		t.Fatal(err)
	}

	// Reopening with a different shard count is refused, not silently
	// re-partitioned.
	wrong := o
	wrong.shards = 5
	if _, err := buildState(wrong); err == nil || !strings.Contains(err.Error(), "shards") {
		t.Fatalf("shard-count mismatch must error, got %v", err)
	}
}

// TestBuildStateDiskTier covers the -storage disk startup paths:
// volatile bulk load over a segment tier, snapshot load into a fresh
// tier, sharded volatile disk, the unsupported sharded-load combination
// and the durable disk store.
func TestBuildStateDiskTier(t *testing.T) {
	e1, _, _ := writeTaskCSVs(t)

	o := baseOptions()
	o.bulk = e1
	o.storage = "disk"
	o.segmentDir = filepath.Join(t.TempDir(), "seg")
	o.memtableCap = 8
	o.mergeFanin = 2
	st, err := buildState(o)
	if err != nil {
		t.Fatal(err)
	}
	if st.res.Len() != 20 || st.store != nil {
		t.Fatalf("disk bulk load: len=%d store=%v", st.res.Len(), st.store)
	}
	snapPath := filepath.Join(t.TempDir(), "disk.snap")
	if err := st.res.SaveFile(nil, snapPath); err != nil {
		t.Fatal(err)
	}
	if err := st.close(); err != nil {
		t.Fatal(err)
	}

	// The snapshot loads back into a fresh tier directory.
	lo := options{
		load: snapPath, shards: 1, storage: "disk",
		segmentDir: filepath.Join(t.TempDir(), "seg2"), memtableCap: 8, mergeFanin: 2,
	}
	lst, err := buildState(lo)
	if err != nil {
		t.Fatal(err)
	}
	if lst.res.Len() != 20 {
		t.Fatalf("disk load: %d entities, want 20", lst.res.Len())
	}

	// -load × -storage disk × -shards is the same loader at every count:
	// the one-shard snapshot re-routes onto three disk shards and answers
	// byte-identically to the unsharded load.
	slo := lo
	slo.shards = 3
	slo.segmentDir = filepath.Join(t.TempDir(), "seg3")
	slst, err := buildState(slo)
	if err != nil {
		t.Fatalf("-load -storage disk -shards 3: %v", err)
	}
	if slst.res.Topology().Shards != 3 || slst.res.Len() != 20 {
		t.Fatalf("sharded disk load: %s, %d entities", slst.res.Topology(), slst.res.Len())
	}
	for _, id := range lst.res.IDs() {
		probe, _ := lst.res.Get(id)
		for _, opt := range []online.QueryOptions{{}, {K: 1}, {K: 7}} {
			want, _ := json.Marshal(lst.res.Query(probe, opt))
			got, _ := json.Marshal(slst.res.Query(probe, opt))
			if !bytes.Equal(got, want) {
				t.Fatalf("entity %d opt %+v: sharded disk load answered %s, unsharded %s", id, opt, got, want)
			}
		}
	}
	if err := errors.Join(lst.close(), slst.close()); err != nil {
		t.Fatal(err)
	}

	so := o
	so.shards = 3
	so.segmentDir = filepath.Join(t.TempDir(), "sharded-seg")
	sst, err := buildState(so)
	if err != nil {
		t.Fatal(err)
	}
	if sst.res.Len() != 20 {
		t.Fatalf("sharded disk bulk load: %d entities", sst.res.Len())
	}
	if err := sst.close(); err != nil {
		t.Fatal(err)
	}

	// Durable disk: the WAL directory owns the tier; reopen recovers.
	do := baseOptions()
	do.bulk = e1
	do.storage = "disk"
	do.memtableCap = 8
	do.mergeFanin = 2
	do.walDir = filepath.Join(t.TempDir(), "store")
	do.checkpointEvery = 64
	dst, err := buildState(do)
	if err != nil {
		t.Fatal(err)
	}
	if dst.store == nil || dst.res.Len() != 20 {
		t.Fatalf("durable disk seed: store=%v len=%d", dst.store, dst.res.Len())
	}
	if _, err := dst.store.InsertBatch([][]entity.Attribute{{{Name: "name", Value: "extra"}}}); err != nil {
		t.Fatal(err)
	}
	if err := dst.close(); err != nil {
		t.Fatal(err)
	}
	dst2, err := buildState(do)
	if err != nil {
		t.Fatal(err)
	}
	defer dst2.close()
	if dst2.res.Len() != 21 {
		t.Fatalf("durable disk recovery: %d entities, want 21", dst2.res.Len())
	}
}

// TestBuildStateRefusesOversizedBulkEntity: a -bulk cell over
// frame.MaxStr is refused on every path before anything opens. A
// volatile resolver would take it and then fail every Save, and a disk
// tier's first memtable flush would panic.
func TestBuildStateRefusesOversizedBulkEntity(t *testing.T) {
	dir := t.TempDir()
	bulk := filepath.Join(dir, "big.csv")
	cell := strings.Repeat("x", frame.MaxStr+1)
	if err := os.WriteFile(bulk, []byte("name\ncanon powershot a540\n"+cell+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	seg, wal := filepath.Join(dir, "seg"), filepath.Join(dir, "store")
	for name, mut := range map[string]func(o *options){
		"volatile memory": func(o *options) {},
		"volatile disk":   func(o *options) { o.storage, o.segmentDir = "disk", seg },
		"durable memory":  func(o *options) { o.walDir = wal },
		"durable disk":    func(o *options) { o.storage, o.walDir = "disk", wal },
	} {
		o := baseOptions()
		o.bulk = bulk
		mut(&o)
		st, err := buildState(o)
		if err == nil {
			st.close()
			t.Fatalf("%s: the oversized entity was served", name)
		}
		if !errors.Is(err, online.ErrEntityTooLarge) || !strings.Contains(err.Error(), "-bulk entity 1") {
			t.Fatalf("%s: %v, want the entity-too-large refusal naming entity 1", name, err)
		}
		for _, d := range []string{seg, wal} {
			if _, err := os.Stat(d); !os.IsNotExist(err) {
				t.Fatalf("%s: %s exists after the refusal", name, d)
			}
		}
	}
}

// TestTunedFlatStartup exercises the dense tuning path end to end.
func TestTunedFlatStartup(t *testing.T) {
	if testing.Short() {
		t.Skip("dense tuning is slow")
	}
	e1, e2, truth := writeTaskCSVs(t)
	o := baseOptions()
	o.bulk, o.tuneCSV, o.truthCSV, o.method = e1, e2, truth, "flat"
	st, err := buildState(o)
	if err != nil {
		t.Fatal(err)
	}
	if st.res.Config().Method != online.FlatKNN {
		t.Fatalf("config: %s", st.res.Config().Describe())
	}
	if st.res.Config().Metric != knn.L2Squared {
		t.Fatalf("metric: %v", st.res.Config().Metric)
	}
}

// TestGracefulShutdownUnderWrites runs the real daemon on a real file
// system, SIGTERMs it in the middle of a write burst, and proves the
// contract: every request is acknowledged or rejected, and every
// acknowledged write is present after restart. The sharded subtest runs
// the same protocol against a multi-WAL store.
func TestGracefulShutdownUnderWrites(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			testGracefulShutdown(t, shards)
		})
	}
}

func testGracefulShutdown(t *testing.T, shards int) {
	dir := t.TempDir()
	o := options{
		addr: "127.0.0.1:0", method: "knnj", schema: "agnostic", model: "C3G",
		clean: true, k: 3, threshold: 0.4, shards: shards,
		walDir: filepath.Join(dir, "store"), checkpointEvery: 64,
		writeQueue: 8, requestTimeout: 10 * time.Second,
	}
	addrc := make(chan string, 1)
	o.ready = func(a string) { addrc <- a }
	done := make(chan error, 1)
	go func() { done <- run(o) }()
	var base string
	select {
	case a := <-addrc:
		base = "http://" + a
	case err := <-done:
		t.Fatalf("daemon exited early: %v", err)
	}

	// Burst writers: each loops until the daemon stops accepting,
	// recording which texts were acknowledged with which ids.
	var mu sync.Mutex
	acked := map[int64]string{}
	var wg sync.WaitGroup
	const writers = 6
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				txt := fmt.Sprintf("writer %d entity %d canon camera", g, i)
				body, _ := json.Marshal(map[string]any{"text": txt})
				resp, err := http.Post(base+"/v1/entities", "application/json", bytes.NewReader(body))
				if err != nil {
					return // connection refused/reset: daemon is gone
				}
				var out struct {
					IDs []int64 `json:"ids"`
				}
				code := resp.StatusCode
				decodeErr := json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				switch {
				case code == http.StatusOK:
					if decodeErr != nil || len(out.IDs) != 1 {
						t.Errorf("acked insert with bad body: %v %v", decodeErr, out.IDs)
						return
					}
					mu.Lock()
					acked[out.IDs[0]] = txt
					mu.Unlock()
				case code == http.StatusServiceUnavailable:
					// Shed or draining: fine, just not acknowledged.
				default:
					t.Errorf("write answered %d", code)
					return
				}
			}
		}(g)
	}

	time.Sleep(150 * time.Millisecond) // let the burst get going
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	if len(acked) == 0 {
		t.Fatal("no write was acknowledged before the SIGTERM")
	}

	// Restart the store: every acknowledged write must be there.
	var get func(id int64) ([]entity.Attribute, bool)
	if shards > 1 {
		store, err := online.OpenStore(o.walDir, testServingConfig(), shards, online.StoreOptions{})
		if err != nil {
			t.Fatalf("reopen after shutdown: %v", err)
		}
		defer store.Close()
		get = store.Resolver().Get
	} else {
		store, err := online.OpenStore(o.walDir, testServingConfig(), 1, online.StoreOptions{})
		if err != nil {
			t.Fatalf("reopen after shutdown: %v", err)
		}
		defer store.Close()
		get = store.Resolver().Get
	}
	for id, txt := range acked {
		attrs, ok := get(id)
		if !ok {
			t.Fatalf("acked entity %d lost across restart", id)
		}
		if len(attrs) != 1 || attrs[0].Value != txt {
			t.Fatalf("acked entity %d came back as %v, want %q", id, attrs, txt)
		}
	}
	t.Logf("verified %d acked writes across SIGTERM + restart (shards=%d)", len(acked), shards)
}
