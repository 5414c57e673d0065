package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"path/filepath"
	"testing"

	"erfilter/internal/datagen"
	"erfilter/internal/entity"
	"erfilter/internal/faultfs"
	"erfilter/internal/knn"
	"erfilter/internal/match"
	"erfilter/internal/online"
	"erfilter/internal/repl"
	"erfilter/internal/serve"
	"erfilter/internal/wal"
)

// topologyConfig is a serving configuration for a point's method and
// dense index on its storage; a volatile disk point roots its tier at dir.
func topologyConfig(p online.Topology, dir string) online.Config {
	cfg := testServingConfig()
	if p.Method == online.FlatKNN {
		cfg = online.Config{Method: online.FlatKNN, K: 3, Metric: knn.L2Squared, Dim: 32}
	}
	if cfg.Dense = p.Dense; p.Dense == online.DenseHNSW {
		cfg.HNSW = knn.HNSWParams{Seed: 7}
	}
	if cfg.Storage = p.Storage; p.Storage == online.StorageDisk {
		cfg.MemtableCap, cfg.MergeFanin = 8, 2
		if !p.Durable {
			cfg.SegmentDir = dir
		}
	}
	return cfg
}

func refusalCode(err error) string {
	var r *online.Refusal
	if errors.As(err, &r) {
		return r.Code
	}
	return ""
}

// openMemStore opens a store over an in-memory file system.
func openMemStore(t *testing.T, cfg online.Config, shards int) *online.Store {
	t.Helper()
	st, err := online.OpenStore("store", cfg, shards, online.StoreOptions{FS: faultfs.NewMem()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// leaderCut is a leader's bootstrap cut, as a follower's tailer fetches it.
func leaderCut(t *testing.T, st *online.Store) (wal.Position, uint64, *bytes.Reader) {
	t.Helper()
	pos, term, save, err := st.ReplSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := save(&buf); err != nil {
		t.Fatal(err)
	}
	return pos, term, bytes.NewReader(buf.Bytes())
}

// TestTopologyAgreement holds every layer to the one deployment matrix.
// Refused: each row of online.Topology's table, asked of every entry
// point that can express it — the library constructors on real state,
// erserve's validateOptions on flags — answers an *online.Refusal with
// that row's code. Served: at each of online.Points() the matching entry
// points open, take 50 entities and answer a fixed probe set byte for
// byte like the one-shard in-memory resolver (HNSW points in exact mode).
func TestTopologyAgreement(t *testing.T) {
	task := datagen.Generate(datagen.QuickSpec(50, 12, 8, 5))
	var seed, probes [][]entity.Attribute
	for _, p := range task.E1.Profiles {
		seed = append(seed, p.Attrs)
	}
	for _, p := range task.E2.Profiles {
		probes = append(probes, p.Attrs)
	}
	sparse := online.Topology{Method: online.KNNJoin, Shards: 1}
	dense := online.Topology{Method: online.FlatKNN, Shards: 1}
	hnsw := online.Topology{Method: online.FlatKNN, Dense: online.DenseHNSW, Shards: 1}
	onDisk := online.Topology{Method: online.FlatKNN, Shards: 1, Storage: online.StorageDisk}
	matchDirty := &serve.MatchOptions{Config: match.Config{}.Normalize(), Dirty: true}
	flags := func(mut func(o *options)) func(*testing.T) error {
		return func(*testing.T) error {
			o := baseOptions()
			mut(&o)
			return validateOptions(o, map[string]bool{})
		}
	}

	// answers renders a resolver's candidates for every probe.
	answers := func(t *testing.T, res *online.Resolver, exact bool) []byte {
		t.Helper()
		var out [][]online.Candidate
		for _, probe := range probes {
			out = append(out, res.Query(probe, online.QueryOptions{Exact: exact}))
		}
		body, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	// The oracle of a point is the one-shard in-memory resolver under its
	// method and index; its snapshot is what the -load points load.
	oracles := map[online.Topology]*online.Resolver{}
	for _, p := range []online.Topology{sparse, dense, hnsw} {
		res, err := online.Open(topologyConfig(p, ""), 1)
		if err != nil {
			t.Fatal(err)
		}
		res.InsertBatch(seed)
		oracles[p] = res
	}
	snapshot := func(t *testing.T, res *online.Resolver) *bytes.Buffer {
		t.Helper()
		var snap bytes.Buffer
		if err := res.Save(&snap); err != nil {
			t.Fatal(err)
		}
		return &snap
	}

	refused := []struct {
		code, entry string
		ask         func(t *testing.T) error
	}{
		{"hnsw_needs_flat", "Open", func(t *testing.T) error {
			cfg := topologyConfig(sparse, "")
			cfg.Dense = online.DenseHNSW
			_, err := online.Open(cfg, 1)
			return err
		}},
		{"hnsw_needs_flat", "OpenStore", func(t *testing.T) error {
			cfg := topologyConfig(sparse, "")
			cfg.Dense = online.DenseHNSW
			_, err := online.OpenStore("store", cfg, 1, online.StoreOptions{FS: faultfs.NewMem()})
			return err
		}},
		// The flag-order bug: at the parent this ran the whole -tune grid
		// search over both CSVs before applyDenseIndex refused it.
		{"hnsw_needs_flat", "flags", flags(func(o *options) {
			o.knnIndex, o.bulk, o.tuneCSV, o.truthCSV = "hnsw", "absent-a.csv", "absent-b.csv", "absent-gt.csv"
		})},
		{"hnsw_on_disk", "Open", func(t *testing.T) error {
			cfg := topologyConfig(onDisk, t.TempDir())
			cfg.Dense = online.DenseHNSW
			_, err := online.Open(cfg, 1)
			return err
		}},
		{"hnsw_on_disk", "OpenStore", func(t *testing.T) error {
			cfg := topologyConfig(onDisk, "")
			cfg.Dense = online.DenseHNSW
			_, err := online.OpenStore("store", cfg, 1, online.StoreOptions{FS: faultfs.NewMem()})
			return err
		}},
		{"hnsw_on_disk", "Bootstrap", func(t *testing.T) error {
			pos, term, snap := leaderCut(t, openMemStore(t, topologyConfig(hnsw, ""), 1))
			return openMemStore(t, topologyConfig(onDisk, ""), 1).Bootstrap(pos, term, snap)
		}},
		{"hnsw_on_disk", "flags", flags(func(o *options) {
			o.method, o.knnIndex, o.storage, o.segmentDir = "flat", "hnsw", "disk", "seg"
		})},
		{"repl_needs_wal", "flags", flags(func(o *options) { o.replicaOf = "http://leader" })},
		{"repl_needs_wal", "flags, leader side", flags(func(o *options) { o.advertise = "http://me" })},
		{"repl_partitioned", "Bootstrap", func(t *testing.T) error {
			pos, term, snap := leaderCut(t, openMemStore(t, topologyConfig(sparse, ""), 1))
			return openMemStore(t, topologyConfig(sparse, ""), 3).Bootstrap(pos, term, snap)
		}},
		{"repl_partitioned", "NewLeader", func(t *testing.T) error {
			_, err := repl.NewLeader(openMemStore(t, topologyConfig(sparse, ""), 3), repl.Options{ID: "a"})
			return err
		}},
		// A library hole at the parent: the follower was built, and then
		// failed every bootstrap round for as long as it ran.
		{"repl_partitioned", "NewFollower", func(t *testing.T) error {
			_, err := repl.NewFollower(openMemStore(t, topologyConfig(sparse, ""), 3), repl.Options{ID: "b"})
			return err
		}},
		{"repl_partitioned", "flags", flags(func(o *options) {
			o.walDir, o.lease, o.shards = "store", "shared/leader.lease", 3
		})},
		// The other library hole: a server whose clusters could never move.
		{"dirty_on_follower", "NewServer", func(t *testing.T) error {
			node, err := repl.NewFollower(openMemStore(t, topologyConfig(sparse, ""), 1), repl.Options{ID: "b"})
			if err != nil {
				t.Fatal(err)
			}
			_, err = serve.NewServer(nil, nil, serve.Options{Replication: node, Match: matchDirty})
			return err
		}},
		{"dirty_on_follower", "flags", flags(func(o *options) {
			o.walDir, o.follow, o.matchStage, o.dirty = "store", true, true, true
		})},
		{"dirty_needs_match", "flags", flags(func(o *options) { o.dirty = true })},
		{"wal_with_load", "flags", flags(func(o *options) { o.walDir, o.load = "store", "resolver.snap" })},
	}
	covered := map[string]bool{}
	for _, tc := range refused {
		covered[tc.code] = true
		t.Run("refused/"+tc.code+"/"+tc.entry, func(t *testing.T) {
			if err := tc.ask(t); refusalCode(err) != tc.code {
				t.Fatalf("answered %v, want the %s refusal", err, tc.code)
			}
		})
	}
	// Every row the table holds is asked about above: whatever a new row
	// refuses, it refuses some point of this grid, under a code the cases
	// must then cover.
	for b := 0; b < 1<<10; b++ {
		on := func(i int) bool { return b>>i&1 == 1 }
		p := online.Topology{Shards: 1, Durable: on(4), Replicated: on(5), Follower: on(5) && on(6),
			Match: on(7), Dirty: on(8), Load: on(9)}
		if on(0) {
			p.Method = online.FlatKNN
		}
		if on(1) {
			p.Dense = online.DenseHNSW
		}
		if on(2) {
			p.Shards = 3
		}
		if on(3) {
			p.Storage = online.StorageDisk
		}
		if code := refusalCode(p.Validate()); code != "" && !covered[code] {
			t.Errorf("%s is refused with %s, which no case above asks any entry point about", p, code)
		}
	}
	// The table's footnote is not a refusal: Load serves an HNSW snapshot
	// on a disk tier through the exact index.
	t.Run("footnote/Load", func(t *testing.T) {
		loaded, err := online.Load(snapshot(t, oracles[hnsw]), topologyConfig(onDisk, t.TempDir()), 1)
		if err != nil {
			t.Fatalf("Load of an HNSW snapshot onto a disk tier: %v", err)
		}
		defer loaded.Close()
		if got := loaded.Topology(); got != onDisk {
			t.Fatalf("loaded as %s, want %s", got, onDisk)
		}
	})

	for _, p := range online.Points() {
		t.Run("served/"+p.String(), func(t *testing.T) {
			cfg := topologyConfig(p, filepath.Join(t.TempDir(), "seg"))
			oracle := oracles[online.Topology{Method: p.Method, Dense: p.Dense, Shards: 1}]
			var res *online.Resolver
			var store *online.Store
			var node *repl.Node
			var err error
			switch {
			case p.Load:
				if res, err = online.Load(snapshot(t, oracle), cfg, p.Shards); err != nil {
					t.Fatal(err)
				}
			case !p.Durable:
				if res, err = online.Open(cfg, p.Shards); err != nil {
					t.Fatal(err)
				}
				res.InsertBatch(seed)
			case p.Follower:
				leader := openMemStore(t, oracle.Config(), 1)
				if _, err := leader.InsertBatch(seed); err != nil {
					t.Fatal(err)
				}
				store = openMemStore(t, cfg, p.Shards)
				pos, term, snap := leaderCut(t, leader)
				if err := store.Bootstrap(pos, term, snap); err != nil {
					t.Fatal(err)
				}
				if node, err = repl.NewFollower(store, repl.Options{ID: "b"}); err != nil {
					t.Fatal(err)
				}
			default:
				store = openMemStore(t, cfg, p.Shards)
				insert := store.InsertBatch
				if p.Replicated {
					if node, err = repl.NewLeader(store, repl.Options{ID: "a"}); err != nil {
						t.Fatal(err)
					}
					insert = node.InsertBatch
				}
				if _, err := insert(seed); err != nil {
					t.Fatal(err)
				}
			}
			if res != nil {
				defer res.Close()
			}
			opt := serve.Options{Replication: node}
			if p.Match {
				opt.Match = &serve.MatchOptions{Config: match.Config{}.Normalize(), Dirty: p.Dirty}
			}
			s, err := serve.NewServer(res, store, opt)
			if err != nil {
				t.Fatal(err)
			}
			want := p
			want.Load = false // how a collection arrived is not a property of what serves it
			if got := s.Topology(); got != want {
				t.Fatalf("serving at %s, want %s", got, want)
			}
			if n := s.Resolver().Len(); n != len(seed) {
				t.Fatalf("%d entities resident, want %d", n, len(seed))
			}
			exact := p.Dense == online.DenseHNSW
			if got, want := answers(t, s.Resolver(), exact), answers(t, oracle, exact); !bytes.Equal(got, want) {
				t.Fatalf("answers differ from %s:\n  got  %s\n  want %s", oracle.Topology(), got, want)
			}
		})
	}
}
