package online

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"

	"erfilter/internal/entity"
	"erfilter/internal/faultfs"
	"erfilter/internal/metrics"
	"erfilter/internal/parallel"
	"erfilter/internal/vector"
)

// shardMetaName records the shard count a partitioned store directory
// was created with. Reopening with a different -shards is refused: shard
// routing is a pure function of (id, shard count), so changing the
// count would strand entities in WALs their shard no longer owns.
// Re-sharding is a bulk operation — save a snapshot, load it into a
// fresh directory at the new count — not a flag flip.
const shardMetaName = "SHARDS"

// Store is the durable resolver: one independent crash-safe shard store
// (its own WAL, its own checkpoints, its own degraded state) per shard,
// glued together by the Resolver's global id allocator and
// scatter-gather machinery. A one-shard store keeps its log and
// snapshot (or segment tier) at the directory root; a partitioned one
// pins its count in the SHARDS meta file and keeps shard i under
// dir/shard-<i>. Recovery replays every shard's WAL in parallel; the
// SIGTERM-path Close checkpoints all shards. A WAL failure degrades its
// own shard — and therefore the whole store's write path — to
// read-only, while queries keep serving.
type Store struct {
	// res is the resolver over the shards' current indexes. The instance
	// changes only when a follower's Bootstrap installs a new collection
	// (see repl.go), so callers fetch it per use and never cache it.
	res    atomic.Pointer[Resolver]
	shards []*shardStore
}

// OpenStore opens (or initializes) the durable resolver in dir with the
// given shard count (shards < 1 is treated as 1). The count of a
// partitioned store is pinned by a meta file on first open; subsequent
// opens must pass the same count. Each shard recovers independently —
// snapshot load (or segment-tier open) plus WAL replay run on one
// goroutine per shard, so recovery time is bounded by the largest
// shard; see openShardStore for the per-shard recovery contract.
func OpenStore(dir string, cfg Config, shards int, opt StoreOptions) (*Store, error) {
	if shards < 1 {
		shards = 1
	}
	cfg = cfg.normalize()
	if err := cfg.topology(shards, true).Validate(); err != nil {
		return nil, err
	}
	if opt.FS == nil {
		opt.FS = faultfs.OS{}
	}
	if err := opt.FS.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("online: creating store dir: %w", err)
	}
	partitioned, err := loadOrInitShardMeta(opt.FS, dir, shards)
	if err != nil {
		return nil, err
	}
	stores := make([]*shardStore, shards)
	words := new(vector.Table) // filled by every shard's replay at once
	err = parallel.ForEach(shards, shards, func(i int) error {
		st, err := openShardStore(shardDir(dir, i, partitioned), cfg, words, opt)
		if err != nil {
			return fmt.Errorf("online: opening shard %d: %w", i, err)
		}
		stores[i] = st
		return nil
	})
	if err != nil {
		for _, st := range stores {
			if st != nil {
				_ = st.close()
			}
		}
		return nil, err
	}
	parts := make([]*shard, shards)
	for i, st := range stores {
		parts[i] = st.sh
	}
	st := &Store{shards: stores}
	st.res.Store(newResolverOver(parts, words))
	return st, nil
}

// loadOrInitShardMeta checks the requested count against the pinned
// one and reports whether dir uses the partitioned (shard-<i>) layout:
// it does whenever the meta file exists. The first open of a fresh
// directory writes the file atomically for shards > 1 and leaves a
// one-shard store unpartitioned at the root.
func loadOrInitShardMeta(fsys faultfs.FS, dir string, shards int) (partitioned bool, err error) {
	path := filepath.Join(dir, shardMetaName)
	raw, err := faultfs.ReadFile(fsys, path)
	if err == nil {
		v, perr := strconv.Atoi(strings.TrimSpace(string(raw)))
		if perr != nil || v < 1 {
			return false, fmt.Errorf("online: damaged shard meta %s: %q", path, raw)
		}
		if v != shards {
			return false, fmt.Errorf("online: store at %s was created with %d shards, not %d (re-shard by loading a snapshot into a fresh directory)", dir, v, shards)
		}
		return true, nil
	}
	if !errors.Is(err, fs.ErrNotExist) {
		return false, fmt.Errorf("online: reading shard meta: %w", err)
	}
	if shards == 1 {
		return false, nil
	}
	err = faultfs.WriteFileAtomic(fsys, dir, shardMetaName+".tmp", shardMetaName, func(w io.Writer) error {
		_, werr := fmt.Fprintf(w, "%d\n", shards)
		return werr
	})
	if err != nil {
		return false, fmt.Errorf("online: writing shard meta: %w", err)
	}
	return true, nil
}

// Resolver returns the underlying resolver for the read paths (Query,
// Get, Snapshot, Stats, Save). All mutations must go through the store.
func (s *Store) Resolver() *Resolver { return s.res.Load() }

// Ready reports whether every shard accepts writes; the first degraded
// shard's failure — the one that forced read-only mode — is returned.
func (s *Store) Ready() (bool, error) {
	for _, st := range s.shards {
		if ok, err := st.ready(); !ok {
			return false, err
		}
	}
	return true, nil
}

// Insert durably adds one entity: on a nil error the entity is fsynced
// into its shard's WAL and will survive any crash.
func (s *Store) Insert(attrs []entity.Attribute) (int64, error) {
	ids, err := s.InsertBatch([][]entity.Attribute{attrs})
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

// InsertBatch assigns globally monotonic ids, routes each entity to its
// shard and commits the per-shard sub-batches in parallel — one WAL
// append stream plus one group-committed fsync per touched shard. On
// error the batch may be partially durable: sub-batches acknowledged by
// healthy shards stay committed (ids are never reused and replay is
// idempotent), and the first failing shard's error is returned. A batch
// holding an entity CheckEntity refuses is refused whole, before an id
// is assigned or a byte logged.
func (s *Store) InsertBatch(batch [][]entity.Attribute) ([]int64, error) {
	if len(batch) == 0 {
		return nil, nil
	}
	for i, attrs := range batch {
		if err := CheckEntity(attrs); err != nil {
			return nil, fmt.Errorf("entity %d: %w", i, err)
		}
	}
	ids, groupIDs, groups := s.res.Load().route(batch)
	err := parallel.ForEach(len(s.shards), len(s.shards), func(i int) error {
		if len(groups[i]) == 0 {
			return nil
		}
		return s.shards[i].insertAssigned(groupIDs[i], groups[i])
	})
	if err != nil {
		return nil, err
	}
	return ids, nil
}

// Delete durably tombstones an entity on its shard; ok reports
// residency. A nil error with ok=true means the delete is fsynced and
// will survive any crash.
func (s *Store) Delete(id int64) (bool, error) {
	return s.shards[shardOf(id, len(s.shards))].delete(id)
}

// Checkpoint checkpoints every shard in parallel. Every shard is
// attempted regardless of other shards' failures; the errors are
// joined.
func (s *Store) Checkpoint() error {
	return s.eachShard((*shardStore).checkpoint)
}

// Close checkpoints healthy shards, closes every WAL and releases the
// segment tiers of a disk-backed store. The store must not be used
// afterwards.
func (s *Store) Close() error {
	return s.eachShard((*shardStore).close)
}

func (s *Store) eachShard(fn func(*shardStore) error) error {
	errs := make([]error, len(s.shards))
	_ = parallel.ForEach(len(s.shards), len(s.shards), func(i int) error {
		errs[i] = fn(s.shards[i])
		return nil
	})
	return errors.Join(errs...)
}

// StoreStats summarizes the durability layer for the /v1/stats
// endpoint: the aggregates over all shards plus each shard's WAL
// counters, checkpoint count and degradation state.
type StoreStats struct {
	Shards      int               `json:"shards"`
	Checkpoints uint64            `json:"checkpoints"`
	Degraded    bool              `json:"degraded"`
	Reason      string            `json:"reason,omitempty"`
	PerShard    []shardStoreStats `json:"per_shard"`
}

// Stats summarizes the durability layer.
func (s *Store) Stats() StoreStats {
	st := StoreStats{Shards: len(s.shards)}
	for _, sh := range s.shards {
		ss := sh.stats()
		st.PerShard = append(st.PerShard, ss)
		st.Checkpoints += ss.Checkpoints
		if ss.Degraded && !st.Degraded {
			st.Degraded = true
			st.Reason = ss.Reason
		}
	}
	return st
}

// RegisterMetrics exposes the durability layer under the registry:
// every shard's WAL fsync/group-commit telemetry and checkpoint cost
// under a shard label, plus store-wide checkpoint and degraded series.
// The WAL series read the log instance current at registration, which a
// follower's Bootstrap replaces: register per scrape, not once.
func (s *Store) RegisterMetrics(reg *metrics.Registry) {
	for i, st := range s.shards {
		lbl := metrics.Labels{"shard": strconv.Itoa(i)}
		st.log.Load().RegisterMetrics(reg, lbl)
		reg.RegisterHistogram("store_checkpoint_duration_seconds",
			"End-to-end checkpoint cost: capture, rotate, write, rename, trim.", lbl, 1e-9, &st.ckptNS)
	}
	reg.CounterFunc("store_checkpoints_total",
		"Completed snapshot checkpoints across all shards.", nil,
		func() float64 { return float64(s.Stats().Checkpoints) })
	reg.GaugeFunc("store_degraded",
		"1 when any shard has fallen back to read-only after a WAL failure.", nil,
		func() float64 {
			if ok, _ := s.Ready(); !ok {
				return 1
			}
			return 0
		})
}
