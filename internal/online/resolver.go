package online

import (
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"erfilter/internal/entity"
	"erfilter/internal/faultfs"
	"erfilter/internal/hit"
	"erfilter/internal/knn"
	"erfilter/internal/metrics"
	"erfilter/internal/parallel"
	"erfilter/internal/vector"
)

// Resolver holds one tuned filter configuration as a long-lived,
// mutable, concurrently-queryable index over a growing collection of
// entities, hash-partitioned across N independent shards (N = 1 is the
// unpartitioned resolver — same code, one part). Each shard has its own
// writer mutex and its own published epoch snapshot, so inserts to
// different shards proceed in parallel — the write bottleneck (one
// mutex, one freeze per publish) splits N ways. Queries scatter to
// every shard snapshot concurrently and gather the per-shard top-k
// lists into a global answer under the same deterministic (score desc,
// id asc) order each shard uses, which makes the merged results provably
// identical at every shard count:
//
//   - sparse similarity scores are shard-invariant: the score depends
//     only on token-set overlap and sizes, never on the per-shard vocab
//     id assignment (unseen query tokens encode to an out-of-dictionary
//     sentinel that still counts toward the query-set size);
//   - every method's global cut is recoverable from per-shard cuts
//     (see hit.Gather), so no qualifying candidate is lost to
//     partitioning.
//
// Ids are allocated from one atomic counter, so a sequential workload
// assigns the same ids at every shard count.
type Resolver struct {
	cfg    Config
	shards []*shard
	nextID atomic.Int64
	// words is the one word-vector table of a dense resolver: every
	// shard's writers fill it, every query only reads it (empty for the
	// sparse methods).
	words *vector.Table

	queries atomic.Uint64
	tel     *gatherTelemetry
}

// gatherTelemetry times the two costs of the scatter-gather: the
// per-shard scatter latency (one histogram per shard, exposed under a
// shard label) and the gather merge. All metrics are nil-receiver safe.
type gatherTelemetry struct {
	shardNS []*metrics.Histogram // per-shard scatter wall time, ns
	mergeNS *metrics.Histogram   // gather merge cost, ns
}

// Open creates an empty resolver with n shards (n < 1 is treated as 1)
// under the config's storage kind; every shard serves the same
// configuration. Under StorageDisk each shard roots a segment tier —
// at cfg.SegmentDir itself for one shard, at SegmentDir/shard-<i> for
// more — restores any segments a previous run flushed there, and
// flushes its memtable automatically whenever it crosses
// cfg.MemtableCap; shard routing is a pure function of (id, shard
// count), so reopening with the same count finds every entity in the
// shard that flushed it. Disk-backed resolvers must be Closed when done.
func Open(cfg Config, n int) (*Resolver, error) { return open(cfg, n, new(vector.Table)) }

// open is Open over the caller's table: a store loading one snapshot per
// shard passes the same one to each.
func open(cfg Config, n int, words *vector.Table) (*Resolver, error) {
	cfg = cfg.normalize()
	if n < 1 {
		n = 1
	}
	if err := cfg.topology(n, false).Validate(); err != nil {
		return nil, err
	}
	if cfg.Storage == StorageDisk && cfg.SegmentDir == "" {
		return nil, fmt.Errorf("online: disk storage needs a segment directory")
	}
	shards := make([]*shard, n)
	for i := range shards {
		if cfg.Storage != StorageDisk {
			shards[i] = newShard(cfg, words, nil, false)
			continue
		}
		sh, err := openDiskShard(cfg, words, nil, shardDir(cfg.SegmentDir, i, n > 1), true)
		if err != nil {
			for _, prev := range shards[:i] {
				_ = prev.close()
			}
			return nil, fmt.Errorf("online: opening shard %d: %w", i, err)
		}
		shards[i] = sh
	}
	return newResolverOver(shards, words), nil
}

// shardDir places shard i under root: a partitioned layout keeps each
// shard in root/shard-<i>, an unpartitioned one lives at root itself.
func shardDir(root string, i int, partitioned bool) string {
	if !partitioned {
		return root
	}
	return filepath.Join(root, "shard-"+strconv.Itoa(i))
}

// newResolverOver assembles a resolver from already-built shards (the
// disk reopen and durable recovery paths). The id counter resumes past
// every id any shard has seen.
func newResolverOver(shards []*shard, words *vector.Table) *Resolver {
	r := &Resolver{cfg: shards[0].cfg, shards: shards, words: words,
		tel: &gatherTelemetry{mergeNS: &metrics.Histogram{}, shardNS: make([]*metrics.Histogram, len(shards))}}
	for i := range r.tel.shardNS {
		r.tel.shardNS[i] = &metrics.Histogram{}
	}
	r.resyncNextID()
	return r
}

// resyncNextID raises the id counter past every id any shard has seen:
// after recovery, and when a follower whose shard was fed below the
// allocator is promoted to take writes.
func (r *Resolver) resyncNextID() {
	next := r.nextID.Load()
	for _, sh := range r.shards {
		sh.mu.Lock()
		next = max(next, sh.nextID)
		sh.mu.Unlock()
	}
	r.nextID.Store(next)
}

// shardOf routes an id to its shard with a splitmix64-style bit mix, so
// any id pattern (sequential ingest, clustered deletes, replayed
// subsets) spreads evenly. Routing is a pure function of (id, shard
// count): every open of the same store directory computes the same
// placement.
func shardOf(id int64, n int) int {
	z := uint64(id) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(n))
}

// Config returns the shared configuration.
func (r *Resolver) Config() Config { return r.cfg }

// route reserves a contiguous id block for the batch and groups ids and
// entities by owning shard.
func (r *Resolver) route(batch [][]entity.Attribute) (ids []int64, groupIDs [][]int64, groups [][][]entity.Attribute) {
	n := len(r.shards)
	ids = make([]int64, len(batch))
	base := r.nextID.Add(int64(len(batch))) - int64(len(batch))
	groupIDs = make([][]int64, n)
	groups = make([][][]entity.Attribute, n)
	for i := range batch {
		id := base + int64(i)
		ids[i] = id
		s := shardOf(id, n)
		groupIDs[s] = append(groupIDs[s], id)
		groups[s] = append(groups[s], batch[i])
	}
	return ids, groupIDs, groups
}

// Insert adds one entity to its shard and publishes that shard's new
// epoch. The assigned id is returned; ids are globally monotonic and
// never reused.
func (r *Resolver) Insert(attrs []entity.Attribute) int64 {
	return r.InsertBatch([][]entity.Attribute{attrs})[0]
}

// InsertBatch reserves a contiguous id block, routes each entity to its
// shard and inserts the per-shard groups in parallel — one epoch
// publish per touched shard.
func (r *Resolver) InsertBatch(batch [][]entity.Attribute) []int64 {
	ids, groupIDs, groups := r.route(batch)
	r.insertRouted(groupIDs, groups)
	return ids
}

// insertRouted hands every shard its group of a routed batch, all
// shards at once: each runs its own ingest pipeline.
func (r *Resolver) insertRouted(groupIDs [][]int64, groups [][][]entity.Attribute) {
	err := parallel.ForEach(len(r.shards), len(r.shards), func(i int) error {
		if len(groups[i]) > 0 {
			r.shards[i].insertAssigned(groupIDs[i], groups[i])
		}
		return nil
	})
	if err != nil {
		panic(err) // only a shard panic (wrapped *parallel.PanicError) reaches here
	}
}

// owner returns the shard an id routes to.
func (r *Resolver) owner(id int64) *shard { return r.shards[shardOf(id, len(r.shards))] }

// Delete tombstones the entity on its shard, compacts that shard's
// index when the tombstone policy triggers, and publishes a new epoch.
// It reports whether the id was resident.
func (r *Resolver) Delete(id int64) bool { return r.owner(id).delete(id) }

// Get returns a copy of the attributes of a resident entity.
func (r *Resolver) Get(id int64) ([]entity.Attribute, bool) {
	attrs, ok := r.owner(id).attrsRef(id)
	return append([]entity.Attribute(nil), attrs...), ok
}

// Len returns the number of resident (non-deleted) entities across all
// shards, as of the currently published snapshots.
func (r *Resolver) Len() int { return r.Snapshot().Len() }

// IDs returns the ids of every resident entity across all shards in
// ascending order. The match stage's dirty-cluster rebuild walks this
// after a snapshot load or a WAL replay, when insertion order is no
// longer recoverable.
func (r *Resolver) IDs() []int64 {
	var ids []int64
	for _, sh := range r.shards {
		ids = append(ids, sh.ids()...)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Flush forces every shard's memtable of a disk-backed resolver to a
// new segment and publishes the result; a no-op under StorageMemory.
// Volatile callers use it to persist a tail shorter than MemtableCap.
func (r *Resolver) Flush() error {
	for _, sh := range r.shards {
		if err := sh.flush(); err != nil {
			return err
		}
	}
	return nil
}

// Close releases every shard's segment tier; a no-op for in-memory
// shards. Callers must have drained queries.
func (r *Resolver) Close() error {
	var first error
	for _, sh := range r.shards {
		if err := sh.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Snapshot captures the currently published snapshot of every shard.
// Each shard's view is immutable and internally consistent; the
// combined view may straddle concurrent writes to different shards,
// exactly as two back-to-back queries may straddle an insert.
func (r *Resolver) Snapshot() *Snapshot {
	snaps := make([]*shardSnap, len(r.shards))
	for i, sh := range r.shards {
		snaps[i] = sh.snap.Load()
	}
	return &Snapshot{cfg: r.cfg, shards: snaps, queries: &r.queries, tel: r.tel}
}

// Query answers against the currently published shard snapshots; see
// Snapshot.Query.
func (r *Resolver) Query(attrs []entity.Attribute, opt QueryOptions) []Candidate {
	return r.Snapshot().Query(attrs, opt)
}

// Stats is a point-in-time summary of a resolver: the partition shape,
// the aggregates over all shards, and each shard's own counters.
// Queries counts scatter-gather queries (each touches every shard).
// Segment counts and disk bytes of a StorageDisk resolver live in the
// per-shard entries only.
type Stats struct {
	Shards      int          `json:"shards"`
	Epoch       uint64       `json:"epoch"`
	Entities    int          `json:"entities"`
	Tombstones  int          `json:"tombstones"`
	Inserts     uint64       `json:"inserts"`
	Deletes     uint64       `json:"deletes"`
	Queries     uint64       `json:"queries"`
	Compactions uint64       `json:"compactions"`
	SizeSkew    float64      `json:"size_skew"`
	Config      string       `json:"config"`
	PerShard    []shardStats `json:"per_shard"`
}

// Stats summarizes the resolver.
func (r *Resolver) Stats() Stats {
	st := Stats{
		Shards:  len(r.shards),
		Queries: r.queries.Load(),
		Config:  r.cfg.Describe(),
	}
	sizes := make([]int, len(r.shards))
	for i, sh := range r.shards {
		s := sh.stats()
		st.PerShard = append(st.PerShard, s)
		st.Epoch += s.Epoch
		st.Entities += s.Entities
		st.Tombstones += s.Tombstones
		st.Inserts += s.Inserts
		st.Deletes += s.Deletes
		st.Compactions += s.Compactions
		sizes[i] = s.Entities
	}
	st.SizeSkew = sizeSkew(sizes)
	return st
}

// sizeSkew is the largest shard's entity count relative to the even
// share: 1.0 is a perfect balance, 2.0 means the hottest shard holds
// twice its fair share. An empty collection is balanced by definition.
func sizeSkew(sizes []int) float64 {
	total, most := 0, 0
	for _, s := range sizes {
		total += s
		if s > most {
			most = s
		}
	}
	if total == 0 {
		return 1
	}
	return float64(most) * float64(len(sizes)) / float64(total)
}

// Save writes the resolver — configuration, id counter and the union of
// every shard's resident entities — to w in the binary snapshot format:
// the same bytes at every shard count, so a snapshot restores into any
// topology (Load at a different shard count, a replica's bulk load).
// The one topology-bound structure is the HNSW graph, which only a
// one-shard resolver embeds; a partitioned save omits the section and
// Load rebuilds by replay. Each shard's writer lock is held only while
// its entity map is captured, not while w is written, so a slow
// destination (e.g. a stalled HTTP client draining /v1/snapshot) never
// blocks inserts and deletes. Concurrent queries are unaffected
// throughout.
func (r *Resolver) Save(w io.Writer) error {
	var ents []snapEntity
	var graph *knn.HNSWSnapshot
	var nextID int64
	for _, sh := range r.shards {
		sh.mu.Lock()
		next, se, g := sh.captureLocked(len(r.shards) == 1)
		sh.mu.Unlock()
		ents, graph, nextID = append(ents, se...), g, max(nextID, next)
	}
	// Read the id counter after the captures: every id it assigned was
	// assigned before its capture, so the counter already exceeds it. A
	// follower's counter trails its mirrored shard, whose own watermark
	// the captures carry.
	return writeSnapshot(w, r.cfg, max(nextID, r.nextID.Load()), ents, graph)
}

// SaveFile writes the snapshot to path atomically: temp file in the
// same directory, fsync, rename, directory sync. A crash at any point
// leaves either the previous file or the complete new one — never a
// torn snapshot.
func (r *Resolver) SaveFile(fsys faultfs.FS, path string) error {
	if fsys == nil {
		fsys = faultfs.OS{}
	}
	dir := filepath.Dir(path)
	base := filepath.Base(path)
	return faultfs.WriteFileAtomic(fsys, dir, base+".tmp", base, r.Save)
}

// Load reconstructs a resolver with n shards from any snapshot written
// by Save, whatever topology saved it: the snapshot supplies the filter
// configuration and the entities, which keep their ids and re-route to
// shards under the new count — re-sharding is exactly a save/load. The
// caller's storage config supplies only the storage shape (kind,
// segment directory, memtable cap, merge fan-in; the zero Config loads
// into memory). The incremental indexes are rebuilt by replaying the
// entities in id order — or, when a one-shard in-memory load meets an
// embedded HNSW graph section, restored verbatim (tombstones, adjacency
// and all) — so the loaded resolver returns byte-identical query
// results either way. A disk tier cannot hold a graph and serves the
// snapshot's vectors through the exact index instead; its directory
// must be fresh, since loading over an existing tier would collide ids
// with already-flushed segments. Any truncation or corruption of the
// stream — including a single flipped bit anywhere — returns an error;
// no partial state is ever served.
func Load(rd io.Reader, storage Config, n int) (*Resolver, error) {
	return load(rd, storage, n, new(vector.Table))
}

func load(rd io.Reader, storage Config, n int, words *vector.Table) (*Resolver, error) {
	c, nextID, ents, graph, err := decodeSnapshot(rd)
	if err != nil {
		return nil, err
	}
	c, graph = c.onStorage(storage, graph)
	r, err := open(c, n, words)
	if err != nil {
		return nil, err
	}
	if r.Len() > 0 || r.nextID.Load() > 0 {
		_ = r.Close()
		return nil, fmt.Errorf("online: refusing to load a snapshot into non-empty segment tier %s", c.SegmentDir)
	}
	r.fill(nextID, ents, graph)
	return r, nil
}

// onStorage places a decoded snapshot's filter configuration on the
// storage shape of s (kind, segment directory, memtable cap, merge
// fan-in). A disk tier cannot hold an HNSW graph: there the snapshot's
// vectors are served by the exact index and the graph section dropped.
func (c Config) onStorage(s Config, graph *knn.IncHNSW) (Config, *knn.IncHNSW) {
	c.Storage, c.SegmentDir = s.Storage, s.SegmentDir
	c.MemtableCap, c.MergeFanin, c.segSyncMerge = s.MemtableCap, s.MergeFanin, s.segSyncMerge
	if c.Storage == StorageDisk && c.Dense == DenseHNSW {
		c.Dense, c.HNSW, graph = DenseFlat, knn.HNSWParams{}, nil
	}
	return c.normalize(), graph
}

// fill loads a decoded snapshot into an empty resolver: the entities
// keep their ids and route to shards under this resolver's count; an
// embedded graph is adopted verbatim by a one-shard resolver and
// otherwise rebuilt by the replay.
func (r *Resolver) fill(nextID int64, ents []snapEntity, graph *knn.IncHNSW) {
	if graph != nil && len(r.shards) == 1 {
		sh := r.shards[0]
		sh.mu.Lock()
		sh.kn = hnswDense{graph}
		for _, e := range ents {
			sh.attrs[e.id] = e.attrs
			sh.inserts++
		}
		sh.publishLocked()
		sh.mu.Unlock()
	} else {
		groupIDs := make([][]int64, len(r.shards))
		groups := make([][][]entity.Attribute, len(r.shards))
		for _, e := range ents {
			s := shardOf(e.id, len(r.shards))
			groupIDs[s] = append(groupIDs[s], e.id)
			groups[s] = append(groups[s], e.attrs)
		}
		r.insertRouted(groupIDs, groups)
	}
	// Every shard carries the snapshot's id watermark, so a disk tier's
	// next flush persists it and deleted trailing ids are never reused.
	for _, sh := range r.shards {
		sh.mu.Lock()
		sh.nextID = max(sh.nextID, nextID)
		sh.mu.Unlock()
	}
	r.nextID.Store(nextID)
}

// RegisterMetrics exposes the resolver under the registry: aggregate
// series without labels (entities, epochs, inserts, deletes,
// tombstones, compactions, the shard count, the size skew and the
// gather merge cost) and every per-shard series — entity count, scatter
// latency and the shard's own telemetry — under a shard label, at every
// shard count including 1.
func (r *Resolver) RegisterMetrics(reg *metrics.Registry) {
	reg.GaugeFunc("online_shards",
		"Shard count of the resolver.", nil,
		func() float64 { return float64(len(r.shards)) })
	reg.GaugeFunc("online_shard_size_skew",
		"Largest shard's entity count relative to the even share (1.0 = balanced).", nil,
		func() float64 { return r.Stats().SizeSkew })
	reg.CounterFunc("online_epoch_publishes_total",
		"Snapshot epochs published (summed across shards).", nil,
		func() float64 { return float64(r.Stats().Epoch) })
	reg.CounterFunc("online_compactions_total",
		"Tombstone-triggered index compactions (all shards).", nil,
		func() float64 { return float64(r.Stats().Compactions) })
	reg.CounterFunc("online_inserts_total",
		"Entities inserted since start.", nil,
		func() float64 { return float64(r.Stats().Inserts) })
	reg.CounterFunc("online_deletes_total",
		"Entities deleted since start.", nil,
		func() float64 { return float64(r.Stats().Deletes) })
	reg.GaugeFunc("online_entities",
		"Resident (non-deleted) entities across all shards.", nil,
		func() float64 { return float64(r.Len()) })
	reg.GaugeFunc("online_embed_table_words",
		"Words in the resolver's shared word-vector table: the vocabulary ever indexed (dense methods).", nil,
		func() float64 { return float64(r.words.Len()) })
	reg.GaugeFunc("online_tombstones",
		"Dead index slots awaiting compaction (all shards).", nil,
		func() float64 { return float64(r.Stats().Tombstones) })
	reg.RegisterHistogram("online_gather_merge_duration_seconds",
		"Cost of merging per-shard top-k lists into the global answer.", nil, 1e-9, r.tel.mergeNS)
	for i, sh := range r.shards {
		index := strconv.Itoa(i)
		lbl := metrics.Labels{"shard": index}
		reg.GaugeFunc("online_shard_entities",
			"Resident entities per shard.", lbl,
			func() float64 { return float64(sh.snap.Load().count) })
		reg.RegisterHistogram("online_shard_query_duration_seconds",
			"Per-shard wall time of scatter-gather queries.", lbl, 1e-9, r.tel.shardNS[i])
		sh.registerMetrics(reg, index)
	}
}

// Snapshot is an immutable scatter-gather view over one published
// snapshot per shard. Any number of goroutines may query it
// concurrently; it never blocks and never observes later writes.
type Snapshot struct {
	cfg     Config
	shards  []*shardSnap
	queries *atomic.Uint64
	tel     *gatherTelemetry
}

// Epoch returns the sum of the shard epochs — monotonic under writes to
// any shard.
func (s *Snapshot) Epoch() uint64 {
	var sum uint64
	for _, sh := range s.shards {
		sum += sh.epoch
	}
	return sum
}

// Len returns the number of entities visible across all shards.
func (s *Snapshot) Len() int {
	total := 0
	for _, sh := range s.shards {
		total += sh.count
	}
	return total
}

// Attrs resolves a candidate id to its stored attributes via the owning
// shard — the seam the match stage uses to score candidate pairs.
// Placement is a pure function of (id, shard count), so the lookup
// touches exactly one shard. The returned slice is the resolver's own
// storage (never mutated after insert) and must not be modified.
func (s *Snapshot) Attrs(id int64) ([]entity.Attribute, bool) {
	return s.shards[shardOf(id, len(s.shards))].getAttrs(id)
}

// Query resolves an incoming entity against every shard in parallel and
// merges the per-shard answers, returning the top candidates best first
// (ties broken by ascending id); results are identical at every shard
// count.
func (s *Snapshot) Query(attrs []entity.Attribute, opt QueryOptions) []Candidate {
	out, _ := s.QueryTraced(attrs, opt)
	return out
}

// QueryTraced answers exactly like Query and returns the aggregate
// phase breakdown: Encode and Search are the slowest shard's phases
// (the scatter's critical path, with the merge folded into Search),
// Rounds the most any shard ran, Entities counts all shards.
func (s *Snapshot) QueryTraced(attrs []entity.Attribute, opt QueryOptions) ([]Candidate, Trace) {
	s.queries.Add(1)
	n := len(s.shards)
	per := make([][]Candidate, n)
	traces := make([]Trace, n)
	s.scatter(func(i int) {
		per[i], traces[i] = s.shards[i].queryTraced(attrs, opt)
	})
	var tr Trace
	for _, t := range traces {
		tr.Epoch += t.Epoch
		tr.Entities += t.Entities
		tr.Encode = max(tr.Encode, t.Encode)
		tr.Search = max(tr.Search, t.Search)
		tr.Rounds = max(tr.Rounds, t.Rounds)
	}
	begin := time.Now()
	out := hit.Gather(s.cfg.Method.cut(), s.k(opt), per...)
	merge := time.Since(begin)
	s.tel.mergeNS.ObserveDuration(merge)
	tr.Search += merge
	tr.Candidates = len(out)
	return out, tr
}

// QueryBatch scatters the whole batch to every shard — each shard pays
// one scratch/embedder pool checkout for the batch — then merges shard
// answers query by query. Results are identical to len(batch) Query
// calls. The returned Trace aggregates the batch: candidate counts are
// summed, Encode, Search and Rounds are the slowest shard's batch totals.
func (s *Snapshot) QueryBatch(batch [][]entity.Attribute, opt QueryOptions) ([][]Candidate, Trace) {
	agg := Trace{Epoch: s.Epoch(), Entities: s.Len()}
	if len(batch) == 0 {
		return nil, agg
	}
	s.queries.Add(uint64(len(batch)))
	n := len(s.shards)
	perShard := make([][][]Candidate, n)
	traces := make([]Trace, n)
	s.scatter(func(i int) {
		perShard[i], traces[i] = s.shards[i].queryBatch(batch, opt)
	})
	for _, t := range traces {
		agg.Encode = max(agg.Encode, t.Encode)
		agg.Search = max(agg.Search, t.Search)
		agg.Rounds = max(agg.Rounds, t.Rounds)
	}
	begin := time.Now()
	cut, k := s.cfg.Method.cut(), s.k(opt)
	out := make([][]Candidate, len(batch))
	per := make([][]Candidate, n)
	for q := range batch {
		for i := range per {
			per[i] = perShard[i][q]
		}
		out[q] = hit.Gather(cut, k, per...)
		agg.Candidates += len(out[q])
	}
	merge := time.Since(begin)
	s.tel.mergeNS.ObserveDuration(merge)
	agg.Search += merge
	return out, agg
}

// scatter runs fn(i) for every shard concurrently (one goroutine per
// shard via the shared worker-pool helper, inline for a single shard),
// recording each shard's wall time into its scatter-latency histogram.
func (s *Snapshot) scatter(fn func(i int)) {
	n := len(s.shards)
	err := parallel.ForEach(n, n, func(i int) error {
		begin := time.Now()
		fn(i)
		s.tel.shardNS[i].ObserveDuration(time.Since(begin))
		return nil
	})
	if err != nil {
		panic(err) // only a shard panic (wrapped *parallel.PanicError) reaches here
	}
}

// k resolves the effective cardinality threshold, like each shard's own
// query path.
func (s *Snapshot) k(opt QueryOptions) int {
	if opt.K > 0 {
		return opt.K
	}
	return s.cfg.K
}
