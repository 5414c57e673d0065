package online

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"erfilter/internal/entity"
	"erfilter/internal/hit"
	"erfilter/internal/knn"
	"erfilter/internal/metrics"
	"erfilter/internal/segment"
	"erfilter/internal/sparse"
	"erfilter/internal/vector"
	"erfilter/internal/wal"
)

// Candidate is one query answer: a hit under the resolver's
// configuration, higher scores better for every method.
type Candidate = hit.Hit

// QueryOptions overrides per-query parameters; zero values fall back to
// the resolver's tuned configuration.
type QueryOptions struct {
	// K overrides the cardinality threshold of KNNJoin and FlatKNN.
	K int
	// Threshold overrides the ε-Join similarity threshold when > 0.
	Threshold float64
	// Ef overrides the beam width of approximate dense (HNSW) queries
	// when > 0: wider beams trade latency for recall. Ignored by every
	// exact index.
	Ef int
	// Exact forces a brute-force scan over the live vectors even when
	// the resolver serves an approximate index — the per-query escape
	// hatch when a caller needs oracle answers (and the equivalence the
	// crash-recovery tests assert). Ignored by already-exact indexes.
	Exact bool
	// Predicate, when non-nil, restricts candidates to entities whose
	// stored attributes satisfy it. The predicate is pushed down into
	// the query: cardinality cuts (FlatKNN's top-k, KNNJoin's k distinct
	// similarity values) are applied to the matching candidates only, by
	// over-fetching and re-cutting until k matches are found or the
	// index is exhausted — so a filtered query returns exactly what an
	// unfiltered query over the matching sub-collection would. The
	// predicate must be pure and safe for concurrent use.
	Predicate func(attrs []entity.Attribute) bool
	// MinScore, when non-nil, drops candidates scoring below it before
	// the cardinality cut, under the same pushdown semantics as
	// Predicate. A pointer because 0 is meaningful: FlatKNN scores are
	// negated distances, so every candidate scores <= 0.
	MinScore *float64
}

// filtered reports whether the options carry a pushdown filter.
func (o QueryOptions) filtered() bool {
	return o.Predicate != nil || o.MinScore != nil
}

// memIndex is the bookkeeping every memtable index shares — the
// sparse.IncIndex and both dense indexes — through their slot tables:
// the one id set of the memtable, whose slots also address the shard's
// attribute records.
type memIndex interface {
	Remove(id int64) bool
	Compact() []int32
	Len() int
	Dead() int
	Has(id int64) bool
	Slot(id int64) (int32, bool)
	Slots() int
	ID(slot int32) int64
	Live(slot int32) bool
}

// denseIndex is the pluggable write-side seam over the incremental dense
// indexes: IncFlat (exact) and IncHNSW (approximate) both satisfy it, so
// every write path — inserts, deletes, compaction, WAL replay — is
// index-agnostic.
type denseIndex interface {
	memIndex
	Add(id int64, v vector.Vec) error
	Row(slot int32) vector.Vec
	Freeze() denseSnap
}

// denseSnap is the read-side counterpart: an immutable snapshot any
// number of goroutines may search.
type denseSnap interface {
	Len() int
	Search(q vector.Vec, k int) []hit.Hit
}

type flatDense struct{ *knn.IncFlat }

func (f flatDense) Freeze() denseSnap { return f.IncFlat.Freeze() }

type hnswDense struct{ *knn.IncHNSW }

func (h hnswDense) Freeze() denseSnap { return h.IncHNSW.Freeze() }

// shardStats is a point-in-time summary of one shard: a per_shard entry
// of Stats.
type shardStats struct {
	Epoch       uint64 `json:"epoch"`
	Entities    int    `json:"entities"`
	Tombstones  int    `json:"tombstones"`
	VocabSize   int    `json:"vocab_size,omitempty"`
	Inserts     uint64 `json:"inserts"`
	Deletes     uint64 `json:"deletes"`
	Queries     uint64 `json:"queries"`
	Compactions uint64 `json:"compactions"`
	Config      string `json:"config"`
	// Segments and DiskBytes describe the on-disk tier of a
	// StorageDisk shard; both are zero under StorageMemory.
	Segments  int   `json:"segments,omitempty"`
	DiskBytes int64 `json:"disk_bytes,omitempty"`
}

// compactMinDead and compactRatio set the tombstone-triggered compaction
// policy: compact once at least compactMinDead slots are dead AND the
// dead slots are at least 1/compactRatio of all slots.
const (
	compactMinDead = 64
	compactRatio   = 2
)

// shard is one partition of a Resolver: the tuned filter configuration
// as a long-lived, mutable, concurrently-queryable index over the
// entities routed to it.
//
// Writers (insertAssigned/delete/WAL replay) serialize on an internal
// mutex, apply the mutation to the single-writer incremental index, and
// publish a fresh immutable shardSnap with an atomic pointer swap.
// Queries load the current snapshot pointer and probe it without taking
// any lock, so query latency is unaffected by concurrent ingest; a query
// observes the shard exactly as of some published epoch. Attribute reads
// — a predicate's or a match candidate's — take the mutex for the slot
// lookup only and decode a fresh copy after the unlock (see attrs).
type shard struct {
	cfg Config

	mu      sync.Mutex // serializes all writers and the fields below
	recs    arena      // the memtable's attributes, by memtable slot
	nextID  int64
	epoch   uint64
	inserts uint64
	deletes uint64
	compact uint64

	// Exactly one of sp (sparse methods) or kn (dense) is non-nil.
	vocab *Vocab
	sp    *sparse.IncIndex
	kn    denseIndex

	// tier is the on-disk segment store of a StorageDisk shard (nil
	// under StorageMemory). The index above is then its memtable, which
	// insertAssigned flushes into a new segment at MemtableCap entities.
	tier *segment.Tier

	snap    atomic.Pointer[shardSnap]
	queries atomic.Uint64
	scratch sync.Pool // *sparse.Scratch, shared by all snapshots and lent to their segments
	// Dense only: embedder scratch over the resolver's one word-vector
	// table — fillers for prepare, readers for queries.
	fill, embed sync.Pool

	tel *telemetry // always non-nil; individual metrics may be nil
}

// telemetry is the shard's always-on instrumentation: latency
// histograms for the two costs that define serving behaviour (query
// time and the freeze step of an epoch publish) plus hit counters for
// the two query-side object pools. Every metric is nil-safe, so zeroing
// a field disables its recording — the seam the bare-vs-instrumented
// overhead benchmark uses.
type telemetry struct {
	queryNS       *metrics.Histogram // per-query latency, ns
	freezeNS      *metrics.Histogram // publishLocked freeze cost, ns
	scratchGets   *metrics.Counter   // sparse scratch pool fetches
	scratchMisses *metrics.Counter   // ... that allocated fresh
	embedGets     *metrics.Counter   // dense embedder pool fetches
	embedMisses   *metrics.Counter   // ... that allocated fresh

	// ANN serving telemetry (hnsw only). Every recallProbePeriod-th
	// approximate query also runs the exact oracle and scores overlap,
	// so live recall is observable as hits/want without paying the
	// brute-force cost on every request.
	exactQueries *metrics.Counter // queries forced to the exact path
	recallHits   *metrics.Counter // probe results at/above the oracle cutoff
	recallWant   *metrics.Counter // probe oracle result count
	probeTick    uint64           // atomic; probe sampling counter
}

func newTelemetry() *telemetry {
	return &telemetry{
		queryNS:       &metrics.Histogram{},
		freezeNS:      &metrics.Histogram{},
		scratchGets:   &metrics.Counter{},
		scratchMisses: &metrics.Counter{},
		embedGets:     &metrics.Counter{},
		embedMisses:   &metrics.Counter{},
		exactQueries:  &metrics.Counter{},
		recallHits:    &metrics.Counter{},
		recallWant:    &metrics.Counter{},
	}
}

// recallProbePeriod is the sampling stride of the live recall probe: one
// in this many approximate queries is double-checked against the exact
// oracle. Probing is disabled whenever the recall counters are nil.
const recallProbePeriod = 64

// newShard creates an empty shard serving the (normalized)
// configuration and publishes its first snapshot. A non-nil tier makes
// it disk-backed: the in-memory index is then only the memtable (always
// the exact dense form) and the id watermark resumes from the tier
// manifest. words is the table of the resolver the shard will serve in.
func newShard(cfg Config, words *vector.Table, tier *segment.Tier) *shard {
	r := &shard{cfg: cfg, tel: newTelemetry(), tier: tier}
	tel := r.tel
	r.scratch.New = func() any { tel.scratchMisses.Inc(); return &sparse.Scratch{} }
	r.embed.New = func() any { tel.embedMisses.Inc(); return words.Reader(cfg.Dim) }
	r.fill.New = func() any { return words.Filler(cfg.Dim) }
	r.newMemtable()
	if tier != nil {
		r.nextID = tier.Watermark()
	}
	r.mu.Lock()
	r.publishLocked()
	r.mu.Unlock()
	return r
}

// insertAssigned adds entities under caller-assigned ids in one epoch
// publish: the resolver's global counter allocates ids and routes each
// entity to exactly one shard. Callers guarantee the ids are unused;
// they need not arrive in ascending order. A disk-backed shard cuts the
// batch where the memtable reaches its cap and flushes there, so its
// flushes, segments and memtable are those of one insert per entity.
// A logged shard first rotates the log, which fsyncs every record staged
// so far (seq is the last): a segment never holds an entity the log may
// lose, and the caller may trim below the returned boundary once the
// batch is acknowledged. Its failed flush stops the cutting and waits
// for the next cut or checkpoint; an unlogged shard's is returned.
// Nothing is published on error.
func (r *shard) insertAssigned(ids []int64, batch [][]entity.Attribute, log *wal.WAL) (seq, boundary uint64, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cut := r.tier != nil
	for len(batch) > 0 {
		n := len(batch)
		if cut {
			n = min(n, max(1, r.cfg.MemtableCap-r.mem().Len()))
		}
		if seq, err = r.ingestLocked(ids[:n], batch[:n], log); err != nil {
			return seq, boundary, err
		}
		ids, batch = ids[n:], batch[n:]
		if !cut || r.mem().Len() < r.cfg.MemtableCap {
			continue
		}
		var b uint64
		if log != nil {
			if b, err = log.Rotate(); err != nil {
				return seq, boundary, err
			}
		}
		if err = r.flushLocked(); err == nil {
			boundary = b
		} else if log == nil {
			return seq, boundary, err
		}
		cut, err = err == nil, nil // only a logged shard gets here after a failed flush
	}
	r.publishLocked()
	return seq, boundary, nil
}

// delete removes the entity (removeLocked) and publishes a new epoch. It
// reports whether the id was resident.
func (r *shard) delete(id int64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.removeLocked(id) {
		return false
	}
	r.publishLocked()
	return true
}

// newMemtable gives the shard an empty in-memory index (and, for a
// sparse method, vocabulary) and an empty attribute arena. A disk tier's
// memtable is always the exact dense form.
func (r *shard) newMemtable() {
	r.recs = arena{}
	switch {
	case r.cfg.Method != FlatKNN:
		r.sp, r.vocab = sparse.NewIncIndex(), NewVocab()
	case r.cfg.Dense == DenseHNSW && r.tier == nil:
		r.kn = hnswDense{knn.NewIncHNSW(r.cfg.Metric, r.cfg.HNSW)}
	default:
		r.kn = flatDense{knn.NewIncFlat(r.cfg.Metric)}
	}
}

// mem is the memtable index, whichever kind the method holds.
func (r *shard) mem() memIndex {
	if r.sp != nil {
		return r.sp
	}
	return r.kn
}

func (r *shard) maybeCompactLocked() {
	if m := r.mem(); m.Dead() >= compactMinDead && m.Dead()*compactRatio >= m.Dead()+m.Len() {
		r.recs = r.recs.keep(m.Compact())
		r.compact++
	}
}

// eachLocked calls fn with every live memtable entity in slot order: its
// id and the locator of its record in r.recs. Callers hold r.mu.
func (r *shard) eachLocked(fn func(id int64, loc uint64)) {
	m := r.mem()
	for slot := range int32(m.Slots()) {
		if m.Live(slot) {
			fn(m.ID(slot), r.recs.locs[slot])
		}
	}
}

// publishLocked freezes the write-side state into an immutable snapshot
// and swaps it in. Callers hold mu. The freeze shares everything with
// the writer: the dictionary up to its length, the append-only ids,
// sizes and pages of vector rows, and the pages of the header tables and tombstone
// bitmap, whose directories it copies (≈ 1 100 pointers for a
// 17 500-token vocabulary). The writes before it paid for the pages
// they changed. The telemetry times it, the one part of a publish that still
// grows with the collection.
func (r *shard) publishLocked() {
	r.epoch++
	s := &shardSnap{
		cfg:      r.cfg,
		epoch:    r.epoch,
		getAttrs: r.attrs,
		queries:  &r.queries,
		scratch:  &r.scratch,
		embed:    &r.embed,
		tel:      r.tel,
	}
	begin := time.Now()
	if r.sp != nil {
		s.dict = r.vocab.Frozen()
		s.sp = r.sp.Freeze()
		s.count = s.sp.Len()
	} else {
		s.kn = r.kn.Freeze()
		s.count = s.kn.Len()
	}
	if r.tier != nil {
		s.tier = r.tier.View()
		s.count += s.tier.Live()
	}
	r.tel.freezeNS.ObserveDuration(time.Since(begin))
	r.snap.Store(s)
}

// attrs returns a fresh copy of a resident entity's stored attributes,
// whether it lives in the memtable or a flushed segment. The lock covers
// the id → slot → record lookup only: the record's bytes are never
// rewritten, so it decodes after the unlock.
func (r *shard) attrs(id int64) ([]entity.Attribute, bool) {
	r.mu.Lock()
	slot, ok := r.mem().Slot(id)
	var loc uint64
	if ok {
		loc = r.recs.locs[slot]
	}
	view, tier := r.recs.arenaView, r.tier
	r.mu.Unlock()
	if ok {
		return view.attrs(loc), true
	}
	if tier != nil {
		return tier.View().Get(id)
	}
	return nil, false
}

// ids returns the ids of every resident entity in ascending order,
// whether it lives in the memtable or a flushed segment.
func (r *shard) ids() []int64 {
	r.mu.Lock()
	ids := make([]int64, 0, r.mem().Len())
	r.eachLocked(func(id int64, _ uint64) { ids = append(ids, id) })
	tier := r.tier
	r.mu.Unlock()
	if tier != nil {
		tier.View().EachLive(func(id int64, _ []entity.Attribute) {
			ids = append(ids, id)
		})
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	// A freshly replayed WAL can leave an entity both in the memtable
	// and (as a stale duplicate) in a segment; residency semantics
	// dedupe them, so the id list must too.
	out := ids[:0]
	for i, id := range ids {
		if i == 0 || id != ids[i-1] {
			out = append(out, id)
		}
	}
	return out
}

// close closes the segment tier of a disk-backed shard: it waits out
// any background merge and refuses further writes. Queries still
// running keep their snapshot's segments mapped; close on a memory
// shard is a no-op.
func (r *shard) close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.tier == nil {
		return nil
	}
	return r.tier.Close()
}

// stats summarizes the shard.
func (r *shard) stats() shardStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := shardStats{
		Epoch:       r.epoch,
		Entities:    r.mem().Len(),
		Inserts:     r.inserts,
		Deletes:     r.deletes,
		Compactions: r.compact,
		Queries:     r.queries.Load(),
		Config:      r.cfg.Describe(),
		Tombstones:  r.mem().Dead(),
	}
	if r.sp != nil {
		st.VocabSize = r.vocab.Len()
	}
	if r.tier != nil {
		v := r.tier.View()
		st.Entities += v.Live()
		st.Tombstones += v.Tombstones()
		st.Segments = v.Segments()
		st.DiskBytes = v.DiskBytes()
	}
	return st
}

// registerMetrics exposes the shard's telemetry under its shard label:
// per-method query latency, the freeze cost of each publish, the hit
// rates of the query-side scratch/embedder pools (hits = gets - misses),
// the ANN probe counters and, when disk-backed, the segment tier.
func (r *shard) registerMetrics(reg *metrics.Registry, index string) {
	lbl := metrics.Labels{"shard": index}
	reg.RegisterHistogram("online_query_duration_seconds",
		"Per-query latency (text assembly + index search).",
		metrics.Labels{"method": r.cfg.methodLabel(), "shard": index}, 1e-9, r.tel.queryNS)
	reg.RegisterHistogram("online_publish_freeze_duration_seconds",
		"Freeze cost of each epoch publish (the write-stall component).", lbl, 1e-9, r.tel.freezeNS)
	if r.cfg.Method == FlatKNN {
		reg.RegisterCounter("online_embedder_pool_gets_total",
			"Query-side embedder pool fetches.", lbl, r.tel.embedGets)
		reg.RegisterCounter("online_embedder_pool_misses_total",
			"Embedder pool fetches that allocated fresh scratch space.", lbl, r.tel.embedMisses)
		if r.cfg.Dense == DenseHNSW {
			reg.RegisterCounter("online_ann_exact_queries_total",
				"Dense queries forced to the exact brute-force path.", lbl, r.tel.exactQueries)
			reg.RegisterCounter("online_ann_recall_probe_hits_total",
				"Sampled-probe approximate results at or above the oracle cutoff.", lbl, r.tel.recallHits)
			reg.RegisterCounter("online_ann_recall_probe_expected_total",
				"Sampled-probe oracle result count (recall = hits/expected).", lbl, r.tel.recallWant)
		}
	} else {
		reg.RegisterCounter("online_scratch_pool_gets_total",
			"Query-side sparse scratch pool fetches.", lbl, r.tel.scratchGets)
		reg.RegisterCounter("online_scratch_pool_misses_total",
			"Scratch pool fetches that allocated fresh scratch space.", lbl, r.tel.scratchMisses)
	}
	if r.tier != nil {
		r.tier.RegisterMetrics(reg, lbl)
	}
}

// shardSnap is an immutable view of a shard as of one published epoch.
// Any number of goroutines may query it concurrently; it never blocks
// and never observes later writes.
type shardSnap struct {
	cfg   Config
	epoch uint64
	count int
	dict  vocabView
	sp    *sparse.Index
	kn    denseSnap
	tier  *segment.View // disk tier's read view (nil under StorageMemory)
	// getAttrs resolves a candidate id to a copy of its stored
	// attributes for predicate pushdown. It reads the live shard (an
	// entity's attributes never change while it is resident, so the
	// only post-publish drift is an entity deleted since this epoch,
	// whose candidates are simply filtered out — the answer a query
	// against the next epoch would give anyway).
	getAttrs func(int64) ([]entity.Attribute, bool)
	queries  *atomic.Uint64
	scratch  *sync.Pool
	embed    *sync.Pool
	tel      *telemetry
}

// Trace is the phase breakdown of one traced query: how long the text
// assembly + representation step took (tokenize/encode for sparse
// methods, embed for dense), how long the index search took, and what
// the query saw. It is the per-request counterpart of the aggregate
// latency histograms — the tool for explaining one slow request rather
// than the distribution.
type Trace struct {
	Epoch      uint64        // snapshot epoch the query ran against
	Entities   int           // entities visible to the snapshot
	Encode     time.Duration // text assembly + tokenization/embedding, once per query
	Search     time.Duration // index probe, summed over the rounds
	Rounds     int           // index probes run: 1, or one per over-fetch doubling of a filtered kNN query
	Candidates int           // candidates returned (before any caller cap)
}

// queryTraced resolves an incoming entity against the shard snapshot,
// returning the top candidates best first (ties broken by ascending id)
// and the per-phase timing breakdown of this one request. The entity is
// put through exactly the same text assembly, cleaning, tokenization and
// embedding as the indexed entities were.
func (s *shardSnap) queryTraced(attrs []entity.Attribute, opt QueryOptions) ([]Candidate, Trace) {
	res := s.acquire()
	defer s.release(res)
	return s.queryOne(attrs, opt, res)
}

// queryBatch answers many queries against the same snapshot with one
// scratch/embedder pool checkout, amortizing the pool round-trip across
// a request's worth of queries. Results are identical to len(batch)
// individual queryTraced calls. The returned Trace aggregates the batch:
// encode/search durations, rounds and candidate counts are summed.
func (s *shardSnap) queryBatch(batch [][]entity.Attribute, opt QueryOptions) ([][]Candidate, Trace) {
	agg := Trace{Epoch: s.epoch, Entities: s.count}
	if len(batch) == 0 {
		return nil, agg
	}
	res := s.acquire()
	defer s.release(res)
	out := make([][]Candidate, len(batch))
	for i, attrs := range batch {
		var tr Trace
		out[i], tr = s.queryOne(attrs, opt, res)
		agg.Encode += tr.Encode
		agg.Search += tr.Search
		agg.Rounds += tr.Rounds
		agg.Candidates += tr.Candidates
	}
	return out, agg
}

// queryRes is the pooled per-query state — sparse scratch space or a
// dense embedder, depending on the method — checked out once per query,
// or once per batch so queryBatch pays the pool traffic a single time.
type queryRes struct {
	sc  *sparse.Scratch
	emb *vector.Embedder
}

func (s *shardSnap) acquire() queryRes {
	if s.cfg.Method == FlatKNN {
		// Pooled readers hold scratch only: a word outside the resolver's
		// table is computed for this query and stored nowhere.
		s.tel.embedGets.Inc()
		return queryRes{emb: s.embed.Get().(*vector.Embedder)}
	}
	s.tel.scratchGets.Inc()
	return queryRes{sc: s.scratch.Get().(*sparse.Scratch)}
}

func (s *shardSnap) release(res queryRes) {
	if res.emb != nil {
		s.embed.Put(res.emb)
	} else {
		s.scratch.Put(res.sc)
	}
}

func (s *shardSnap) queryOne(attrs []entity.Attribute, opt QueryOptions, res queryRes) ([]Candidate, Trace) {
	s.queries.Add(1)
	tr := Trace{Epoch: s.epoch, Entities: s.count}
	out := s.query(attrs, opt, &tr, res)
	tr.Candidates = len(out)
	s.tel.queryNS.Observe(tr.Encode.Nanoseconds() + tr.Search.Nanoseconds())
	return out, tr
}

func (s *shardSnap) query(attrs []entity.Attribute, opt QueryOptions, tr *Trace, res queryRes) []Candidate {
	k := s.cfg.K
	if opt.K > 0 {
		k = opt.K
	}
	begin := time.Now()
	q := s.encode(attrs, res)
	tr.Encode = time.Since(begin)
	if !opt.filtered() {
		return s.rawQuery(q, k, opt, tr, res)
	}
	return s.filteredQuery(q, k, opt, tr, res)
}

// encodedQuery is a query after the encode phase — text assembly plus
// the method's representation — which every probe round reuses.
type encodedQuery struct {
	vec  vector.Vec // FlatKNN: the tuple embedding
	toks []string   // sparse: the model's tokens, for the segments' byte-keyed token tables
	ids  []int32    // sparse: the same tokens through the frozen dictionary
}

func (s *shardSnap) encode(attrs []entity.Attribute, res queryRes) encodedQuery {
	txt := s.cfg.TextOf(attrs)
	if s.cfg.Method == FlatKNN {
		return encodedQuery{vec: res.emb.Text(txt)}
	}
	toks := s.cfg.Model.Tokens(txt)
	return encodedQuery{toks: toks, ids: encodeFrozen(&s.dict, toks)}
}

// filteredQuery answers a query whose options carry a pushdown filter,
// returning exactly what an unfiltered query over the sub-collection of
// matching entities would: the filter runs before the cardinality cut,
// not after it.
//
// EpsJoin needs no special handling — its answer is a threshold union
// with no cardinality cut, so filtering the union is filtering the
// universe. FlatKNN and KNNJoin over-fetch: probe at k', drop
// non-matching candidates, and either (a) enough matches survive to
// fill the cut (≥ k candidates for FlatKNN, ≥ k distinct similarity
// values for KNNJoin) or (b) the raw probe came back short of k', which
// proves the index has no further candidates to offer; otherwise double
// k' and retry. The loop terminates because k' eventually exceeds the
// collection size, at which point (b) must hold. Every round probes with
// the one encoded query; the trace counts the rounds and sums their
// search time.
func (s *shardSnap) filteredQuery(q encodedQuery, k int, opt QueryOptions, tr *Trace, res queryRes) []Candidate {
	if s.cfg.Method == EpsJoin {
		return s.applyFilter(s.rawQuery(q, k, opt, tr, res), opt)
	}
	cut := s.cfg.Method.cut()
	for kp := max(k, 1); ; kp *= 2 {
		raw := s.rawQuery(q, kp, opt, tr, res)
		exhausted := cut.Count(raw) < kp
		keep := s.applyFilter(raw, opt)
		if cut.Count(keep) >= k || exhausted {
			return cut.Apply(keep, k)
		}
	}
}

// applyFilter drops candidates failing the options' score floor or
// attribute predicate. The input is sorted (score desc, id asc) and the
// output preserves that order.
func (s *shardSnap) applyFilter(in []Candidate, opt QueryOptions) []Candidate {
	out := make([]Candidate, 0, len(in))
	for _, c := range in {
		if opt.MinScore != nil && c.Score < *opt.MinScore {
			continue
		}
		if opt.Predicate != nil {
			a, ok := s.getAttrs(c.ID)
			if !ok || !opt.Predicate(a) {
				continue
			}
		}
		out = append(out, c)
	}
	return out
}

// rawQuery runs one round of the unfiltered probe at an explicit
// cardinality k (the filtered path calls it with successively doubled k;
// the unfiltered path with the effective k once), adding the round to
// the trace.
func (s *shardSnap) rawQuery(q encodedQuery, k int, opt QueryOptions, tr *Trace, res queryRes) []Candidate {
	begin := time.Now()
	// One part for the memtable index, then one per live segment of a
	// disk-backed snapshot (on the stack up to eight). Each segment keeps
	// a token table of its own and takes the raw token strings; the
	// memtable took the same tokens through the frozen dictionary, so
	// every part scores the identical integer overlaps.
	var buf [8][]hit.Hit
	parts := buf[:0]
	switch s.cfg.Method {
	case FlatKNN:
		parts = append(parts, s.denseSearch(q.vec, k, opt))
		if s.tier != nil {
			parts = s.tier.DenseSearch(parts, q.vec, k)
		}
	case EpsJoin:
		eps := s.cfg.Threshold
		if opt.Threshold > 0 {
			eps = opt.Threshold
		}
		parts = append(parts, s.sp.RangeQuery(q.ids, s.cfg.Measure, eps, res.sc))
		if s.tier != nil {
			parts = s.tier.SparseRange(parts, q.toks, eps, res.sc)
		}
	default: // KNNJoin
		parts = append(parts, s.sp.KNNQuery(q.ids, s.cfg.Measure, k, res.sc))
		if s.tier != nil {
			parts = s.tier.SparseKNN(parts, q.toks, k, res.sc)
		}
	}
	out := hit.Gather(s.cfg.Method.cut(), k, parts...)
	tr.Search += time.Since(begin)
	tr.Rounds++
	return out
}

// denseSearch dispatches a dense query to the snapshot's index. Exact
// indexes ignore the ANN knobs; on an HNSW snapshot opt.Exact falls back
// to the brute-force oracle, opt.Ef widens the beam, and a sampled
// fraction of approximate queries is double-checked against the oracle
// to feed the live recall counters.
func (s *shardSnap) denseSearch(q vector.Vec, k int, opt QueryOptions) []hit.Hit {
	hs, ok := s.kn.(*knn.HNSW)
	if !ok {
		return s.kn.Search(q, k)
	}
	if opt.Exact {
		s.tel.exactQueries.Inc()
		return hs.SearchExact(q, k)
	}
	hits := hs.SearchEf(q, k, opt.Ef)
	s.maybeProbeRecall(hs, q, k, hits)
	return hits
}

// maybeProbeRecall runs the exact oracle for one in recallProbePeriod
// approximate queries and accumulates tie-tolerant overlap@k: a hit is
// any approximate result scoring at or above the oracle's k-th best.
func (s *shardSnap) maybeProbeRecall(hs *knn.HNSW, q vector.Vec, k int, approx []hit.Hit) {
	t := s.tel
	if t.recallHits == nil || t.recallWant == nil {
		return
	}
	if atomic.AddUint64(&t.probeTick, 1)%recallProbePeriod != 0 {
		return
	}
	exact := hs.SearchExact(q, k)
	if len(exact) == 0 {
		return
	}
	cutoff := exact[len(exact)-1].Score
	found := 0
	for _, r := range approx {
		if r.Score >= cutoff {
			found++
		}
	}
	t.recallHits.Add(int64(min(found, len(exact))))
	t.recallWant.Add(int64(len(exact)))
}
