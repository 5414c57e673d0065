// Command erserve is the online resolution daemon: it keeps one tuned
// filtering configuration resident as an incrementally-updatable index
// and answers top-candidate queries over HTTP while entities are
// inserted and deleted, isolating readers from writers through
// epoch-swapped immutable snapshots.
//
//	erserve -bulk shopA.csv -method knnj -k 3 -addr :8654
//	erserve -bulk a.csv -tune b.csv -truth gt.csv -method knnj   # serve the tuned optimum
//	erserve -load resolver.snap                                  # resume from a snapshot
//	erserve -bulk a.csv -wal /var/lib/erserve                    # durable: WAL + checkpoints
//	erserve -bulk a.csv -wal /var/lib/erserve -shards 8          # sharded: parallel ingest
//	erserve -bulk a.csv -method flat -knn-index hnsw             # approximate dense serving
//	erserve -bulk a.csv -storage disk -segment-dir /var/lib/seg  # beyond-RAM: on-disk segment tier
//	erserve -bulk a.csv -wal /var/lib/erserve -storage disk      # durable + bounded memtable
//	erserve -bulk a.csv -method epsjoin -t 0.3 -match            # decide matches, not just candidates
//	erserve -method epsjoin -t 0.3 -match -dirty                 # dirty-ER: inserts return their cluster
//
// With -wal every mutation is written to a write-ahead log and fsynced
// before it is acknowledged, so acked writes survive crashes and power
// loss; on restart the store recovers from the last checkpoint plus the
// log. Without -wal the index is volatile and only -save persists it.
//
// With -shards N the collection is hash-partitioned across N
// independent shards — N writer mutexes, N epoch snapshots and, with
// -wal, N WAL directories (dir/shard-0..N-1) that recover and
// checkpoint in parallel. Queries scatter to every shard and merge
// per-shard top-k lists deterministically, so answers are identical at
// every shard count (-shards 1 is the same code with one part); the
// count is pinned in the store directory on first open.
//
// With -storage disk the resolver keeps only a bounded memtable
// (-memtable-cap entities) in RAM and flushes overflow to immutable
// mmap'd segment files compacted in the background (-merge-fanin),
// answering byte-identically to -storage memory. Volatile runs need
// -segment-dir; with -wal the tier lives under the store directory and
// checkpoints double as flushes. Exact indexes only (no -knn-index
// hnsw).
//
// With -match the daemon runs the match stage on top of the filter: a
// pluggable post-filter scorer (-match-scorer, threshold -match-t)
// re-scores the filtered candidates and a one-to-one assignment
// (-assign greedy or bipartite) decides matches, served by POST
// /v1/match and mode=match on the resolve stream. Adding -dirty turns
// on dirty-ER mode over the single resident collection: every insert
// is decided against the pre-insert snapshot and unioned into its
// duplicate cluster, POST /v1/entities reports {id, cluster, matches}
// per entity, and GET /v1/clusters/{id} reads a cluster back. Clusters
// are rebuilt deterministically on startup from the recovered
// collection (see DESIGN.md §15 for the pair-locality contract).
//
// The HTTP surface is versioned under /v1 — it is the only serving
// surface; the pre-/v1 unversioned aliases are retired and answer 404.
// Every non-2xx response carries the envelope
// {"error":{"code":...,"message":...}}:
//
//	POST   /v1/query          {"attrs":{...}|"text":"...","k":N,"eps":X,"where":"..."} → top candidates
//	POST   /v1/query/batch    {"queries":[{...},...],"k":N,"where":"..."} → per-query candidates, one snapshot
//	POST   /v1/resolve/stream NDJSON feed in → NDJSON results out, resolved in bounded batches (?mode=match decides)
//	POST   /v1/match          {"queries":[...],"budget":N,"top":N} → decided matches (501 without -match)
//	POST   /v1/entities       {"attrs":{...}} or {"entities":[{...},...]} → assigned ids (+clusters with -dirty)
//	GET    /v1/clusters/{id} → duplicate cluster of a resident entity (501 without -match -dirty)
//	GET    /v1/entities/{id} → stored attributes
//	DELETE /v1/entities/{id} → tombstone + re-publish
//	GET    /v1/snapshot      → binary snapshot stream (resumable with -load)
//	GET    /v1/stats         → resolver + durability + per-endpoint latency summary
//	GET    /v1/metrics       → Prometheus text exposition (histograms, counters)
//	GET    /v1/healthz       → process liveness: always ok while serving
//	GET    /v1/readyz        → write readiness: 503 while draining or degraded
//
// Every JSON endpoint caps its request body at -max-body bytes (413
// past it); the resolve stream is instead bounded per NDJSON line by
// -max-line, so a feed of any length streams in O(-max-batch) server
// memory. "where" takes the predicate DSL (see DESIGN.md §14):
// attribute clauses with and/or/not plus score >= t, top N and explain.
//
// Serving-side protection, instrumentation and graceful shutdown live
// in internal/serve; this command is flag parsing, state assembly and
// process lifecycle. The daemon shuts down gracefully on
// SIGTERM/SIGINT: /v1/readyz starts failing, in-flight requests drain,
// every shard's store checkpoints and closes, and, when -save is given,
// a final snapshot is written atomically.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"erfilter/internal/core"
	"erfilter/internal/entity"
	"erfilter/internal/knn"
	"erfilter/internal/match"
	"erfilter/internal/online"
	"erfilter/internal/repl"
	"erfilter/internal/serve"
	"erfilter/internal/text"
	"erfilter/internal/tuning"
)

// options collects every knob of one daemon run; tests fill it directly.
type options struct {
	addr      string
	load      string
	bulk      string
	method    string
	schema    string
	attribute string
	model     string
	clean     bool
	k         int
	threshold float64
	tuneCSV   string
	truthCSV  string
	target    float64
	workers   int
	save      string
	shards    int

	knnIndex string
	hnswM    int
	hnswEfC  int
	hnswEf   int
	hnswSeed uint64

	storage     string
	segmentDir  string
	memtableCap int
	mergeFanin  int

	matchStage  bool
	matchAssign string
	matchScorer string
	matchT      float64
	dirty       bool

	walDir          string
	checkpointEvery int
	writeQueue      int
	requestTimeout  time.Duration
	maxBody         int64
	maxBatch        int
	maxLine         int
	pprof           bool

	replicaOf   string
	follow      bool
	advertise   string
	lease       string
	replAck     int
	maxLag      time.Duration
	maxLagBytes int64
	proxy       string
	probeEvery  time.Duration

	// ready, when set, is invoked with the bound listen address once the
	// server is accepting connections — the test seam for ":0" listeners.
	ready func(addr string)
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":8654", "listen address")
	flag.StringVar(&o.load, "load", "", "resume from a snapshot file (overrides config flags; excludes -bulk, -tune and -wal)")
	flag.StringVar(&o.bulk, "bulk", "", "CSV file of entities to bulk-insert on startup")
	flag.StringVar(&o.method, "method", "knnj", "filter: knnj, epsjoin, flat")
	flag.StringVar(&o.schema, "schema", "agnostic", "schema setting: agnostic or based")
	flag.StringVar(&o.attribute, "attribute", "", "attribute for -schema based")
	flag.StringVar(&o.model, "model", "C3G", "representation model for sparse methods (T1G..C5GM)")
	flag.BoolVar(&o.clean, "clean", true, "apply stop-word removal and stemming")
	flag.IntVar(&o.k, "k", 3, "cardinality threshold for knnj/flat")
	flag.Float64Var(&o.threshold, "t", 0.4, "similarity threshold for epsjoin")
	flag.StringVar(&o.tuneCSV, "tune", "", "second-collection CSV: tune the method against it before serving (requires -bulk and -truth)")
	flag.StringVar(&o.truthCSV, "truth", "", "groundtruth CSV of (bulk,tune) index pairs for -tune")
	flag.Float64Var(&o.target, "target", tuning.DefaultTarget, "recall target for -tune")
	flag.IntVar(&o.workers, "workers", 0, "worker-pool size for -tune grid searches (0 = NumCPU)")
	flag.StringVar(&o.save, "save", "", "write a snapshot to this file on graceful shutdown")
	flag.StringVar(&o.knnIndex, "knn-index", "flat", "dense index for -method flat: flat (exact) or hnsw (approximate, per-query escape hatch via \"approx\": false)")
	flag.IntVar(&o.hnswM, "hnsw-m", 0, "HNSW graph degree (0 = default 16)")
	flag.IntVar(&o.hnswEfC, "hnsw-efc", 0, "HNSW construction beam width (0 = default 100)")
	flag.IntVar(&o.hnswEf, "hnsw-ef", 0, "HNSW query beam width (0 = default 64; raise for recall, lower for latency)")
	flag.Uint64Var(&o.hnswSeed, "hnsw-seed", 0, "HNSW level-assignment seed (any value; same seed + same ops = same graph)")
	flag.StringVar(&o.storage, "storage", "memory", "index storage: memory (all-RAM) or disk (bounded memtable + on-disk segment tier; exact indexes only)")
	flag.StringVar(&o.segmentDir, "segment-dir", "", "segment-tier directory for -storage disk without -wal (a durable store keeps its segments under the -wal directory)")
	flag.IntVar(&o.memtableCap, "memtable-cap", 32768, "with -storage disk, flush the memtable to a segment at this many entities")
	flag.IntVar(&o.mergeFanin, "merge-fanin", 8, "with -storage disk, fold this many segments per background compaction (minimum 2)")
	flag.IntVar(&o.shards, "shards", 1, "hash-partition the resolver across this many independent shards (with -wal, one WAL directory per shard; pinned on first open)")
	flag.BoolVar(&o.matchStage, "match", false, "run the match stage: POST /v1/match and ?mode=match decide matches from the filtered candidates")
	flag.StringVar(&o.matchAssign, "assign", "greedy", "with -match, the one-to-one assignment: greedy or bipartite (maximum-weight)")
	flag.StringVar(&o.matchScorer, "match-scorer", "jaro-winkler", "with -match, the post-filter scorer: jaro-winkler, jaro, levenshtein, token-jaccard")
	flag.Float64Var(&o.matchT, "match-t", match.DefaultThreshold, "with -match, decide a pair when scorer similarity reaches this threshold")
	flag.BoolVar(&o.dirty, "dirty", false, "with -match, dirty-ER mode: inserts join their duplicate cluster, readable via GET /v1/clusters/{id}")
	flag.StringVar(&o.walDir, "wal", "", "durable store directory: WAL every mutation, checkpoint, recover on restart")
	flag.IntVar(&o.checkpointEvery, "checkpoint-every", 4096, "with -wal, rewrite the snapshot and trim the log after this many records")
	flag.IntVar(&o.writeQueue, "write-queue", 64, "max concurrently admitted write requests before shedding with 503")
	flag.DurationVar(&o.requestTimeout, "request-timeout", 30*time.Second, "per-request deadline for JSON endpoints (/v1/snapshot is exempt)")
	flag.Int64Var(&o.maxBody, "max-body", serve.DefaultMaxBody, "JSON request body cap in bytes; larger bodies answer 413 (also caps bodies buffered by -proxy)")
	flag.IntVar(&o.maxBatch, "max-batch", serve.DefaultMaxBatch, "queries per /v1/query/batch request, and the resolve unit of /v1/resolve/stream")
	flag.IntVar(&o.maxLine, "max-line", serve.DefaultMaxLine, "one NDJSON line of /v1/resolve/stream, in bytes; a larger record terminates the stream")
	flag.BoolVar(&o.pprof, "pprof", false, "mount net/http/pprof under /debug/pprof/ for live profiling")
	flag.StringVar(&o.replicaOf, "replica-of", "", "follow this leader URL as a read replica (requires -wal; implies -follow)")
	flag.BoolVar(&o.follow, "follow", false, "start as a follower without an upstream yet (re-parent later via POST /v1/replica-of)")
	flag.StringVar(&o.advertise, "advertise", "", "this node's replication identity — enables the leader-side replication endpoints (default: the listen address)")
	flag.StringVar(&o.lease, "lease", "", "leader lease file on a shared path: fenced failover terms")
	flag.IntVar(&o.replAck, "repl-ack", 0, "semi-sync: follower fetch acks required before a write returns (0 = async)")
	flag.DurationVar(&o.maxLag, "max-lag", 10*time.Second, "follower readiness: fail /v1/readyz after this long without upstream progress")
	flag.Int64Var(&o.maxLagBytes, "max-lag-bytes", 4<<20, "follower readiness: fail /v1/readyz beyond this estimated byte lag")
	flag.StringVar(&o.proxy, "proxy", "", "comma-separated replica URLs: serve as a routing proxy (writes to the leader, reads round-robin) instead of a resolver")
	flag.DurationVar(&o.probeEvery, "probe-every", time.Second, "with -proxy, the replica health-probe interval")
	flag.Parse()
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := validateOptions(o, set); err != nil {
		fmt.Fprintln(os.Stderr, "erserve:", err)
		os.Exit(2)
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "erserve:", err)
		os.Exit(1)
	}
}

// validateOptions rejects, before any file or index is touched, flag
// values that can only misconfigure the daemon — syntax (ranges, enum
// spellings, flags that need or exclude each other) — and a deployment
// online.Topology does not serve. set holds the names of flags the user
// passed explicitly: the HNSW knobs default to 0 meaning "use the
// library default", so a zero is only an error when typed.
func validateOptions(o options, set map[string]bool) error {
	if o.workers < 0 {
		return fmt.Errorf("-workers must be >= 0 (0 selects all CPUs), got %d", o.workers)
	}
	if o.shards < 1 {
		return fmt.Errorf("-shards must be >= 1, got %d", o.shards)
	}
	for _, f := range []struct {
		name string
		val  int
	}{{"hnsw-m", o.hnswM}, {"hnsw-efc", o.hnswEfC}, {"hnsw-ef", o.hnswEf}} {
		if set[f.name] && f.val <= 0 {
			return fmt.Errorf("-%s must be > 0 when set (omit it for the default), got %d", f.name, f.val)
		}
	}
	if o.checkpointEvery < 0 {
		return fmt.Errorf("-checkpoint-every must be >= 0 (0 checkpoints only on shutdown), got %d", o.checkpointEvery)
	}
	if o.memtableCap <= 0 {
		return fmt.Errorf("-memtable-cap must be > 0, got %d", o.memtableCap)
	}
	if o.mergeFanin < 2 {
		return fmt.Errorf("-merge-fanin must be >= 2, got %d", o.mergeFanin)
	}
	if o.maxBody <= 0 {
		return fmt.Errorf("-max-body must be > 0, got %d", o.maxBody)
	}
	if o.maxBatch <= 0 {
		return fmt.Errorf("-max-batch must be > 0, got %d", o.maxBatch)
	}
	if o.maxLine <= 0 {
		return fmt.Errorf("-max-line must be > 0, got %d", o.maxLine)
	}
	t, err := o.topology()
	if err != nil {
		return err
	}
	if t.Storage == online.StorageDisk && !t.Durable && o.segmentDir == "" {
		return fmt.Errorf("-storage disk without -wal requires -segment-dir for the segment tier")
	}
	if o.segmentDir != "" && t.Durable {
		return fmt.Errorf("-segment-dir conflicts with -wal: a durable store keeps its segments under the -wal directory")
	}
	if o.segmentDir != "" && t.Storage != online.StorageDisk {
		return fmt.Errorf("-segment-dir requires -storage disk")
	}
	if _, err := match.ParseAssign(o.matchAssign); err != nil {
		return fmt.Errorf("-assign must be greedy or bipartite, got %q", o.matchAssign)
	}
	if _, err := match.ParseScorer(o.matchScorer); err != nil {
		return fmt.Errorf("-match-scorer must be jaro-winkler, jaro, levenshtein or token-jaccard, got %q", o.matchScorer)
	}
	if o.matchStage {
		if err := (match.Config{Threshold: o.matchT}).Normalize().Validate(); err != nil {
			return fmt.Errorf("-match-t: %v", err)
		}
	} else {
		for _, name := range []string{"assign", "match-scorer", "match-t"} {
			if set[name] {
				return fmt.Errorf("-%s requires -match", name)
			}
		}
	}
	if o.proxy != "" {
		if o.walDir != "" || o.bulk != "" || o.load != "" || o.replicaOf != "" || o.follow || o.matchStage || o.dirty {
			return fmt.Errorf("-proxy serves only as a router; drop the resolver flags")
		}
		return nil
	}
	seeded := o.bulk != "" || o.tuneCSV != ""
	if t.Follower {
		if seeded {
			return fmt.Errorf("a follower takes its state from the leader; drop -bulk/-tune")
		}
		if o.replAck > 0 {
			return fmt.Errorf("-repl-ack is a leader flag; a follower acks by fetching")
		}
	}
	if t.Load && seeded {
		return fmt.Errorf("-load resumes a collection; drop -bulk/-tune")
	}
	if o.tuneCSV != "" && (o.bulk == "" || o.truthCSV == "") {
		return fmt.Errorf("-tune requires -bulk and -truth")
	}
	return t.Validate()
}

// topology reads the deployment the flags describe — the one place
// -storage, -method and -knn-index are parsed: validateOptions and
// buildState take storage, method, index and role from this value. Under
// -load the snapshot names the method and the index, not the flags, and
// online.Load validates what it finds.
func (o options) topology() (t online.Topology, err error) {
	follower := o.follow || o.replicaOf != ""
	t = online.Topology{
		Shards: o.shards, Durable: o.walDir != "", Load: o.load != "", Match: o.matchStage, Dirty: o.dirty,
		Follower: follower, Replicated: follower || o.advertise != "" || o.lease != "" || o.replAck > 0,
	}
	if t.Storage, err = online.ParseStorage(o.storage); err != nil {
		return t, fmt.Errorf("-storage must be memory or disk, got %q", o.storage)
	}
	if t.Load {
		return t, nil
	}
	if t.Method, err = online.ParseMethod(o.method); err != nil {
		return t, fmt.Errorf("-method: %w", err)
	}
	if t.Dense, err = online.ParseDenseIndex(o.knnIndex); err != nil {
		return t, fmt.Errorf("-knn-index: %w", err)
	}
	return t, nil
}

func run(o options) error {
	if o.proxy != "" {
		return runProxy(o)
	}
	st, err := buildState(o)
	if err != nil {
		return err
	}
	mo := matchOptions(o)
	s, err := serve.NewServer(st.res, st.store, serve.Options{
		WriteQueue:     o.writeQueue,
		RequestTimeout: o.requestTimeout,
		MaxBody:        o.maxBody,
		MaxBatch:       o.maxBatch,
		MaxLine:        o.maxLine,
		Pprof:          o.pprof,
		Replication:    st.repl,
		Match:          mo,
	})
	if err != nil {
		st.close()
		return err
	}
	mode := s.Topology().String()
	if mo != nil {
		mode += ": " + mo.Config.Describe()
	}
	if st.repl != nil && st.repl.Role() == repl.RoleDeposed {
		mode += ", role=deposed"
	}
	fmt.Fprintf(os.Stderr, "erserve: serving %s with %d entities on %s [%s]\n",
		s.Resolver().Config().Describe(), s.Resolver().Len(), o.addr, mode)
	// Fail /v1/readyz first so load balancers stop routing, then drain.
	if err := serveUntilSignal(o, s.Handler(), func() { s.SetDraining(true) }); err != nil {
		return err
	}
	// The shutdown snapshot streams first: closing a disk-backed resolver
	// unmaps its segment readers, after which there is nothing to save.
	if o.save != "" {
		if err := s.Resolver().SaveFile(nil, o.save); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "erserve: snapshot saved to %s\n", o.save)
	}
	if err := st.close(); err != nil {
		return fmt.Errorf("closing store: %w", err)
	}
	return nil
}

// serveUntilSignal serves h on o.addr until SIGTERM/SIGINT, then calls
// drain and shuts the listener down gracefully, letting in-flight
// requests finish. The timeouts bound what one slow or stalled client
// can hold: the write timeout is generous because /v1/snapshot streams
// the whole collection, but Save does not hold the resolver lock while
// streaming, so even a client that hits it only costs its own
// connection.
func serveUntilSignal(o options, h http.Handler, drain func()) error {
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       1 * time.Minute,
		WriteTimeout:      5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	if o.ready != nil {
		o.ready(ln.Addr().String())
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "erserve: shutting down")
	drain()
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	return nil
}

// state is the assembled serving backend: a volatile resolver, a
// durable store over one, or a replication node fronting a store.
type state struct {
	res    *online.Resolver // nil when replicated: the node's store owns the current instance
	store  *online.Store    // nil in volatile and replicated modes
	repl   *repl.Node       // nil when unreplicated
	tailer *repl.Tailer     // follower only
}

// close releases whatever owns the files: the node (after its tailer),
// the store (checkpointing every shard), or a volatile resolver's
// segment tiers.
func (st state) close() error {
	switch {
	case st.repl != nil:
		if st.tailer != nil {
			st.tailer.Close()
		}
		return st.repl.Close()
	case st.store != nil:
		return st.store.Close()
	}
	return st.res.Close()
}

// buildState assembles the serving state: a volatile resolver opened
// from the config flags or loaded from a snapshot, or, with -wal, a
// durable store recovered from its directory. The store is the source
// of truth — a bulk CSV only seeds it when it is empty, and the
// checkpointed configuration wins over the config flags.
func buildState(o options) (state, error) {
	t, err := o.topology()
	if err != nil {
		return state{}, err
	}
	if t.Load {
		f, err := os.Open(o.load)
		if err != nil {
			return state{}, err
		}
		defer f.Close()
		var storage online.Config
		applyStorage(&storage, o, t.Storage)
		res, err := online.Load(f, storage, o.shards)
		return state{res: res}, err
	}
	cfg, seed, err := resolveConfig(o, t)
	if err != nil {
		return state{}, err
	}
	if !t.Durable {
		res, err := online.Open(cfg, o.shards)
		if err == nil && len(seed) > 0 {
			begin := time.Now()
			res.InsertBatch(seed)
			reportBulk(len(seed), begin)
		}
		return state{res: res}, err
	}
	store, err := online.OpenStore(o.walDir, cfg, o.shards, online.StoreOptions{CheckpointEvery: o.checkpointEvery})
	if err != nil {
		return state{}, err
	}
	st := state{res: store.Resolver(), store: store}
	if t.Follower {
		return buildFollower(o, store)
	}
	if t.Replicated {
		node, err := repl.NewLeader(store, replNodeOptions(o))
		if err != nil {
			store.Close()
			return state{}, err
		}
		st = state{repl: node}
		if node.Role() != repl.RoleLeader {
			return st, nil // deposed while down: serve reads, seed nothing
		}
	}
	// Seed through the store directly, not the node: semi-sync acks would
	// block a bootstrap with no followers attached yet.
	if len(seed) > 0 && store.Resolver().Len() == 0 {
		begin := time.Now()
		if _, err := store.InsertBatch(seed); err != nil {
			store.Close()
			return state{}, fmt.Errorf("bulk seed: %w", err)
		}
		reportBulk(len(seed), begin)
	}
	return st, nil
}

// reportBulk prints the cost of the -bulk ingest — the index-building
// share of the time to readiness — beside the "serving" banner.
func reportBulk(n int, begin time.Time) {
	fmt.Fprintf(os.Stderr, "erserve: bulk-loaded %d entities in %.2fs\n", n, time.Since(begin).Seconds())
}

// matchOptions folds the -match flags into serve options, nil when the
// match stage is off. validateOptions already vetted the values, so the
// parses here cannot fail.
func matchOptions(o options) *serve.MatchOptions {
	if !o.matchStage {
		return nil
	}
	scorer, _ := match.ParseScorer(o.matchScorer)
	assign, _ := match.ParseAssign(o.matchAssign)
	return &serve.MatchOptions{
		Config: match.Config{Scorer: scorer, Threshold: o.matchT, Assign: assign}.Normalize(),
		Dirty:  o.dirty,
	}
}

// replNodeOptions folds the replication flags into node options.
func replNodeOptions(o options) repl.Options {
	opt := repl.Options{
		ID:          o.advertise,
		AckReplicas: o.replAck,
		MaxLag:      o.maxLag,
		MaxLagBytes: o.maxLagBytes,
	}
	if opt.ID == "" {
		opt.ID = o.addr
	}
	if o.lease != "" {
		dir, name := filepath.Split(o.lease)
		if dir == "" {
			dir = "."
		}
		opt.Lease = repl.NewLease(nil, filepath.Clean(dir), name)
	}
	return opt
}

// buildFollower assembles a read replica over the store a leader would
// open on the same directory — the config flags only describe it until
// the leader's snapshot arrives: the role node and the tailer pulling
// from -replica-of (or idling until POST /v1/replica-of re-parents it).
func buildFollower(o options, store *online.Store) (state, error) {
	node, err := repl.NewFollower(store, replNodeOptions(o))
	if err == nil && o.replicaOf != "" {
		err = node.SetUpstream(o.replicaOf)
	}
	if err != nil {
		store.Close()
		return state{}, err
	}
	return state{repl: node, tailer: repl.StartTailer(node, repl.TailerOptions{})}, nil
}

// runProxy serves the routing proxy over the -proxy replica list.
func runProxy(o options) error {
	var urls []string
	for _, u := range strings.Split(o.proxy, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	p, err := serve.NewProxy(urls, serve.ProxyOptions{ProbeEvery: o.probeEvery, MaxBody: o.maxBody})
	if err != nil {
		return err
	}
	defer p.Close()
	fmt.Fprintf(os.Stderr, "erserve: proxying %d replicas on %s\n", len(urls), o.addr)
	return serveUntilSignal(o, p.Handler(), func() {})
}

// resolveConfig turns the config flags into a serving configuration —
// tuned against a second collection when -tune is given — plus the
// entities of the -bulk CSV, if any.
func resolveConfig(o options, t online.Topology) (online.Config, [][]entity.Attribute, error) {
	setting := entity.SchemaAgnostic
	if o.schema == "based" {
		setting = entity.SchemaBased
	}
	var ds *entity.Dataset
	var seed [][]entity.Attribute
	if o.bulk != "" {
		var err error
		ds, err = readCSVFile(o.bulk, "bulk")
		if err != nil {
			return online.Config{}, nil, err
		}
		seed = make([][]entity.Attribute, len(ds.Profiles))
		for i := range ds.Profiles {
			seed[i] = ds.Profiles[i].Attrs
		}
	}

	var cfg online.Config
	if o.tuneCSV != "" {
		var err error
		cfg, err = tuneConfig(ds, o.tuneCSV, o.truthCSV, t.Method, setting, o.attribute, o.target, o.workers)
		if err != nil {
			return online.Config{}, nil, err
		}
	} else {
		model, err := text.ParseModel(o.model)
		if err != nil {
			return online.Config{}, nil, err
		}
		cfg = online.Config{
			Method: t.Method, Setting: setting, BestAttribute: o.attribute,
			Clean: o.clean, Model: model, K: o.k, Threshold: o.threshold,
		}
	}
	// A tuned config keeps its tuned parameters and swaps just the index.
	if cfg.Dense = t.Dense; t.Dense == online.DenseHNSW {
		cfg.HNSW = knn.HNSWParams{M: o.hnswM, EfConstruction: o.hnswEfC, EfSearch: o.hnswEf, Seed: o.hnswSeed}
	}
	applyStorage(&cfg, o, t.Storage)
	return cfg, seed, nil
}

// applyStorage folds the -storage flags into the serving config.
// Deployment shape only: these fields never enter snapshots, and a
// segment tier's manifest pins its own semantic config on reopen.
func applyStorage(cfg *online.Config, o options, kind online.StorageKind) {
	if kind == online.StorageDisk {
		cfg.Storage, cfg.SegmentDir, cfg.MemtableCap, cfg.MergeFanin = kind, o.segmentDir, o.memtableCap, o.mergeFanin
	}
}

// tuneConfig runs the Problem-1 grid search for the method over the
// (bulk, tune) collection pair and promotes the winning configuration
// into a serving config.
func tuneConfig(e1 *entity.Dataset, tuneCSV, truthCSV string, method online.Method,
	setting entity.SchemaSetting, attribute string, target float64, workers int) (online.Config, error) {

	e2, err := readCSVFile(tuneCSV, "tune")
	if err != nil {
		return online.Config{}, err
	}
	tf, err := os.Open(truthCSV)
	if err != nil {
		return online.Config{}, err
	}
	truth, err := entity.ReadGroundTruthCSV(tf, e1.Len(), e2.Len())
	tf.Close()
	if err != nil {
		return online.Config{}, err
	}
	if truth.Size() == 0 {
		return online.Config{}, fmt.Errorf("-tune requires a non-empty groundtruth")
	}
	task := &entity.Task{Name: "erserve", E1: e1, E2: e2, Truth: truth}
	if attribute != "" {
		task.BestAttribute = attribute
	} else {
		task.BestAttribute = entity.BestAttribute(task)
	}
	in := core.NewInput(task, setting)

	var r *tuning.Result
	switch method {
	case online.KNNJoin:
		space := tuning.DefaultSparseSpace(false)
		space.Workers = workers
		r = tuning.TuneKNNJoin(in, space, target)
	case online.EpsJoin:
		space := tuning.DefaultSparseSpace(false)
		space.Workers = workers
		r = tuning.TuneEpsJoin(in, space, target)
	case online.FlatKNN:
		space := tuning.DefaultDenseSpace(false)
		space.Workers = workers
		r, err = tuning.TuneFlatKNN(in, space, target)
		if err != nil {
			return online.Config{}, err
		}
	}
	fmt.Fprintf(os.Stderr, "erserve: tuned %s: PC=%.3f PQ=%.3f config{%s}\n",
		r.Method, r.Metrics.PC, r.Metrics.PQ, r.ConfigString())
	return online.FromTuning(r, setting, task.BestAttribute)
}

func readCSVFile(path, name string) (*entity.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return entity.ReadCSV(name, f)
}
