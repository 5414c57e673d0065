package online

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"erfilter/internal/entity"
	"erfilter/internal/faultfs"
	"erfilter/internal/frame"
	"erfilter/internal/metrics"
	"erfilter/internal/segment"
	"erfilter/internal/vector"
	"erfilter/internal/wal"
)

// shardStore is the crash-safe shell around one shard of a Store: every
// insert and delete is framed into the shard's write-ahead log and
// fsynced (group commit) before the call returns, so an acknowledged
// write survives any crash; checkpoints rewrite the snapshot atomically
// (temp file + fsync + rename) and trim the WAL segments the snapshot
// made obsolete; and on open, the last good snapshot plus the intact
// WAL prefix reconstruct exactly the acknowledged state — the recovery
// path truncates at the first torn record instead of failing.
//
// Failure semantics: a WAL write or fsync error degrades the shard to
// read-only for the life of its log — queries keep serving from the
// in-memory index, writes fail fast with ErrDegraded — because a log
// that cannot persist must not acknowledge (only a follower's Bootstrap,
// which replaces the log, lifts it). A failed checkpoint, by contrast,
// is retried later: the WAL still holds every record, so durability is
// unaffected.
//
// Mutations already applied in memory may become visible to queries
// moments before their fsync completes (read-uncommitted); the
// durability contract covers acknowledged writes only.
type shardStore struct {
	fs  faultfs.FS
	dir string

	every    int   // auto-checkpoint period in WAL records; 0 = manual only
	segBytes int64 // WAL size-rotation threshold; 0 = the WAL's default

	mu        sync.Mutex // serializes writers: WAL staging, apply order
	sh        *shard     // replaced, under mu, by a follower's Bootstrap
	sinceCkpt int

	// log is the shard's write-ahead log. The instance changes only when
	// a follower's Bootstrap reopens it at a new anchor, so readers load
	// it per use.
	log atomic.Pointer[wal.WAL]

	// Replication state (see repl.go). following marks a store fed by
	// Apply instead of local writes: the directory holds the repl-meta
	// anchor. base is that anchor's position; promoted (under mu) marks a
	// store that has taken leadership and therefore refuses Bootstrap.
	following atomic.Bool
	base      wal.Position
	promoted  bool

	ckptBusy    atomic.Bool
	checkpoints atomic.Uint64
	ckptNS      metrics.Histogram // end-to-end checkpoint cost, ns

	// term is the highest replication fencing term this log carries
	// (the walTerm record type); 0 on a log that has never replicated.
	term atomic.Uint64

	degraded atomic.Bool
	reasonMu sync.Mutex
	reason   error
}

// ErrDegraded is wrapped by every write rejected because the store has
// fallen back to read-only after a WAL failure.
var ErrDegraded = errors.New("online: store is degraded (read-only)")

// StoreOptions tune a durable store; the zero value is production-ready.
type StoreOptions struct {
	// FS is the file-system seam; nil selects the real OS.
	FS faultfs.FS
	// SegmentBytes is the WAL segment rotation threshold (default 8 MiB).
	SegmentBytes int64
	// CheckpointEvery rewrites the snapshot and trims the WAL after this
	// many logged records; 0 checkpoints only on Close (or manually).
	CheckpointEvery int
}

// WAL record types and the snapshot file names inside a store directory.
const (
	walInsert uint8 = 1
	walDelete uint8 = 2
	// walTerm carries a monotonic replication fencing term (u64). It is
	// appended at promotion and replicated in-stream, so every follower
	// learns the new leadership epoch from the log itself and a deposed
	// leader's stream is recognizably stale.
	walTerm uint8 = 3

	snapName = "current.snap"
	tempName = "current.snap.tmp"

	// segmentsDirName is the segment-tier subdirectory of a StorageDisk
	// store; the WAL and the tier share the store directory.
	segmentsDirName = "segments"
)

// openShardStore opens (or initializes) one shard's durable state in
// dir.
//
// Under StorageMemory it loads the last good snapshot if one exists —
// its configuration wins over cfg — then replays the WAL on top of it.
// Under StorageDisk the durable bulk lives in the segment tier at
// dir/segments (the tier manifest's configuration wins); WAL replay
// repopulates only the memtable, skipping records already flushed into
// segments. Replay is idempotent either way, so a crash between a
// checkpoint's commit and its WAL trim only costs re-replaying records
// the checkpoint already absorbed.
//
// A directory created under one storage kind refuses to open under the
// other: silently ignoring a snapshot (or a segment tier) would serve
// a partial collection as if it were complete.
func openShardStore(dir string, cfg Config, words *vector.Table, opt StoreOptions) (*shardStore, error) {
	fsys := opt.FS
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("online: creating store dir: %w", err)
	}
	// A leftover temp file is a checkpoint a crash interrupted before
	// the atomic rename; it was never activated, so drop it.
	_ = fsys.Remove(filepath.Join(dir, tempName))
	_ = fsys.Remove(filepath.Join(dir, replMetaTemp))

	snapPath := filepath.Join(dir, snapName)
	segDir := filepath.Join(dir, segmentsDirName)
	hasSnap, err := faultfs.Exists(fsys, snapPath)
	if err != nil {
		return nil, fmt.Errorf("online: probing snapshot: %w", err)
	}
	hasTier, err := segment.Exists(fsys, segDir)
	if err != nil {
		return nil, fmt.Errorf("online: probing segment tier: %w", err)
	}
	var sh *shard
	switch {
	case cfg.Storage == StorageDisk && hasSnap:
		return nil, fmt.Errorf("online: store at %s was created with -storage memory (found %s); reopen it with -storage memory or migrate via save/load", dir, snapName)
	case cfg.Storage != StorageDisk && hasTier:
		return nil, fmt.Errorf("online: store at %s was created with -storage disk (found a segment tier); reopen it with -storage disk or migrate via save/load", dir)
	case cfg.Storage == StorageDisk:
		// Every flush is fenced by a checkpoint's or a cut's WAL rotation.
		sh, err = openDiskShard(cfg, words, fsys, segDir)
	default:
		sh, err = loadOrCreate(fsys, snapPath, cfg, words)
	}
	if err != nil {
		return nil, err
	}
	s := &shardStore{sh: sh, fs: fsys, dir: dir, every: opt.CheckpointEvery, segBytes: opt.SegmentBytes}
	// The repl-meta anchor marks a follower's directory: it carries the
	// fencing term across trims and names the segment an empty log
	// resumes at. Without one the directory opens as what it is — a fresh
	// store, or one that has only ever led.
	base, term, anchored, err := readReplMeta(fsys, filepath.Join(dir, replMetaName))
	if err != nil {
		return nil, err
	}
	s.base = base
	s.term.Store(term)
	s.following.Store(anchored)

	sh.mu.Lock()
	log, err := s.openLog(func(rec wal.Record) error { return s.replay(sh, rec) })
	if err == nil {
		sh.publishLocked()
	}
	sh.mu.Unlock()
	if err != nil {
		return nil, err
	}
	s.log.Store(log)
	return s, nil
}

// openLog recovers the shard's log through replay. An empty log starts
// at the anchor's segment, so a follower's first segment carries the
// leader's index (segment 1 when the directory has no anchor).
func (s *shardStore) openLog(replay func(wal.Record) error) (*wal.WAL, error) {
	return wal.OpenAt(s.dir, wal.Options{FS: s.fs, SegmentBytes: s.segBytes}, max(s.base.Seg, 1), replay)
}

// replay applies one log record to sh — during recovery, and on a
// follower for every record the leader ships. Callers hold sh.mu.
func (s *shardStore) replay(sh *shard, rec wal.Record) error {
	if rec.Type == walTerm {
		return s.replayTerm(rec)
	}
	return sh.replayLocked(rec)
}

// loadOrCreate restores a memory shard from its checkpoint snapshot —
// graph section and all — or creates an empty one under cfg when the
// store has never checkpointed.
func loadOrCreate(fsys faultfs.FS, snapPath string, cfg Config, words *vector.Table) (*shard, error) {
	f, err := faultfs.Open(fsys, snapPath)
	if errors.Is(err, fs.ErrNotExist) {
		return newShard(cfg, words, nil), nil
	}
	if err != nil {
		return nil, fmt.Errorf("online: opening snapshot: %w", err)
	}
	defer f.Close()
	res, err := load(f, Config{}, 1, words)
	if err != nil {
		return nil, fmt.Errorf("online: store snapshot is damaged (restore from a replica or remove %s to lose the checkpoint): %w", snapPath, err)
	}
	return res.shards[0], nil
}

// replayLocked applies one WAL record during recovery. Callers hold
// r.mu. Inserts of already-resident ids are records a checkpoint
// already absorbed (the crash-between-checkpoint-commit-and-trim
// window) and are skipped — on a disk-backed shard "resident"
// includes entities a flush moved into the segment tier. Residency —
// not an id watermark — is the skip test because the store assigns
// globally monotonic ids that land in each shard's WAL out of order.
// Deletes fall through the memtable to the tier: a tombstone a crash
// caught before its manifest commit is re-applied from its WAL record.
// An absorbed insert whose entity was later deleted replays as
// re-add followed by its own delete record (WAL order equals
// application order), which nets out correctly.
func (r *shard) replayLocked(rec wal.Record) error {
	switch rec.Type {
	case walInsert:
		id, attrs, err := decodeInsert(rec.Data)
		if err != nil {
			return err
		}
		r.nextID = max(r.nextID, id+1) // also when the record is skipped
		if r.hasLocked(id) {
			return nil
		}
		p := r.prepare(id, attrs, false, r.vecSlab(1))
		r.commitLocked(&p)
	case walDelete:
		v, err := decodeU64(rec.Data, "delete")
		if err != nil {
			return err
		}
		r.removeLocked(int64(v))
	default:
		return fmt.Errorf("online: unknown WAL record type %d", rec.Type)
	}
	return nil
}

// ready reports whether the shard accepts writes; when degraded it also
// returns the failure that forced read-only mode.
func (s *shardStore) ready() (bool, error) {
	if !s.degraded.Load() {
		return true, nil
	}
	s.reasonMu.Lock()
	defer s.reasonMu.Unlock()
	return false, s.reason
}

func (s *shardStore) degrade(err error) {
	s.reasonMu.Lock()
	if s.reason == nil {
		s.reason = err
	}
	s.reasonMu.Unlock()
	s.degraded.Store(true)
}

// heal lifts a degradation once a follower's Bootstrap has replaced the
// log and the durable state wholesale: nothing the failure touched is
// left.
func (s *shardStore) heal() {
	s.reasonMu.Lock()
	s.reason = nil
	s.reasonMu.Unlock()
	s.degraded.Store(false)
}

func (s *shardStore) writeable() error {
	if ok, reason := s.ready(); !ok {
		return fmt.Errorf("%w: %v", ErrDegraded, reason)
	}
	return nil
}

// logged runs one write under the store lock and acknowledges it. apply
// stages the write's records in log before it applies them, and returns
// the last one's seq, its cut boundary (see shard.insertAssigned) and
// how many records count toward the checkpoint period. On a nil error
// every record is fsynced and survives any crash; a log failure
// degrades the store.
func (s *shardStore) logged(apply func(r *shard, log *wal.WAL) (seq, cut uint64, n int, err error)) error {
	if err := s.writeable(); err != nil {
		return err
	}
	s.mu.Lock()
	log := s.log.Load()
	seq, cut, n, err := apply(s.sh, log)
	s.sinceCkpt += n
	ckpt := s.ckptDueLocked(err)
	s.mu.Unlock()
	if err == nil {
		err = log.WaitSync(seq)
	}
	if err != nil {
		s.degrade(err)
		return err
	}
	s.afterAck(ckpt, cut)
	return nil
}

// insertAssigned durably inserts the batch under caller-assigned ids in
// one epoch publish and — thanks to WAL group commit — typically one
// fsync. Callers guarantee the ids are unused; they need not arrive in
// ascending order (replay handles out-of-order ids).
func (s *shardStore) insertAssigned(ids []int64, batch [][]entity.Attribute) error {
	return s.logged(func(r *shard, log *wal.WAL) (uint64, uint64, int, error) {
		seq, cut, err := r.insertAssigned(ids, batch, log)
		return seq, cut, len(batch), err
	})
}

// delete durably tombstones an entity; ok reports residency. A nil
// error with ok=true means the delete is fsynced and will survive any
// crash.
func (s *shardStore) delete(id int64) (ok bool, err error) {
	err = s.logged(func(r *shard, log *wal.WAL) (seq, _ uint64, n int, err error) {
		r.mu.Lock()
		defer r.mu.Unlock()
		if ok = r.hasLocked(id); !ok { // never log a delete of a non-resident id
			return 0, 0, 0, nil
		}
		if seq, err = log.AppendBuffered(walDelete, encodeU64(uint64(id))); err == nil { // log before apply
			r.removeLocked(id)
			r.publishLocked()
		}
		return seq, 0, 1, err
	})
	return ok && err == nil, err
}

// ckptDueLocked decides, under s.mu, whether this write crossed the
// auto-checkpoint period.
func (s *shardStore) ckptDueLocked(werr error) bool {
	return werr == nil && s.every > 0 && s.sinceCkpt >= s.every
}

// afterAck runs a checkpoint an acknowledged write made due, or else
// the trim that ends the checkpoint its last cut flush began. Best
// effort: the log still holds everything, so the write stays acked.
func (s *shardStore) afterAck(due bool, cut uint64) {
	if due {
		_ = s.checkpoint()
	} else if cut > 0 && s.ckptBusy.CompareAndSwap(false, true) {
		_ = s.trim(s.log.Load(), cut)
		s.ckptBusy.Store(false)
	}
}

// checkpoint makes the durable state catch up with the log: fix a
// boundary segment such that every record below it is already applied,
// persist the shard — a snapshot file written to a temp name, fsynced
// and atomically renamed under StorageMemory; a memtable flush (which
// also commits pending tier tombstones and the id watermark into the
// manifest) under StorageDisk — and only then trim the segments below
// the boundary. Boundary and capture are fenced under the store and
// shard locks, so the persisted cut holds every record the trim will
// delete. A crash at any point leaves either the old state with the
// full WAL or the new state with a replay-idempotent WAL suffix — never
// a damaged store; a failed persist leaves the WAL untrimmed and is
// retried later. Writers stall for the capture (and, on disk, the
// flush), not for the snapshot write.
func (s *shardStore) checkpoint() error {
	if err := s.writeable(); err != nil {
		return err // a failed write's staged entities must stay unpublished
	}
	if !s.ckptBusy.CompareAndSwap(false, true) {
		return nil // a checkpoint is already running
	}
	defer s.ckptBusy.Store(false)
	begin := time.Now()
	defer func() { s.ckptNS.ObserveDuration(time.Since(begin)) }()

	s.mu.Lock()
	log := s.log.Load()
	boundary, err := s.boundaryLocked(log)
	var persist func() error
	if err == nil {
		persist = s.persistLocked(s.sh)
	}
	s.mu.Unlock()
	if err != nil {
		return err
	}
	if err := persist(); err != nil {
		return fmt.Errorf("online: checkpoint: %w", err)
	}
	return s.trim(log, boundary)
}

// boundaryLocked fixes the segment index a checkpoint trims below; with
// trim, it is where a leader's store and a follower's differ. A leader
// rotates its log. A follower may not write its log — every byte is the
// leader's — so it takes the leader's last segment cut and restates the
// term in the anchor. Callers hold s.mu; a log failure degrades.
func (s *shardStore) boundaryLocked(log *wal.WAL) (uint64, error) {
	if s.following.Load() {
		if err := writeReplMeta(s.fs, s.dir, s.base, s.term.Load()); err != nil {
			return 0, fmt.Errorf("online: checkpoint anchor: %w", err)
		}
		return log.Pos().Seg, nil
	}
	boundary, err := log.Rotate()
	if err != nil {
		s.degrade(err)
	}
	return boundary, err
}

// trim ends a checkpoint whose durable state holds every record below
// boundary: a leader first restates its fencing term above the boundary
// as a walTerm record, since the trim may take the last one, then the
// segments below the boundary go.
func (s *shardStore) trim(log *wal.WAL, boundary uint64) error {
	if t := s.term.Load(); t > 0 && !s.following.Load() {
		if err := log.Append(walTerm, encodeU64(t)); err != nil {
			s.degrade(err)
			return err
		}
	}
	if err := log.TrimBefore(boundary); err != nil {
		return err
	}
	s.checkpoints.Add(1)
	return nil
}

// persistLocked captures r under the store lock and returns the step
// that completes making the capture durable — the shared half of a
// checkpoint and of a follower's Bootstrap. Under StorageDisk the
// memtable flush runs here, under the locks, and the returned step only
// reports its outcome; under StorageMemory the returned step writes the
// snapshot file and is meant to run after the locks are released.
func (s *shardStore) persistLocked(r *shard) func() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.tier != nil {
		err := r.flushLocked()
		if err == nil {
			s.sinceCkpt = 0
		}
		r.publishLocked()
		return func() error { return err }
	}
	nextID, ents, graph := r.captureLocked(true)
	s.sinceCkpt = 0
	return func() error {
		return faultfs.WriteFileAtomic(s.fs, s.dir, tempName, snapName, func(w io.Writer) error {
			return writeSnapshot(w, r.cfg, nextID, ents, graph)
		})
	}
}

// close checkpoints (when healthy), closes the WAL, and closes the
// segment tier of a disk-backed shard. The shards a bootstrap replaced
// were closed when it dropped their tiers; their mappings, like the
// current shard's, go with the last snapshot that reaches them.
func (s *shardStore) close() error {
	var err error
	if ok, _ := s.ready(); ok {
		err = s.checkpoint()
	}
	if cerr := s.log.Load().Close(); err == nil && cerr != nil {
		err = cerr
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if cerr := s.sh.close(); err == nil && cerr != nil {
		err = cerr
	}
	return err
}

// shardStoreStats extends one shard's WAL counters with its checkpoint
// and degradation state: a per_shard entry of StoreStats.
type shardStoreStats struct {
	WAL         wal.Stats `json:"wal"`
	Checkpoints uint64    `json:"checkpoints"`
	Degraded    bool      `json:"degraded"`
	Reason      string    `json:"reason,omitempty"`
}

func (s *shardStore) stats() shardStoreStats {
	st := shardStoreStats{WAL: s.log.Load().Stats(), Checkpoints: s.checkpoints.Load()}
	if ok, reason := s.ready(); !ok {
		st.Degraded = true
		if reason != nil {
			st.Reason = reason.Error()
		}
	}
	return st
}

// The WAL record payloads. The log's record frame carries the length and
// the checksum; these are bare field runs in the frame encoding. A
// decoder reads the fields it knows and ignores what follows.

// encodeInsert: u64 id, then the attribute block. Every logged insert has
// passed CheckEntity (Store.InsertBatch), so the block cannot be refused;
// a refused one must never reach the log as a half-written record.
func encodeInsert(id int64, attrs []entity.Attribute) []byte {
	w := frame.Buffer(8 + frame.AttrsLen(attrs))
	w.U64(uint64(id))
	if frame.PutAttrs(w, attrs); w.Err() != nil {
		panic(fmt.Sprintf("online: logging an entity that skipped CheckEntity: %v", w.Err()))
	}
	return w.Buf()
}

func decodeInsert(data []byte) (int64, []entity.Attribute, error) {
	c := frame.At(data, 0)
	id := int64(c.U64())
	attrs := frame.TakeAttrs[entity.Attribute](&c)
	if c.Err() != nil {
		return 0, nil, fmt.Errorf("online: decoding insert record: %w", c.Err())
	}
	return id, attrs, nil
}

// encodeU64 is the whole payload of a delete (the id) and of a term
// record (the fencing term).
func encodeU64(v uint64) []byte {
	w := frame.Buffer(8)
	w.U64(v)
	return w.Buf()
}

func decodeU64(data []byte, what string) (uint64, error) {
	c := frame.At(data, 0)
	v := c.U64()
	if c.Err() != nil {
		return 0, fmt.Errorf("online: decoding %s record: %w", what, c.Err())
	}
	return v, nil
}
