package online

// FollowerStore is the replica-side store: a one-shard resolver fed not
// by client writes but by raw WAL bytes mirrored from a leader. Its
// on-disk layout is the leader's — current.snap plus wal-*.seg files —
// with one addition, the repl-meta anchor recording the bootstrap
// position and term. Crash recovery is the ordinary store recovery (load snapshot,
// replay the mirrored log, truncate the torn tail); promotion hands the
// mirrored log to a real WAL and returns a fully writable one-shard
// Store over the same resolver.
//
// Bootstrap writes in an order that keeps every crash window safe:
//
//  1. delete repl-meta        — the replica is now "not bootstrapped";
//  2. write current.snap      — validated before the atomic rename;
//  3. write repl-meta         — the new anchor becomes visible;
//  4. open the mirror at pos  — which deletes stale segments below it.
//
// A crash before 3 leaves no anchor, so the next open re-bootstraps
// from scratch; a crash after 3 leaves stale pre-anchor segments that
// the mirror open deletes unread. At no point can old log records
// replay onto a newer snapshot's state out of order.

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"sync"

	"erfilter/internal/faultfs"
	"erfilter/internal/segment"
	"erfilter/internal/wal"
)

const (
	replMetaName = "repl-meta"
	replMetaTemp = "repl-meta.tmp"
)

// ErrNotBootstrapped is returned by operations that need follower state
// before the first successful Bootstrap.
var ErrNotBootstrapped = errors.New("online: follower not bootstrapped")

// FollowerStore mirrors a leader's log into a local resolver. All
// methods are safe for concurrent use; Apply calls are serialized by
// the owning tailer.
type FollowerStore struct {
	fs  faultfs.FS
	dir string
	opt StoreOptions

	mu        sync.Mutex
	res       *Resolver // nil until bootstrapped
	mir       *wal.Mirror
	base      wal.Position // the anchor from repl-meta
	term      uint64
	applied   uint64 // records applied since open
	sinceCkpt int
	closed    bool
}

// OpenFollower opens (or initializes) the follower state in dir. When
// the directory holds no bootstrap anchor — a fresh dir, or an
// ex-leader's dir, whose snapshot carries no position — the follower
// comes up un-bootstrapped and must Bootstrap before serving.
func OpenFollower(dir string, opt StoreOptions) (*FollowerStore, error) {
	fsys := opt.FS
	if fsys == nil {
		fsys = faultfs.OS{}
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("online: creating follower dir: %w", err)
	}
	_ = fsys.Remove(filepath.Join(dir, tempName))
	_ = fsys.Remove(filepath.Join(dir, replMetaTemp))
	if hasTier, err := segment.Exists(fsys, filepath.Join(dir, segmentsDirName)); err != nil {
		return nil, fmt.Errorf("online: probing segment tier: %w", err)
	} else if hasTier {
		return nil, fmt.Errorf("online: %s holds a -storage disk tier; followers replicate into memory-storage dirs", dir)
	}
	f := &FollowerStore{fs: fsys, dir: dir, opt: opt}

	base, term, ok, err := readReplMeta(fsys, filepath.Join(dir, replMetaName))
	if err != nil {
		return nil, err
	}
	if !ok {
		return f, nil
	}
	snapPath := filepath.Join(dir, snapName)
	if hasSnap, err := fileExists(fsys, snapPath); err != nil {
		return nil, fmt.Errorf("online: probing snapshot: %w", err)
	} else if !hasSnap {
		// An anchor without its snapshot cannot happen in the bootstrap
		// order; treat the dir as un-bootstrapped rather than serve a
		// zero-state replica.
		return f, nil
	}
	sh, err := loadOrCreate(fsys, snapPath, Config{})
	if err != nil {
		return nil, err
	}
	f.base, f.term = base, term
	sh.mu.Lock()
	mir, err := wal.OpenMirror(dir, wal.Options{FS: fsys, SegmentBytes: opt.SegmentBytes}, base,
		func(rec wal.Record) error { return f.replayLocked(sh, rec) })
	if err == nil {
		sh.publishLocked()
	}
	sh.mu.Unlock()
	if err != nil {
		return nil, err
	}
	f.res, f.mir = newResolverOver([]*shard{sh}), mir
	return f, nil
}

// replayLocked applies one mirrored record; callers hold sh.mu.
func (f *FollowerStore) replayLocked(sh *shard, rec wal.Record) error {
	if rec.Type == walTerm {
		t, err := decodeTerm(rec.Data)
		if err != nil {
			return err
		}
		if t > f.term {
			f.term = t
		}
		return nil
	}
	return sh.replayLocked(rec)
}

// readReplMeta parses the bootstrap anchor; ok is false when the file
// is absent or unparsable (either way: not bootstrapped).
func readReplMeta(fsys faultfs.FS, path string) (pos wal.Position, term uint64, ok bool, err error) {
	fh, err := faultfs.Open(fsys, path)
	if errors.Is(err, fs.ErrNotExist) {
		return wal.Position{}, 0, false, nil
	}
	if err != nil {
		return wal.Position{}, 0, false, fmt.Errorf("online: opening repl meta: %w", err)
	}
	defer fh.Close()
	data, err := io.ReadAll(fh)
	if err != nil {
		return wal.Position{}, 0, false, fmt.Errorf("online: reading repl meta: %w", err)
	}
	var posStr string
	if _, serr := fmt.Sscanf(string(data), "ERREPL 1\npos %s\nterm %d\n", &posStr, &term); serr != nil {
		return wal.Position{}, 0, false, nil
	}
	if pos, err = wal.ParsePosition(posStr); err != nil {
		return wal.Position{}, 0, false, nil
	}
	return pos, term, true, nil
}

func writeReplMeta(fsys faultfs.FS, dir string, pos wal.Position, term uint64) error {
	return faultfs.WriteFileAtomic(fsys, dir, replMetaTemp, replMetaName, func(w io.Writer) error {
		_, err := fmt.Fprintf(w, "ERREPL 1\npos %s\nterm %d\n", pos, term)
		return err
	})
}

// Bootstrapped reports whether the follower holds replica state.
func (f *FollowerStore) Bootstrapped() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.res != nil
}

// Resolver returns the replica's resolver for the read paths, or nil
// before the first bootstrap. The instance changes on re-bootstrap;
// callers must not cache it.
func (f *FollowerStore) Resolver() *Resolver {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.res
}

// Pos returns the durable end of the mirrored log — the follower's
// epoch, and the from= of its next fetch.
func (f *FollowerStore) Pos() (wal.Position, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.mir == nil {
		return wal.Position{}, ErrNotBootstrapped
	}
	return f.mir.Pos(), nil
}

// Term returns the highest fencing term the follower has seen.
func (f *FollowerStore) Term() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.term
}

// Applied returns the count of records applied since open.
func (f *FollowerStore) Applied() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.applied
}

// Bootstrap (re)initializes the replica from a leader snapshot stream
// anchored at pos (a rotation boundary). Any existing replica state is
// discarded — this is both first contact and the divergence recovery
// path. The stream is fully validated before it replaces anything.
func (f *FollowerStore) Bootstrap(pos wal.Position, term uint64, snap io.Reader) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return fmt.Errorf("online: follower closed")
	}
	// Step 1: drop the anchor. From here until step 3 lands, a crash
	// leaves an un-bootstrapped dir that simply re-bootstraps.
	if err := f.fs.Remove(filepath.Join(f.dir, replMetaName)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("online: clearing repl meta: %w", err)
	}
	if f.mir != nil {
		f.mir.Close()
		f.mir = nil
	}
	// Step 2: stream the snapshot to disk, validating as it goes — the
	// resolver is built from the same bytes, so a truncated or corrupt
	// body can neither serve nor persist.
	res, err := f.installSnapshot(snap)
	if err != nil {
		return err
	}
	// Step 3: the anchor makes the new state authoritative.
	if err := writeReplMeta(f.fs, f.dir, pos, term); err != nil {
		return fmt.Errorf("online: writing repl meta: %w", err)
	}
	// Step 4: the mirror deletes stale pre-anchor segments unread.
	mir, err := wal.OpenMirror(f.dir, wal.Options{FS: f.fs, SegmentBytes: f.opt.SegmentBytes}, pos, nil)
	if err != nil {
		return err
	}
	f.res, f.mir, f.base, f.term, f.sinceCkpt = res, mir, pos, term, 0
	return nil
}

// installSnapshot writes the stream to the snapshot temp file while
// loading it, then atomically renames it into place.
func (f *FollowerStore) installSnapshot(snap io.Reader) (*Resolver, error) {
	path := filepath.Join(f.dir, tempName)
	fh, err := faultfs.Create(f.fs, path)
	if err != nil {
		return nil, fmt.Errorf("online: creating snapshot temp: %w", err)
	}
	res, lerr := Load(io.TeeReader(snap, fh), Config{}, 1)
	if lerr != nil {
		fh.Close()
		_ = f.fs.Remove(path)
		return nil, fmt.Errorf("online: bootstrap snapshot: %w", lerr)
	}
	if err := fh.Sync(); err == nil {
		err = fh.Close()
	} else {
		fh.Close()
	}
	if err != nil {
		_ = f.fs.Remove(path)
		return nil, fmt.Errorf("online: persisting bootstrap snapshot: %w", err)
	}
	if err := f.fs.Rename(path, filepath.Join(f.dir, snapName)); err != nil {
		return nil, fmt.Errorf("online: activating bootstrap snapshot: %w", err)
	}
	if err := f.fs.SyncDir(f.dir); err != nil {
		return nil, fmt.Errorf("online: activating bootstrap snapshot: %w", err)
	}
	return res, nil
}

// Apply mirrors a chunk of raw log bytes arriving at position at, then
// applies the complete records it contains. Only whole frames touch the
// disk or the resolver; the return value is how many bytes were
// consumed — the caller refetches from Pos() and retries the remainder.
// The bytes are fsynced into the mirror before they are applied, so an
// advertised position never claims more than the disk holds.
func (f *FollowerStore) Apply(at wal.Position, data []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.mir == nil {
		return 0, ErrNotBootstrapped
	}
	recs, n, err := wal.ParseFrames(data, at.Off == 0)
	if err != nil {
		return 0, err
	}
	if n == 0 {
		return 0, nil
	}
	if err := f.mir.AppendAt(at, data[:n]); err != nil {
		return 0, err
	}
	sh := f.res.shards[0]
	sh.mu.Lock()
	for _, rec := range recs {
		if err := f.replayLocked(sh, rec); err != nil {
			sh.mu.Unlock()
			return 0, fmt.Errorf("online: applying mirrored record: %w", err)
		}
	}
	sh.publishLocked()
	sh.mu.Unlock()
	f.applied += uint64(len(recs))
	f.sinceCkpt += len(recs)
	ckptDue := f.opt.CheckpointEvery > 0 && f.sinceCkpt >= f.opt.CheckpointEvery
	if ckptDue {
		// Best effort, like the leader's: the mirrored log still holds
		// everything if this fails.
		if err := f.checkpointLocked(); err == nil {
			f.sinceCkpt = 0
		}
	}
	return n, nil
}

// Checkpoint rewrites the follower's snapshot at its current position
// and trims mirrored segments the snapshot absorbed.
func (f *FollowerStore) Checkpoint() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.res == nil {
		return ErrNotBootstrapped
	}
	if err := f.checkpointLocked(); err != nil {
		return err
	}
	f.sinceCkpt = 0
	return nil
}

func (f *FollowerStore) checkpointLocked() error {
	sh := f.res.shards[0]
	sh.mu.Lock()
	nextID, ents, graph := sh.captureLocked(true)
	sh.mu.Unlock()
	pos := f.mir.Pos()
	if err := faultfs.WriteFileAtomic(f.fs, f.dir, tempName, snapName, func(w io.Writer) error {
		return writeSnapshot(w, sh.cfg, nextID, ents, graph)
	}); err != nil {
		return fmt.Errorf("online: follower checkpoint: %w", err)
	}
	// The trim may delete the segment carrying the last walTerm record;
	// restate the current term in the anchor first.
	if err := writeReplMeta(f.fs, f.dir, f.base, f.term); err != nil {
		return fmt.Errorf("online: follower checkpoint meta: %w", err)
	}
	// Segments wholly below the captured position are absorbed. Replay
	// of the retained tail over the new snapshot is idempotent, exactly
	// like the leader's crash window between checkpoint and trim.
	return f.mir.TrimBefore(pos.Seg)
}

// Promote turns the follower into a leader-capable one-shard durable
// Store over the same resolver: the mirrored log becomes the appendable
// WAL (continuing at the exact mirrored position) and newTerm is durably
// appended as the first record of the new reign. The FollowerStore is
// unusable afterwards.
func (f *FollowerStore) Promote(newTerm uint64) (*Store, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, fmt.Errorf("online: follower closed")
	}
	if f.res == nil || f.mir == nil {
		return nil, ErrNotBootstrapped
	}
	log, err := f.mir.IntoWAL(wal.Options{FS: f.fs, SegmentBytes: f.opt.SegmentBytes})
	if err != nil {
		return nil, err
	}
	f.res.resyncNextID()
	ss := &shardStore{sh: f.res.shards[0], log: log, fs: f.fs, dir: f.dir, every: f.opt.CheckpointEvery}
	ss.term.Store(f.term)
	f.closed = true
	f.mir = nil
	if err := ss.setTerm(newTerm); err != nil {
		return nil, err
	}
	return &Store{res: f.res, shards: []*shardStore{ss}}, nil
}

// FollowerStats summarizes the replica for /stats and readiness.
type FollowerStats struct {
	Bootstrapped bool   `json:"bootstrapped"`
	Pos          string `json:"pos,omitempty"`
	Term         uint64 `json:"term"`
	Applied      uint64 `json:"applied"`
}

// Stats summarizes the replica state.
func (f *FollowerStore) Stats() FollowerStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := FollowerStats{Bootstrapped: f.res != nil, Term: f.term, Applied: f.applied}
	if f.mir != nil {
		st.Pos = f.mir.Pos().String()
	}
	return st
}

// Close releases the mirrored log. The resolver stays readable for
// callers that still hold it; the follower accepts no further state.
func (f *FollowerStore) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	if f.mir != nil {
		err := f.mir.Close()
		f.mir = nil
		return err
	}
	return nil
}
