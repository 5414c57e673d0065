package online

// Replication is a mode of the one durable store, not a second store
// type. The WAL stream is a single log, so everything here addresses a
// one-shard store's only shard; Topology refuses any other count.
//
// A leader serves its log: ReplSnapshot hands a follower a consistent
// cut whose position is a rotation boundary, ReadLog and WaitLog stream
// the raw bytes after it, and the fencing term rides inside the log as a
// walTerm record.
//
// A follower is the same store with a different log source — the
// network instead of the local writer. Bootstrap installs a leader cut
// and writes the repl-meta anchor (bootstrap position plus term), which
// is what marks a directory as following; Apply appends the leader's
// bytes verbatim and replays their records through the recovery path; a
// checkpoint differs from a leader's only in how it picks its boundary
// (see boundaryLocked); Promote drops the anchor and the store leads,
// appending to the very log it mirrored. Because the bytes are the
// leader's, a follower's wal-*.seg files are a prefix of its leader's
// and crash recovery is the ordinary one. Outside Bootstrap, Apply and
// Promote, the role selects behaviour in boundaryLocked and in one lock:
// LogPos waits out a running Apply, which — unlike a local write — makes
// its bytes durable before it makes them visible.
//
//	un-anchored ──Bootstrap──▶ following ──Promote──▶ leading
//	  (fresh dir, or one          ▲   │ Bootstrap (410 trimmed,
//	   that only ever led)        └───┘  409 diverged)
//
// Bootstrap writes in an order that keeps every crash window safe:
//
//  1. decode and validate the whole stream — nothing is touched yet;
//  2. delete repl-meta — the directory is now "not bootstrapped";
//  3. close the log and delete every segment, then the old snapshot
//     (or segment tier);
//  4. build the shard and persist it — the checkpoint's own step;
//  5. write repl-meta — the new anchor becomes visible;
//  6. open the log at the anchor's segment.
//
// A crash before 5 leaves no anchor, so whatever the directory holds is
// discarded by the re-bootstrap the next start performs; a crash after 5
// finds the new state and no segment at all, and step 6 is what any open
// of an anchored directory does. Every segment is gone before the new
// state exists, so at no point can old log records — this reign's or a
// deposed one's — replay onto a newer snapshot.

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"path/filepath"
	"time"

	"erfilter/internal/faultfs"
	"erfilter/internal/vector"
	"erfilter/internal/wal"
)

const (
	replMetaName = "repl-meta"
	replMetaTemp = "repl-meta.tmp"
)

// ErrNotBootstrapped is returned by Apply on a store that holds no
// leader cut to apply onto: before the first Bootstrap, and after
// Promote.
var ErrNotBootstrapped = errors.New("online: store is not following a leader")

// replayTerm applies a walTerm record: terms only move forward.
func (s *shardStore) replayTerm(rec wal.Record) error {
	t, err := decodeU64(rec.Data, "term")
	if err != nil {
		return err
	}
	if t > s.term.Load() {
		s.term.Store(t)
	}
	return nil
}

// readReplMeta parses the bootstrap anchor; ok is false when the file
// is absent or unparsable (either way: not bootstrapped).
func readReplMeta(fsys faultfs.FS, path string) (pos wal.Position, term uint64, ok bool, err error) {
	data, err := faultfs.ReadFile(fsys, path)
	if errors.Is(err, fs.ErrNotExist) {
		return wal.Position{}, 0, false, nil
	}
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

// Term returns the highest fencing term this store has seen — in its
// log or, on a follower, its anchor; 0 when the store has never taken
// part in replication.
func (s *Store) Term() uint64 { return s.shards[0].term.Load() }

// Following reports whether the store holds a leader's cut and is fed by
// Apply: true from a successful Bootstrap (or the open of an anchored
// directory) until Promote.
func (s *Store) Following() bool { return s.shards[0].following.Load() }

// LogPos returns the durable end of the store's log: on a leader the
// position a write's ack corresponds to, on a follower how far it has
// mirrored — either way the epoch token handed to clients for
// read-your-writes, and the from= of a follower's next fetch. A leader
// applies a record before its fsync, so its durable end never runs
// ahead of what queries see; Apply fsyncs first, so while following the
// position is read under the apply lock and is always an applied one.
// This is the second, and last, role branch beside boundaryLocked: a
// leader must not pay the writer lock on every response it stamps.
func (st *Store) LogPos() wal.Position {
	s := st.shards[0]
	if s.following.Load() {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	return s.log.Load().Pos()
}

// ReadLog serves a raw durable byte range of the log to a follower; see
// wal.ReadAt for the at/next contract and the ErrTrimmed/ErrFuture
// signals.
func (s *Store) ReadLog(pos wal.Position, max int) (data []byte, at, next wal.Position, err error) {
	return s.shards[0].log.Load().ReadAt(pos, max)
}

// WaitLog blocks until the log's durable end is past pos or the timeout
// elapses — the long-poll a caught-up follower parks on.
func (s *Store) WaitLog(pos wal.Position, d time.Duration) bool {
	return s.shards[0].log.Load().WaitFor(pos, d)
}

// ReplSnapshot begins a follower bootstrap: it rotates the log and
// captures the resolver state in one critical section, so the returned
// position is a rotation boundary and the capture holds exactly the
// records below it. The returned save streams the snapshot without
// holding any lock; concurrent writes land in segments at or after the
// boundary and reach the follower through the ordinary tail.
func (st *Store) ReplSnapshot() (pos wal.Position, term uint64, save func(io.Writer) error, err error) {
	s := st.shards[0]
	s.mu.Lock()
	r := s.sh
	r.mu.Lock()
	nextID, ents, graph := r.captureLocked(true)
	r.mu.Unlock()
	boundary, werr := s.log.Load().Rotate()
	term = s.term.Load()
	s.mu.Unlock()
	if werr != nil {
		s.degrade(werr)
		return wal.Position{}, 0, nil, werr
	}
	return wal.Position{Seg: boundary, Off: 0}, term, func(w io.Writer) error {
		return writeSnapshot(w, r.cfg, nextID, ents, graph)
	}, nil
}

// Bootstrap (re)initializes the store from a leader snapshot stream
// anchored at pos, a rotation boundary. Everything the directory held —
// every log segment included, whichever reign wrote it — is discarded:
// this is first contact, the catch-up after the leader trimmed past the
// follower (410), and the recovery from a diverged log (409) alike. The
// stream is fully validated before anything is touched; the write order
// and its crash windows are in the header of this file. Readers holding
// the previous Resolver keep a consistent (stale) view; Resolver()
// returns the new one from here on. Bootstrap, Apply and manual
// Checkpoints are the owning tailer's to serialize.
//
// A failure past step 1 is a crash that did not kill the process: the
// directory is un-anchored, the log closed, and the store degrades —
// reads keep serving the previous resolver, Close skips the checkpoint —
// until a retry installs a whole cut and lifts the degradation.
func (st *Store) Bootstrap(pos wal.Position, term uint64, snap io.Reader) (err error) {
	if pos.Off != 0 {
		return fmt.Errorf("online: bootstrap at %s: want a segment start", pos)
	}
	cfg, nextID, ents, graph, err := decodeSnapshot(snap)
	if err != nil {
		return fmt.Errorf("online: bootstrap snapshot: %w", err)
	}
	s := st.shards[0]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.promoted {
		return errors.New("online: a promoted store leads; it takes no bootstrap")
	}
	old := s.sh
	// The leader's cut on this store's storage — not onStorage's downgrade:
	// a follower must answer as the leader it mirrors does.
	t := cfg.topology(len(st.shards), true)
	t.Storage, t.Replicated, t.Follower = old.cfg.Storage, true, true
	if err := t.Validate(); err != nil {
		return fmt.Errorf("online: bootstrap: %w", err)
	}
	cfg, graph = cfg.onStorage(old.cfg, graph)
	defer func() {
		if err != nil {
			s.degrade(err)
		}
	}()

	if err := s.dropAnchor(); err != nil {
		return err
	}
	log := s.log.Load()
	_ = log.Close()
	if err := log.TrimBefore(math.MaxUint64); err != nil {
		return fmt.Errorf("online: bootstrap: %w", err)
	}
	if err := s.fs.Remove(filepath.Join(s.dir, snapName)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("online: bootstrap: removing the old snapshot: %w", err)
	}
	words := new(vector.Table) // a new collection: the old one's vocabulary goes with it
	sh := newShard(cfg, words, nil, false)
	if old.tier != nil {
		// Queries may still be reading the old tier's mapped segments: its
		// files go now, its mappings when the store closes. The old shard
		// is retired in the same step that replaces it as s.sh, so a retry
		// after any failure tears down what is there and close releases
		// every shard exactly once.
		if err = old.tier.Drop(); err == nil {
			sh, err = openDiskShard(cfg, words, s.fs, filepath.Join(s.dir, segmentsDirName), false)
		}
		if err != nil {
			return fmt.Errorf("online: bootstrap: replacing the segment tier: %w", err)
		}
		s.retired = append(s.retired, old)
	}
	s.sh = sh
	res := newResolverOver([]*shard{sh}, words)
	res.fill(nextID, ents, graph)
	if err := s.persistLocked(sh)(); err != nil {
		return fmt.Errorf("online: persisting bootstrap state: %w", err)
	}
	if err := writeReplMeta(s.fs, s.dir, pos, term); err != nil {
		return fmt.Errorf("online: writing repl meta: %w", err)
	}
	s.base = pos
	if log, err = s.openLog(nil); err != nil {
		return err // anchored on disk already: the next open completes the bootstrap
	}
	s.term.Store(term)
	s.log.Store(log)
	st.res.Store(res)
	s.heal()
	s.following.Store(true)
	return nil
}

// Apply appends a chunk of raw log bytes that a leader served from
// position at, then replays the complete records it holds. Only whole
// frames touch the disk or the index; the return value is how many
// bytes were consumed, and the caller fetches again from LogPos. The
// bytes are fsynced into the log before they are applied, so an
// advertised position never claims more than the disk holds. Applied
// records count toward the same two checkpoint triggers as local
// writes: the record period and a full memtable.
func (st *Store) Apply(at wal.Position, data []byte) (int, error) {
	s := st.shards[0]
	s.mu.Lock()
	if !s.following.Load() {
		s.mu.Unlock()
		return 0, ErrNotBootstrapped
	}
	recs, n, err := wal.ParseFrames(data, at.Off == 0)
	if err == nil && n > 0 {
		err = s.log.Load().AppendRaw(at, data[:n])
	}
	if err != nil || n == 0 {
		s.mu.Unlock()
		return 0, err
	}
	r := s.sh
	r.mu.Lock()
	for _, rec := range recs {
		if err = s.replay(r, rec); err != nil {
			break
		}
	}
	full := r.memtableFullLocked()
	r.publishLocked()
	r.mu.Unlock()
	s.sinceCkpt += len(recs)
	ckpt := s.ckptDueLocked(err) || full
	s.mu.Unlock()
	if err != nil {
		return 0, fmt.Errorf("online: applying replicated record: %w", err)
	}
	s.maybeCheckpoint(ckpt)
	return n, nil
}

// Promote makes the store a leader's at fencing term term: the term is
// durably appended to the log — fsynced before return, and replicated
// to followers like any other record — and a following store drops its
// anchor and leads from the exact position it had mirrored to, in the
// same log. On a store that already leads it only raises the term
// (lower or equal terms are a no-op: terms only move forward). A
// promotion starts a reign, so a following store insists on a term
// above the one it followed under.
func (st *Store) Promote(term uint64) error {
	s := st.shards[0]
	if err := s.writeable(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, following := s.term.Load(), s.following.Load()
	if following && term <= cur {
		return fmt.Errorf("online: promoting at term %d: the followed reign already holds term %d", term, cur)
	}
	if term > cur {
		log := s.log.Load()
		seq, err := log.AppendBuffered(walTerm, encodeU64(term))
		if err == nil {
			s.term.Store(term)
			err = log.WaitSync(seq)
		}
		if err != nil {
			s.degrade(err)
			return err
		}
	}
	if following {
		// The log now carries the term; the anchor — what made this
		// directory a follower's — goes. A crash in between reopens as a
		// follower one record ahead of any leader, which re-bootstraps.
		if err := s.dropAnchor(); err != nil {
			return err
		}
		st.res.Load().resyncNextID()
	}
	s.promoted = true
	return nil
}

// dropAnchor durably deletes repl-meta: the directory stops being a
// follower's. Callers hold s.mu.
func (s *shardStore) dropAnchor() error {
	s.following.Store(false)
	err := s.fs.Remove(filepath.Join(s.dir, replMetaName))
	if err == nil || errors.Is(err, fs.ErrNotExist) {
		err = s.fs.SyncDir(s.dir)
	}
	if err != nil {
		return fmt.Errorf("online: clearing repl meta: %w", err)
	}
	return nil
}
