package online

// Replication hooks on the durable store: the leader side of WAL
// shipping. Followers bootstrap from ReplSnapshot — a consistent cut
// whose position is a rotation boundary, so the follower's mirrored
// segment files are byte-identical to the leader's from their first
// byte — then stream raw log bytes via ReadLog. The fencing term rides
// inside the log itself as a walTerm record. The WAL stream is a single
// log, so these accessors address a one-shard store's only shard;
// repl.NewLeader refuses any other shard count.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"time"

	"erfilter/internal/wal"
)

func encodeTerm(t uint64) []byte {
	var buf bytes.Buffer
	bw := &binWriter{w: bufio.NewWriter(&buf)}
	bw.u64(t)
	bw.w.Flush()
	return buf.Bytes()
}

func decodeTerm(data []byte) (uint64, error) {
	br := &binReader{r: bufio.NewReader(bytes.NewReader(data))}
	t := br.u64()
	if br.err != nil {
		return 0, fmt.Errorf("online: decoding term record: %w", br.err)
	}
	return t, nil
}

// replayTerm applies a walTerm record during recovery.
func (s *shardStore) replayTerm(rec wal.Record) error {
	t, err := decodeTerm(rec.Data)
	if err != nil {
		return err
	}
	if t > s.term.Load() {
		s.term.Store(t)
	}
	return nil
}

// Term returns the highest fencing term recorded in this store's log;
// 0 when the store has never taken part in replication.
func (s *Store) Term() uint64 { return s.shards[0].term.Load() }

// SetTerm durably raises the store's fencing term by appending a
// walTerm record (fsynced before return, and replicated to followers
// like any other record). Lower or equal terms are a no-op: terms only
// move forward.
func (s *Store) SetTerm(t uint64) error { return s.shards[0].setTerm(t) }

func (s *shardStore) setTerm(t uint64) error {
	if err := s.writeable(); err != nil {
		return err
	}
	s.mu.Lock()
	if t <= s.term.Load() {
		s.mu.Unlock()
		return nil
	}
	seq, werr := s.log.AppendBuffered(walTerm, encodeTerm(t))
	if werr == nil {
		s.term.Store(t)
	}
	s.mu.Unlock()
	if werr != nil {
		s.degrade(werr)
		return werr
	}
	if err := s.log.WaitSync(seq); err != nil {
		s.degrade(err)
		return err
	}
	return nil
}

// LogPos returns the durable end of the store's log — the position a
// write's ack corresponds to, and therefore the epoch token handed to
// clients for read-your-writes.
func (s *Store) LogPos() wal.Position { return s.shards[0].log.Pos() }

// ReadLog serves a raw durable byte range of the log to a follower; see
// wal.ReadAt for the at/next contract and the ErrTrimmed/ErrFuture
// signals.
func (s *Store) ReadLog(pos wal.Position, max int) (data []byte, at, next wal.Position, err error) {
	return s.shards[0].log.ReadAt(pos, max)
}

// WaitLog blocks until the log's durable end is past pos or the timeout
// elapses — the long-poll a caught-up follower parks on.
func (s *Store) WaitLog(pos wal.Position, d time.Duration) bool {
	return s.shards[0].log.WaitFor(pos, d)
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
	boundary, werr := s.log.Rotate()
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
