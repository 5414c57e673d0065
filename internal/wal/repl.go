package wal

// Replication read side: positions, durable range reads and a long-poll
// wait. A follower mirrors the leader's segment files byte-for-byte, so
// a (segment, offset) pair is a coordinate both sides agree on — the
// public "epoch" of a replica is simply how far its mirrored log
// extends. ReadAt serves only durable bytes (fsynced, never staged), so
// anything a follower receives is something the leader cannot lose.

import (
	"errors"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"erfilter/internal/faultfs"
)

var (
	// ErrTrimmed reports a read inside a segment a checkpoint has
	// deleted: the follower cannot catch up by tailing and must restart
	// from a fresh snapshot (the HTTP layer's 410).
	ErrTrimmed = errors.New("wal: segment trimmed away; restart from snapshot")
	// ErrFuture reports a read position beyond the durable end of the
	// log. A follower seeing it holds bytes this leader never wrote —
	// its log diverged across a failover — and must re-bootstrap.
	ErrFuture = errors.New("wal: position beyond end of log")
)

// DefaultReadChunk bounds one ReadAt reply when the caller passes no
// explicit limit.
const DefaultReadChunk = 1 << 20

// Position addresses a byte in the log: segment index plus byte offset
// within that segment file (offset 0 is the first byte of the segment
// magic). Positions are totally ordered by (Seg, Off).
type Position struct {
	Seg uint64
	Off int64
}

// String renders "seg.off" in decimal — the wire form used by the
// /v1/wal from= parameter and the X-ER-Epoch header.
func (p Position) String() string { return fmt.Sprintf("%d.%d", p.Seg, p.Off) }

// Less reports whether p is strictly before q.
func (p Position) Less(q Position) bool {
	if p.Seg != q.Seg {
		return p.Seg < q.Seg
	}
	return p.Off < q.Off
}

// ParsePosition parses the "seg.off" wire form.
func ParsePosition(s string) (Position, error) {
	dot := strings.IndexByte(s, '.')
	if dot < 0 {
		return Position{}, fmt.Errorf("wal: position %q: want seg.off", s)
	}
	seg, err := strconv.ParseUint(s[:dot], 10, 64)
	if err != nil {
		return Position{}, fmt.Errorf("wal: position %q: bad segment: %w", s, err)
	}
	off, err := strconv.ParseInt(s[dot+1:], 10, 64)
	if err != nil || off < 0 {
		return Position{}, fmt.Errorf("wal: position %q: bad offset", s)
	}
	return Position{Seg: seg, Off: off}, nil
}

// Pos returns the durable end of the log: the position just past the
// last fsynced byte. Staged-but-unsynced bytes are invisible here, so
// Pos is safe to hand to followers and to use as a write's epoch after
// WaitSync returns.
func (w *WAL) Pos() Position {
	w.mu.Lock()
	defer w.mu.Unlock()
	return Position{Seg: w.segIdx, Off: w.segSize}
}

// ReadAt returns up to max durable bytes, the position at where they
// start — pos itself, or (seg+1, 0) when pos sat exactly on the end of
// a sealed segment — and the position next immediately after them, so a
// caller that keeps requesting from next walks the whole log. An empty
// reply with next == at == pos means the caller is caught up. max <= 0
// selects DefaultReadChunk.
//
// Errors: ErrTrimmed when pos lies in a deleted segment (restart from a
// snapshot), ErrFuture when pos is beyond the durable end (the caller's
// log diverged). A broken WAL still serves reads — followers may drain
// a degraded leader.
func (w *WAL) ReadAt(pos Position, max int) (data []byte, at, next Position, err error) {
	if max <= 0 {
		max = DefaultReadChunk
	}
	w.mu.Lock()
	cur, durable := w.segIdx, w.segSize
	w.mu.Unlock()

	for {
		if pos.Seg > cur || (pos.Seg == cur && pos.Off > durable) {
			return nil, Position{}, Position{}, ErrFuture
		}
		raw, rerr := faultfs.ReadFile(w.fs, filepath.Join(w.dir, segName(pos.Seg)))
		if rerr != nil {
			// The only way a segment at or below the current index is
			// missing is a checkpoint trim (possibly racing this read).
			return nil, Position{}, Position{}, ErrTrimmed
		}
		limit := int64(len(raw))
		if pos.Seg == cur {
			// The current segment may carry written-but-unsynced bytes
			// past the durable watermark; never serve those.
			limit = durable
		}
		if pos.Off > limit {
			return nil, Position{}, Position{}, ErrFuture
		}
		if pos.Off == limit && pos.Seg < cur {
			// Exactly at the end of a sealed segment: step into the
			// next one so an empty reply always means caught up.
			pos = Position{Seg: pos.Seg + 1, Off: 0}
			continue
		}
		n := limit - pos.Off
		if n > int64(max) {
			n = int64(max)
		}
		data = append([]byte(nil), raw[pos.Off:pos.Off+n]...)
		next = Position{Seg: pos.Seg, Off: pos.Off + n}
		if pos.Seg < cur && next.Off == limit {
			next = Position{Seg: pos.Seg + 1, Off: 0}
		}
		return data, pos, next, nil
	}
}

// WaitFor blocks until the durable end of the log is past pos, the
// timeout elapses, or the WAL breaks; it reports whether bytes beyond
// pos exist. This is the long-poll primitive behind /v1/wal: a
// caught-up follower parks here instead of busy-polling.
func (w *WAL) WaitFor(pos Position, d time.Duration) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	fired := false
	t := time.AfterFunc(d, func() {
		w.mu.Lock()
		fired = true
		w.mu.Unlock()
		w.cond.Broadcast()
	})
	defer t.Stop()
	for {
		end := Position{Seg: w.segIdx, Off: w.segSize}
		if pos.Less(end) {
			return true
		}
		if fired || w.err != nil {
			return false
		}
		// Commits broadcast on every group-commit completion and
		// rotation, so any durable progress wakes this waiter.
		w.cond.Wait()
	}
}

// AppendRaw is the follower's append: data is a run of bytes lifted
// verbatim from a leader's segment file by ReadAt — whole frames only —
// and lands at exactly the position it was read from. at must be the
// log's end, or offset 0 of a later segment (the leader rotated): the
// segment is then cut through createSegment, which writes the magic that
// opens data itself, so no segment file ever exists without one. The
// bytes are fsynced before AppendRaw returns — a position a follower
// advertises is durable — and they never trigger a size rotation: a
// follower rotates only where its leader did, which keeps its files a
// byte-for-byte prefix of the leader's. Locally staged records would
// interleave with the leader's, so the append is refused while any are
// pending. A misaligned at is refused without harming the log; a write
// or fsync failure is sticky, like any other.
func (w *WAL) AppendRaw(at Position, data []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.leader {
		w.cond.Wait()
	}
	if w.err != nil {
		return w.err
	}
	end := Position{Seg: w.segIdx, Off: w.segSize}
	switch {
	case len(w.pending) > 0:
		return fmt.Errorf("wal: raw append at %s with locally staged records pending", at)
	case at == end:
	case at.Seg > w.segIdx && at.Off == 0 && len(data) >= MagicLen && string(data[:MagicLen]) == segMagic:
		if err := w.createSegment(at.Seg); err != nil {
			w.err = err
			return err
		}
		w.rotations.Inc()
		data = data[MagicLen:]
	default:
		return fmt.Errorf("wal: log at %s cannot append at %s", end, at)
	}
	if len(data) == 0 {
		return nil
	}
	_, err := w.f.Write(data)
	if err == nil {
		begin := time.Now()
		err = w.f.Sync()
		w.fsyncNS.ObserveDuration(time.Since(begin))
	}
	if err != nil {
		w.err = fmt.Errorf("wal: raw append at %s: %w", at, err)
		return w.err
	}
	w.syncs++
	w.segSize += int64(len(data))
	w.cond.Broadcast()
	return nil
}

// MagicLen is the length of the segment-file magic that starts every
// segment (offset 0 .. MagicLen-1 of each segment file).
const MagicLen = len(segMagic)

// ParseFrames walks the complete frames in data — a raw byte run lifted
// from a segment file. When segStart is true data begins at offset 0 of
// a segment and must open with the segment magic. It returns the
// decoded records, how many bytes they (plus the magic) cover, and an
// error only for provable corruption: bad magic, an insane length
// field, or a complete frame whose checksum fails. A merely-incomplete
// tail is not an error — the caller re-requests from pos+consumed.
//
// The returned records alias data; callers that retain them must copy.
func ParseFrames(data []byte, segStart bool) (recs []Record, consumed int, err error) {
	off := 0
	if segStart {
		if len(data) < MagicLen {
			return nil, 0, nil
		}
		if string(data[:MagicLen]) != segMagic {
			return nil, 0, fmt.Errorf("wal: bad segment magic in stream")
		}
		off = MagicLen
	}
	for {
		rec, next, err := parseFrame(data, off)
		if errors.Is(err, errTorn) {
			return recs, off, nil
		}
		if err != nil {
			return nil, 0, fmt.Errorf("%w in stream", err)
		}
		recs = append(recs, rec)
		off = next
	}
}
