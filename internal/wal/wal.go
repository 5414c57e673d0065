// Package wal is a pure-stdlib write-ahead log: CRC32-framed,
// length-prefixed records appended to rotating segment files, with
// group-committed fsyncs and a recovery path that replays everything up
// to the first torn or corrupt record and truncates the rest.
//
// The contract the online resolver builds on:
//
//   - A record whose Append returned nil survives any later crash
//     (fsync-before-ack).
//   - Recovery never fails on a torn tail: the bytes a crash cut short
//     are truncated away and the log keeps appending where the last
//     intact record ended. Only unreadable directories or a replay
//     callback error abort Open.
//   - Records come back in exactly the order they were appended.
//
// Concurrency uses leader-based group commit: appenders stage frames in
// an in-memory buffer under a mutex, then the first waiter becomes the
// leader, writes the whole batch and fsyncs once while later appenders
// keep staging; every waiter whose record made the batch is released by
// that single fsync. Under k concurrent writers the fsync cost is paid
// ~once per batch instead of once per record.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"erfilter/internal/faultfs"
	"erfilter/internal/frame"
	"erfilter/internal/metrics"
)

const (
	segMagic = "ERWAL\x01\n"
	// segPrefix/segSuffix name segment files wal-%016x.seg so that
	// lexicographic order equals numeric order.
	segPrefix = "wal-"
	segSuffix = ".seg"
	// frameHeader is u32 payload length + u32 CRC32-C of the payload.
	frameHeader = 8
	// maxRecord bounds a single payload; a corrupt length field larger
	// than this is treated as a torn record, not an allocation request.
	maxRecord = 1 << 26

	// DefaultSegmentBytes is the size-rotation threshold when
	// Options.SegmentBytes is unset.
	DefaultSegmentBytes = 8 << 20
)

// Record is one replayed WAL entry: an opaque payload under a caller-
// defined type byte.
type Record struct {
	Type uint8
	Data []byte
}

// Options tune a WAL. The zero value is ready for production use.
type Options struct {
	// FS is the file-system seam; nil selects the real OS.
	FS faultfs.FS
	// SegmentBytes rotates to a fresh segment once the current one
	// exceeds this size (default 8 MiB).
	SegmentBytes int64
}

// WAL is an append-only, segment-rotating, group-committed log. All
// methods are safe for concurrent use. After any write or fsync error
// the WAL is broken for good: the sticky error is returned from every
// later call, and the owner is expected to degrade to read-only.
type WAL struct {
	fs     faultfs.FS
	dir    string
	segMax int64

	mu       sync.Mutex
	cond     *sync.Cond
	f        faultfs.File // current segment; IO only by the leader
	segIdx   uint64
	segSize  int64  // bytes written to the current segment
	pending  []byte // staged frames not yet handed to a leader
	appended uint64
	synced   uint64
	leader   bool
	err      error
	syncs    uint64
	trimmed  uint64

	// Telemetry, recorded by the commit leader outside the mutex. The
	// histograms answer the two questions the mean-based Stats cannot:
	// what the tail of the fsync cost looks like, and how well group
	// commit is amortizing it (batch records per fsync).
	fsyncNS   metrics.Histogram // one observation per fsync, in ns
	batchRecs metrics.Histogram // records covered by each group commit
	rotations metrics.Counter   // segments cut by size or checkpoint
}

func segName(idx uint64) string { return fmt.Sprintf("%s%016x%s", segPrefix, idx, segSuffix) }

func parseSegName(name string) (uint64, bool) {
	if len(name) != len(segPrefix)+16+len(segSuffix) ||
		name[:len(segPrefix)] != segPrefix || name[len(name)-len(segSuffix):] != segSuffix {
		return 0, false
	}
	idx, err := strconv.ParseUint(name[len(segPrefix):len(name)-len(segSuffix)], 16, 64)
	if err != nil {
		return 0, false
	}
	return idx, true
}

// Open recovers the log in dir — replaying every intact record through
// replay in append order, truncating the log at the first torn or
// corrupt record — and returns it ready for appending. A replay error
// aborts Open; everything a crash could plausibly leave behind does not.
func Open(dir string, opt Options, replay func(Record) error) (*WAL, error) {
	return OpenAt(dir, opt, 1, replay)
}

// OpenAt is Open for a log that does not begin at segment 1: when dir
// holds no segment yet, the log starts at segment first. A follower
// anchored at a leader's rotation boundary opens its log this way, so
// its first segment carries the leader's index.
func OpenAt(dir string, opt Options, first uint64, replay func(Record) error) (*WAL, error) {
	fsys := opt.FS
	if fsys == nil {
		fsys = faultfs.OS{}
	}
	segMax := opt.SegmentBytes
	if segMax <= 0 {
		segMax = DefaultSegmentBytes
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("wal: creating %s: %w", dir, err)
	}
	w := &WAL{fs: fsys, dir: dir, segMax: segMax}
	w.cond = sync.NewCond(&w.mu)
	if err := w.recover(first, replay); err != nil {
		return nil, err
	}
	return w, nil
}

// recover scans the segment files in index order, replays intact
// records, and cuts the log at the first damage: the damaged segment is
// truncated to its last intact byte and every later segment is removed
// (a torn middle record means nothing after it was acknowledged).
func (w *WAL) recover(first uint64, replay func(Record) error) error {
	names, err := w.fs.ReadDir(w.dir)
	if err != nil {
		return fmt.Errorf("wal: listing %s: %w", w.dir, err)
	}
	var segs []uint64
	for _, name := range names {
		if idx, ok := parseSegName(name); ok {
			segs = append(segs, idx)
		}
	}
	damagedAt := -1 // index into segs of the segment that had to be cut
	var size int64  // intact length of the last segment replayed
	for i, idx := range segs {
		var intact bool
		if size, intact, err = w.replaySegment(idx, replay); err != nil {
			return err
		}
		if !intact {
			damagedAt = i
			break
		}
	}
	if damagedAt >= 0 {
		for _, idx := range segs[damagedAt+1:] {
			if err := w.fs.Remove(filepath.Join(w.dir, segName(idx))); err != nil {
				return fmt.Errorf("wal: removing post-damage segment %d: %w", idx, err)
			}
		}
		segs = segs[:damagedAt+1]
	}

	// Resume appending into the last segment, or start the first one.
	if len(segs) == 0 {
		return w.createSegment(first)
	}
	last := segs[len(segs)-1]
	f, err := w.fs.OpenFile(filepath.Join(w.dir, segName(last)), os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: reopening segment %d: %w", last, err)
	}
	if size < int64(len(segMagic)) {
		// The segment was created but the crash beat the magic write;
		// rewrite it from scratch.
		f.Close()
		return w.createSegment(last)
	}
	w.f, w.segIdx, w.segSize = f, last, size
	return nil
}

// replaySegment feeds the segment's intact records to replay and returns
// the length of the intact prefix — the size the file has when the call
// returns. It reports intact=false, after truncating the file at the
// damage, when the segment ends in a torn or corrupt record.
func (w *WAL) replaySegment(idx uint64, replay func(Record) error) (size int64, intact bool, err error) {
	path := filepath.Join(w.dir, segName(idx))
	data, err := faultfs.ReadFile(w.fs, path)
	if err != nil {
		return 0, false, fmt.Errorf("wal: reading segment %d: %w", idx, err)
	}
	good := 0
	if len(data) >= len(segMagic) && string(data[:len(segMagic)]) == segMagic {
		good = len(segMagic)
		for {
			rec, next, err := parseFrame(data, good)
			if err != nil {
				break // torn or corrupt: recovery cuts the log here either way
			}
			if replay != nil {
				if err := replay(rec); err != nil {
					return 0, false, fmt.Errorf("wal: replaying segment %d: %w", idx, err)
				}
			}
			good = next
		}
	}
	if good == len(data) {
		return int64(good), true, nil
	}
	if err := w.truncateFile(path, int64(good)); err != nil {
		return 0, false, fmt.Errorf("wal: truncating torn segment %d at %d: %w", idx, good, err)
	}
	return int64(good), false, nil
}

// errTorn reports bytes that stop short of a complete frame: what a
// crash mid-append leaves, and what a reader of a growing log sees.
var errTorn = errors.New("wal: incomplete frame")

// parseFrame decodes the frame at off. A frame that is all there and
// fails its own checks — an insane length, a checksum mismatch — is
// provable corruption; one that merely ends early is errTorn.
func parseFrame(data []byte, off int) (Record, int, error) {
	if off+frameHeader > len(data) {
		return Record{}, 0, errTorn
	}
	n := int(binary.LittleEndian.Uint32(data[off:]))
	if n < 1 || n > maxRecord {
		return Record{}, 0, fmt.Errorf("wal: corrupt frame length %d", n)
	}
	end := off + frameHeader + n
	if end > len(data) {
		return Record{}, 0, errTorn
	}
	payload := data[off+frameHeader : end]
	if frame.Checksum(payload) != binary.LittleEndian.Uint32(data[off+4:]) {
		return Record{}, 0, fmt.Errorf("wal: frame checksum mismatch")
	}
	return Record{Type: payload[0], Data: payload[1:]}, end, nil
}

func appendFrame(dst []byte, typ uint8, data []byte) []byte {
	n := 1 + len(data)
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(n))
	binary.LittleEndian.PutUint32(hdr[4:], frame.Update(frame.Checksum([]byte{typ}), data))
	dst = append(dst, hdr[:]...)
	dst = append(dst, typ)
	return append(dst, data...)
}

func (w *WAL) truncateFile(path string, size int64) error {
	f, err := w.fs.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	err = f.Truncate(size)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// createSegment starts a fresh segment file (truncating any partial
// leftover under the same name) and makes it current.
func (w *WAL) createSegment(idx uint64) error {
	f, err := faultfs.Create(w.fs, filepath.Join(w.dir, segName(idx)))
	if err != nil {
		return fmt.Errorf("wal: creating segment %d: %w", idx, err)
	}
	if _, err := f.Write([]byte(segMagic)); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("wal: initializing segment %d: %w", idx, err)
	}
	if err := w.fs.SyncDir(w.dir); err != nil {
		f.Close()
		return fmt.Errorf("wal: syncing dir for segment %d: %w", idx, err)
	}
	if w.f != nil {
		w.f.Close()
	}
	w.f, w.segIdx, w.segSize = f, idx, int64(len(segMagic))
	return nil
}

// Append stages one record and blocks until it is durably on disk (its
// fsync may be shared with concurrent appenders — group commit). On a
// nil return the record survives any later crash.
func (w *WAL) Append(typ uint8, data []byte) error {
	seq, err := w.AppendBuffered(typ, data)
	if err != nil {
		return err
	}
	return w.WaitSync(seq)
}

// AppendBuffered stages one record in the commit buffer and returns its
// sequence number without waiting for durability. The record is applied
// to disk in staging order by the next group commit; callers that need
// the ack must WaitSync the returned sequence.
func (w *WAL) AppendBuffered(typ uint8, data []byte) (uint64, error) {
	if 1+len(data) > maxRecord {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds the %d-byte bound", len(data), maxRecord)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return 0, w.err
	}
	w.pending = appendFrame(w.pending, typ, data)
	w.appended++
	return w.appended, nil
}

// WaitSync blocks until the record with the given sequence number is
// durable (or the WAL is broken). The first waiter becomes the commit
// leader: it takes the whole staged batch, writes and fsyncs it without
// holding the mutex — so later appenders keep staging — and releases
// every waiter the batch covered.
func (w *WAL) WaitSync(seq uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.synced < seq && w.err == nil {
		if w.leader {
			w.cond.Wait()
			continue
		}
		w.commitLocked(false)
	}
	if w.synced >= seq {
		return nil
	}
	return w.err
}

// commitLocked runs one group commit as the leader. Called with w.mu
// held; temporarily releases it around the IO. When rotate is true a
// fresh segment is cut after the batch lands, so every record staged so
// far lives in segments strictly before the returned current index.
func (w *WAL) commitLocked(rotate bool) {
	w.leader = true
	batch := w.pending
	w.pending = nil
	target := w.appended
	covered := target - w.synced
	needRotate := rotate || w.segSize+int64(len(batch)) > w.segMax
	f := w.f
	w.mu.Unlock()

	var err error
	if len(batch) > 0 {
		if _, err = f.Write(batch); err == nil {
			begin := time.Now()
			err = f.Sync()
			w.fsyncNS.ObserveDuration(time.Since(begin))
			w.batchRecs.Observe(int64(covered))
		}
	}

	w.mu.Lock()
	w.leader = false
	if err != nil {
		w.err = fmt.Errorf("wal: committing batch: %w", err)
	} else {
		if len(batch) > 0 {
			w.syncs++
		}
		w.segSize += int64(len(batch))
		if target > w.synced {
			w.synced = target
		}
		// Rotation only matters for future appends; an empty current
		// segment is already a valid checkpoint boundary.
		if needRotate && w.segSize > int64(len(segMagic)) {
			if rerr := w.createSegment(w.segIdx + 1); rerr != nil {
				w.err = rerr
			} else {
				w.rotations.Inc()
			}
		}
	}
	w.cond.Broadcast()
}

// Rotate flushes everything staged so far and cuts a fresh segment,
// returning the new current segment index: every record appended before
// the call lives in a segment with a strictly smaller index, which is
// exactly the boundary a checkpoint needs for TrimBefore.
func (w *WAL) Rotate() (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.leader {
		w.cond.Wait()
	}
	if w.err != nil {
		return 0, w.err
	}
	w.commitLocked(true)
	return w.segIdx, w.err
}

// TrimBefore deletes every segment with an index strictly below keep —
// the post-checkpoint cleanup. Failing to remove an obsolete segment is
// reported but does not break the WAL (recovery replays idempotently).
func (w *WAL) TrimBefore(keep uint64) error {
	names, err := w.fs.ReadDir(w.dir)
	if err != nil {
		return fmt.Errorf("wal: listing %s: %w", w.dir, err)
	}
	var firstErr error
	for _, name := range names {
		idx, ok := parseSegName(name)
		if !ok || idx >= keep {
			continue
		}
		if err := w.fs.Remove(filepath.Join(w.dir, name)); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("wal: trimming segment %d: %w", idx, err)
		} else if err == nil {
			w.mu.Lock()
			w.trimmed++
			w.mu.Unlock()
		}
	}
	return firstErr
}

// Err returns the sticky failure, if any.
func (w *WAL) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Stats is a point-in-time summary of the log.
type Stats struct {
	Appended uint64 `json:"appended"` // records staged since Open
	Synced   uint64 `json:"synced"`   // records durably committed
	Syncs    uint64 `json:"syncs"`    // fsync batches (group commits)
	Segment  uint64 `json:"segment"`  // current segment index
	Trimmed  uint64 `json:"trimmed"`  // segments deleted by TrimBefore
	Broken   bool   `json:"broken"`   // sticky failure present
}

// RegisterMetrics exposes the log's telemetry under the given registry:
// fsync latency and group-commit batch-size histograms, plus counters
// for appended/synced records, fsyncs, rotations and trims, and a 0/1
// gauge for the sticky-failure state.
func (w *WAL) RegisterMetrics(reg *metrics.Registry, labels metrics.Labels) {
	reg.RegisterHistogram("wal_fsync_duration_seconds",
		"Latency of each WAL fsync (one per group commit).", labels, 1e-9, &w.fsyncNS)
	reg.RegisterHistogram("wal_commit_batch_records",
		"Records covered by each group commit (fsync amortization).", labels, 1, &w.batchRecs)
	reg.RegisterCounter("wal_segment_rotations_total",
		"Segments cut by size or checkpoint rotation.", labels, &w.rotations)
	reg.CounterFunc("wal_appended_records_total",
		"Records staged since the log was opened.", labels,
		func() float64 { return float64(w.Stats().Appended) })
	reg.CounterFunc("wal_synced_records_total",
		"Records durably committed (fsynced).", labels,
		func() float64 { return float64(w.Stats().Synced) })
	reg.CounterFunc("wal_fsyncs_total",
		"Group commits (fsync batches) performed.", labels,
		func() float64 { return float64(w.Stats().Syncs) })
	reg.CounterFunc("wal_segments_trimmed_total",
		"Obsolete segments deleted after checkpoints.", labels,
		func() float64 { return float64(w.Stats().Trimmed) })
	reg.GaugeFunc("wal_broken",
		"1 when the log carries a sticky write/fsync failure, else 0.", labels,
		func() float64 {
			if w.Stats().Broken {
				return 1
			}
			return 0
		})
}

// Stats summarizes the log.
func (w *WAL) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return Stats{
		Appended: w.appended, Synced: w.synced, Syncs: w.syncs,
		Segment: w.segIdx, Trimmed: w.trimmed, Broken: w.err != nil,
	}
}

var errClosed = fmt.Errorf("wal: closed")

// Close commits anything still staged and closes the current segment.
// The WAL is unusable afterwards; closing it again reports nothing.
func (w *WAL) Close() error {
	w.mu.Lock()
	for w.leader {
		w.cond.Wait()
	}
	if w.err == nil && len(w.pending) > 0 {
		w.commitLocked(false)
	}
	err := w.err
	if err == errClosed {
		err = nil
	}
	if w.f != nil {
		if cerr := w.f.Close(); err == nil {
			err = cerr
		}
		w.f = nil
	}
	if w.err == nil {
		w.err = errClosed
	}
	w.mu.Unlock()
	w.cond.Broadcast()
	return err
}
