package online

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"erfilter/internal/faultfs"
	"erfilter/internal/wal"
)

// A follower is the one durable Store fed by Apply instead of local
// writes; this suite runs every follower property over both storage
// kinds. The follower opens under a filter configuration of its own
// (flat, which no leader here serves): the leader's snapshot replaces it.

const followerDir = "replica"

// storageKind places a config on the storage shape a subtest runs
// under. Leaders pass leaderCap so no memtable-full checkpoint trims the
// log mid-test (a follower behind a trim re-bootstraps, which is a
// different test); followers pass followerCap so theirs fire constantly.
type storageKind func(c Config, memtableCap int) Config

const leaderCap, followerCap = 1 << 10, 4

var storageKinds = map[string]storageKind{
	"memory": func(c Config, _ int) Config { return c },
	"disk":   func(c Config, memtableCap int) Config { return diskConfig(c, "", memtableCap) },
}

// eachStorage runs fn as one subtest per storage kind.
func eachStorage(t *testing.T, fn func(t *testing.T, kind storageKind)) {
	for name, kind := range storageKinds {
		t.Run(name, func(t *testing.T) { fn(t, kind) })
	}
}

func openReplica(t *testing.T, m faultfs.FS, kind storageKind, opt StoreOptions) *Store {
	t.Helper()
	opt.FS = m
	f, err := OpenStore(followerDir, kind(testConfigs()["flat"], followerCap), 1, opt)
	if err != nil {
		t.Fatalf("open follower: %v", err)
	}
	return f
}

// leaderCut runs the leader half of the bootstrap protocol and returns
// the cut: position, term and the snapshot stream's bytes.
func leaderCut(t *testing.T, s *Store) (wal.Position, uint64, []byte) {
	t.Helper()
	pos, term, save, err := s.ReplSnapshot()
	if err != nil {
		t.Fatalf("repl snapshot: %v", err)
	}
	var buf bytes.Buffer
	if err := save(&buf); err != nil {
		t.Fatalf("stream snapshot: %v", err)
	}
	return pos, term, buf.Bytes()
}

// bootstrapFollower runs the full bootstrap protocol in-process:
// ReplSnapshot on the leader, Bootstrap on the follower.
func bootstrapFollower(t *testing.T, s, f *Store) {
	t.Helper()
	pos, term, snap := leaderCut(t, s)
	if err := f.Bootstrap(pos, term, bytes.NewReader(snap)); err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
}

// replicate tails the leader until the follower is caught up, in
// chunked fetches like the real tailer.
func replicate(t *testing.T, s, f *Store, chunk int) {
	t.Helper()
	for {
		pos := f.LogPos()
		data, at, _, err := s.ReadLog(pos, chunk)
		if err != nil {
			t.Fatalf("read log at %v: %v", pos, err)
		}
		if len(data) == 0 {
			return
		}
		n, err := f.Apply(at, data)
		if err != nil {
			t.Fatalf("apply %d bytes at %v: %v", len(data), at, err)
		}
		if n == 0 {
			// Partial frame: widen the window like the tailer does.
			chunk *= 2
		}
	}
}

// logsEqual asserts a caught-up follower's wal-*.seg files are byte for
// byte the leader's files of the same names (a follower's log is always
// a prefix of its leader's; caught up, the prefix is the whole), and
// that it holds no segment the leader lacks.
func logsEqual(t *testing.T, lm *faultfs.Mem, ldir string, fm *faultfs.Mem, fdir string) {
	t.Helper()
	names, err := fm.ReadDir(fdir)
	if err != nil {
		t.Fatal(err)
	}
	segs := 0
	for _, name := range names {
		if !strings.HasPrefix(name, "wal-") {
			continue
		}
		segs++
		fb, _ := fm.FileBytes(fdir + "/" + name)
		lb, ok := lm.FileBytes(ldir + "/" + name)
		if !ok {
			t.Fatalf("follower holds %s, which the leader does not", name)
		}
		if !bytes.Equal(lb, fb) {
			t.Fatalf("%s: follower's %d bytes are not the leader's (%d bytes)", name, len(fb), len(lb))
		}
	}
	if segs == 0 {
		t.Fatal("follower holds no log segment")
	}
}

func insertN(t *testing.T, s *Store, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if _, err := s.Insert(attrsText(fmt.Sprintf("entity number %04d canon", i))); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFollowerMirrorsLeaderByteIdentically(t *testing.T) {
	eachStorage(t, func(t *testing.T, kind storageKind) {
		for name, cfg := range testConfigs() {
			if cfg.Dense == DenseHNSW && kind(cfg, leaderCap).Storage == StorageDisk {
				continue // a disk tier serves the exact dense index only
			}
			t.Run(name, func(t *testing.T) {
				lm, fm := faultfs.NewMem(), faultfs.NewMem()
				s := mustOpenStore(t, lm, kind(cfg, leaderCap), StoreOptions{SegmentBytes: 512})
				for _, txt := range corpus[:3] {
					if _, err := s.Insert(attrsText(txt)); err != nil {
						t.Fatal(err)
					}
				}
				f := openReplica(t, fm, kind, StoreOptions{SegmentBytes: 512})
				if f.Following() {
					t.Fatal("fresh follower claims bootstrap")
				}
				if _, err := f.Apply(wal.Position{Seg: 1, Off: int64(wal.MagicLen)}, []byte{1}); !errors.Is(err, ErrNotBootstrapped) {
					t.Fatalf("apply before bootstrap: %v, want ErrNotBootstrapped", err)
				}
				bootstrapFollower(t, s, f)
				replicate(t, s, f, 64)

				// Writes after bootstrap arrive through the tail.
				for _, txt := range corpus[3:] {
					if _, err := s.Insert(attrsText(txt)); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := s.Delete(1); err != nil {
					t.Fatal(err)
				}
				replicate(t, s, f, 64)

				if pos := f.LogPos(); pos != s.LogPos() {
					t.Fatalf("follower at %v, leader at %v", pos, s.LogPos())
				}
				logsEqual(t, lm, storeDir, fm, followerDir)
				sameAnswers(t, "replicated", f.Resolver(), s.Resolver())
				if got, want := residents(f), residents(s); !reflect.DeepEqual(got, want) {
					t.Fatalf("replica residents = %v, want %v", got, want)
				}
				// A replica's own snapshot (GET /v1/snapshot on a follower)
				// carries the mirrored id watermark, not its idle allocator's.
				var snap bytes.Buffer
				if err := f.Resolver().Save(&snap); err != nil {
					t.Fatal(err)
				}
				if re, err := Load(&snap, Config{}, 1); err != nil || re.Len() != s.Resolver().Len() {
					t.Fatalf("follower snapshot does not load back: %v", err)
				}
				f.Close()
				s.Close()
			})
		}
	})
}

func TestFollowerCrashRecoveryResumesTail(t *testing.T) {
	eachStorage(t, func(t *testing.T, kind storageKind) {
		cfg := kind(testConfigs()["epsjoin"], leaderCap)
		lm, fm := faultfs.NewMem(), faultfs.NewMem()
		s := mustOpenStore(t, lm, cfg, StoreOptions{SegmentBytes: 256})
		insertN(t, s, 0, 12)
		f := openReplica(t, fm, kind, StoreOptions{SegmentBytes: 256})
		bootstrapFollower(t, s, f)
		replicate(t, s, f, 1<<20)
		insertN(t, s, 12, 20)
		replicate(t, s, f, 1<<20)

		// Follower crashes; half the unsynced tail bytes survive (they are
		// all synced in Apply, so this only shreds whatever the OS held).
		fm.Crash()
		fm.Restart(func(string, int) int { return 1 })
		f2 := openReplica(t, fm, kind, StoreOptions{SegmentBytes: 256})
		if !f2.Following() {
			t.Fatal("recovered follower lost its bootstrap")
		}
		insertN(t, s, 20, 24)
		replicate(t, s, f2, 1<<20)
		if pos := f2.LogPos(); pos != s.LogPos() {
			t.Fatalf("recovered follower at %v, leader at %v", pos, s.LogPos())
		}
		logsEqual(t, lm, storeDir, fm, followerDir)
		sameAnswers(t, "recovered replica", f2.Resolver(), s.Resolver())
		f2.Close()
		s.Close()
	})
}

func TestFollowerCheckpointTrimsAndRecovers(t *testing.T) {
	eachStorage(t, func(t *testing.T, kind storageKind) {
		cfg := kind(testConfigs()["epsjoin"], leaderCap)
		lm, fm := faultfs.NewMem(), faultfs.NewMem()
		s := mustOpenStore(t, lm, cfg, StoreOptions{SegmentBytes: 256})
		if err := s.Promote(3); err != nil {
			t.Fatal(err)
		}
		f := openReplica(t, fm, kind, StoreOptions{SegmentBytes: 256, CheckpointEvery: 5})
		bootstrapFollower(t, s, f)
		insertN(t, s, 0, 30)
		replicate(t, s, f, 1<<20)
		// The auto-checkpoints fired, left the log itself untouched — a
		// follower's checkpoint may not rotate or append — and trimmed the
		// segments they absorbed.
		if f.Stats().Checkpoints == 0 {
			t.Fatal("30 applied records at -checkpoint-every 5 never checkpointed")
		}
		logsEqual(t, lm, storeDir, fm, followerDir)
		names, _ := fm.ReadDir(followerDir)
		segs := 0
		for _, n := range names {
			if strings.HasPrefix(n, "wal-") {
				segs++
			}
		}
		if segs == 0 || segs > 3 {
			t.Fatalf("%d log segments after checkpoints", segs)
		}
		// Recovery over the checkpointed state still converges, and the
		// term — whose walTerm record the trims deleted — comes back from
		// the anchor.
		fm.Crash()
		fm.Restart(nil)
		f2 := openReplica(t, fm, kind, StoreOptions{SegmentBytes: 256})
		if f2.Term() != 3 {
			t.Fatalf("recovered follower term %d, want 3", f2.Term())
		}
		replicate(t, s, f2, 1<<20)
		sameAnswers(t, "checkpointed replica", f2.Resolver(), s.Resolver())
		f2.Close()
		s.Close()
	})
}

func TestFollowerRebootstrapAfterTrim(t *testing.T) {
	eachStorage(t, func(t *testing.T, kind storageKind) {
		cfg := kind(testConfigs()["knnj"], leaderCap)
		lm, fm := faultfs.NewMem(), faultfs.NewMem()
		s := mustOpenStore(t, lm, cfg, StoreOptions{SegmentBytes: 256})
		f := openReplica(t, fm, kind, StoreOptions{SegmentBytes: 256})
		insertN(t, s, 0, 8)
		bootstrapFollower(t, s, f)
		replicate(t, s, f, 1<<20)
		before := f.Resolver()

		// The leader checkpoints and trims; a follower that fell far behind
		// (simulated: rewind impossible, so bootstrap from zero) gets the
		// trimmed signal and must re-bootstrap.
		insertN(t, s, 8, 16)
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := s.ReadLog(wal.Position{Seg: 1, Off: 0}, 0); !errors.Is(err, wal.ErrTrimmed) {
			t.Fatalf("read of trimmed history: %v, want ErrTrimmed", err)
		}
		// Re-bootstrap over the live follower: full wipe + reinstall. A
		// reader still holding the old resolver keeps its consistent view.
		bootstrapFollower(t, s, f)
		replicate(t, s, f, 1<<20)
		sameAnswers(t, "re-bootstrapped", f.Resolver(), s.Resolver())
		logsEqual(t, lm, storeDir, fm, followerDir)
		if before.Len() != 8 || len(before.Query(attrsText(probeTexts[0]), QueryOptions{})) == 0 {
			t.Fatalf("the pre-bootstrap resolver stopped answering (%d entities)", before.Len())
		}

		// Reads past the leader's end are the divergence signal.
		end := s.LogPos()
		if _, _, _, err := s.ReadLog(wal.Position{Seg: end.Seg, Off: end.Off + 4}, 0); !errors.Is(err, wal.ErrFuture) {
			t.Fatalf("read past end: %v, want ErrFuture", err)
		}
		f.Close()
		s.Close()
	})
}

// TestFollowerRebootstrapAfterDivergenceAhead pins the re-bootstrap of a
// follower that is AHEAD of its new leader by segment index: it mirrored
// the old leader to segment 8-ish, and is re-parented under a replica
// that was promoted back at segment 3-ish. Every local segment belongs
// to the deposed reign and must go — none may survive to be fetched
// from, skipped over, or replayed onto the new snapshot after a crash.
func TestFollowerRebootstrapAfterDivergenceAhead(t *testing.T) {
	eachStorage(t, func(t *testing.T, kind storageKind) {
		cfg := kind(testConfigs()["epsjoin"], leaderCap)
		am, bm, fm := faultfs.NewMem(), faultfs.NewMem(), faultfs.NewMem()
		opt := StoreOptions{SegmentBytes: 256}
		a := mustOpenStore(t, am, cfg, opt)
		if err := a.Promote(1); err != nil {
			t.Fatal(err)
		}
		insertN(t, a, 0, 10)

		// b follows the old leader only this far, then is promoted.
		opt.FS = bm
		b, err := OpenStore("b", kind(testConfigs()["flat"], leaderCap), 1, opt)
		if err != nil {
			t.Fatal(err)
		}
		bootstrapFollower(t, a, b)
		replicate(t, a, b, 1<<20)

		// f keeps following the old leader, segments ahead of b.
		f := openReplica(t, fm, kind, StoreOptions{SegmentBytes: 256})
		bootstrapFollower(t, a, f)
		insertN(t, a, 10, 40)
		if _, err := a.Delete(2); err != nil {
			t.Fatal(err)
		}
		replicate(t, a, f, 1<<20)
		a.Close()

		if err := b.Promote(2); err != nil {
			t.Fatalf("promote b: %v", err)
		}
		insertN(t, b, 100, 103)
		if ahead, end := f.LogPos(), b.LogPos(); ahead.Seg <= end.Seg+1 {
			t.Fatalf("fixture: follower at %v is not segments ahead of the new leader at %v", ahead, end)
		}

		// Re-parented: the fetch from f's position is beyond b's log.
		if _, _, _, err := b.ReadLog(f.LogPos(), 0); !errors.Is(err, wal.ErrFuture) {
			t.Fatalf("fetch from the deposed reign's position: %v, want ErrFuture", err)
		}
		bootstrapFollower(t, b, f)
		insertN(t, b, 103, 110)
		if _, err := b.Delete(101); err != nil {
			t.Fatal(err)
		}
		replicate(t, b, f, 1<<20) // fails here if a stale segment sets the fetch position
		if f.LogPos() != b.LogPos() || f.Term() != 2 {
			t.Fatalf("follower at %v term %d, new leader at %v term 2", f.LogPos(), f.Term(), b.LogPos())
		}
		logsEqual(t, bm, "b", fm, followerDir)
		sameAnswers(t, "re-parented", f.Resolver(), b.Resolver())

		// Crash and reopen: recovery replays only the new reign's records.
		fm.Crash()
		fm.Restart(nil)
		f2 := openReplica(t, fm, kind, StoreOptions{SegmentBytes: 256})
		if !f2.Following() || f2.LogPos() != b.LogPos() {
			t.Fatalf("reopened follower (following=%v) at %v, new leader at %v", f2.Following(), f2.LogPos(), b.LogPos())
		}
		logsEqual(t, bm, "b", fm, followerDir)
		sameAnswers(t, "re-parented, crashed, reopened", f2.Resolver(), b.Resolver())
		if got, want := residents(f2), residents(b); !reflect.DeepEqual(got, want) {
			t.Fatalf("reopened residents = %v, want %v", keysOf(got), keysOf(want))
		}
		f2.Close()
		b.Close()
	})
}

func TestFollowerPromoteContinuesAsLeader(t *testing.T) {
	eachStorage(t, func(t *testing.T, kind storageKind) {
		cfg := kind(testConfigs()["epsjoin"], leaderCap)
		lm, fm := faultfs.NewMem(), faultfs.NewMem()
		s := mustOpenStore(t, lm, cfg, StoreOptions{SegmentBytes: 512})
		insertN(t, s, 0, 10)
		f := openReplica(t, fm, kind, StoreOptions{SegmentBytes: 512, CheckpointEvery: 100})
		bootstrapFollower(t, s, f)
		replicate(t, s, f, 1<<20)
		oldLeaderState := residents(s)
		s.Close()

		// Promotion is in place: same Store, same resolver, same log.
		res, at := f.Resolver(), f.LogPos()
		if err := f.Promote(0); err == nil {
			t.Fatal("promotion at a term not above the followed reign's accepted")
		}
		if err := f.Promote(7); err != nil {
			t.Fatalf("promote: %v", err)
		}
		if f.Term() != 7 || f.Following() || f.Resolver() != res {
			t.Fatalf("promoted: term %d following %v same resolver %v", f.Term(), f.Following(), f.Resolver() == res)
		}
		if end := f.LogPos(); end.Seg != at.Seg || end.Off <= at.Off {
			t.Fatalf("the term record landed at %v, not after %v in the mirrored segment", end, at)
		}
		if got := residents(f); !reflect.DeepEqual(got, oldLeaderState) {
			t.Fatal("promotion changed the entity set")
		}
		// The promoted store accepts writes and its log replays seamlessly.
		id, err := f.Insert(attrsText("first write of the new reign"))
		if err != nil {
			t.Fatalf("insert on promoted: %v", err)
		}
		if id != 10 {
			t.Fatalf("first id of the new reign = %d, want 10: the allocator resumes past the mirrored ids", id)
		}
		want := residents(f)
		// A promoted store leads: it neither applies nor bootstraps.
		if _, err := f.Apply(f.LogPos(), nil); !errors.Is(err, ErrNotBootstrapped) {
			t.Fatalf("apply on promoted store: %v", err)
		}
		if err := f.Bootstrap(wal.Position{Seg: 9}, 9, bytes.NewReader(nil)); err == nil {
			t.Fatal("bootstrap on promoted store accepted")
		}
		if err := f.Close(); err != nil {
			t.Fatalf("close promoted: %v", err)
		}
		reopened := openReplica(t, fm, kind, StoreOptions{SegmentBytes: 512})
		defer reopened.Close()
		if reopened.Term() != 7 || reopened.Following() {
			t.Fatalf("reopened term %d following %v, want 7 and a leader's directory", reopened.Term(), reopened.Following())
		}
		if got := residents(reopened); !reflect.DeepEqual(got, want) {
			t.Fatal("reopened promoted store lost state")
		}
		if _, ok := reopened.Resolver().Get(id); !ok {
			t.Fatal("post-promotion write lost")
		}
	})
}

func TestStoreTermIsMonotonicAndDurable(t *testing.T) {
	cfg := testConfigs()["epsjoin"]
	m := faultfs.NewMem()
	s := mustOpenStore(t, m, cfg, StoreOptions{})
	if s.Term() != 0 {
		t.Fatalf("fresh term %d", s.Term())
	}
	if err := s.Promote(3); err != nil || s.Term() != 3 {
		t.Fatalf("set term: %v (term %d)", err, s.Term())
	}
	if err := s.Promote(2); err != nil || s.Term() != 3 {
		t.Fatalf("lower term regressed: %v (term %d)", err, s.Term())
	}
	s.Close()
	s2 := mustOpenStore(t, m, cfg, StoreOptions{})
	defer s2.Close()
	if s2.Term() != 3 {
		t.Fatalf("term after reopen %d, want 3", s2.Term())
	}
}

func TestFollowerBootstrapRejectsCorruptStream(t *testing.T) {
	eachStorage(t, func(t *testing.T, kind storageKind) {
		cfg := kind(testConfigs()["epsjoin"], leaderCap)
		lm, fm := faultfs.NewMem(), faultfs.NewMem()
		s := mustOpenStore(t, lm, cfg, StoreOptions{})
		for _, txt := range corpus {
			if _, err := s.Insert(attrsText(txt)); err != nil {
				t.Fatal(err)
			}
		}
		defer s.Close()
		pos, term, raw := leaderCut(t, s)
		f := openReplica(t, fm, kind, StoreOptions{})
		// Truncated and bit-flipped streams must be rejected whole.
		if err := f.Bootstrap(pos, term, bytes.NewReader(raw[:len(raw)/2])); err == nil {
			t.Fatal("truncated stream accepted")
		}
		flipped := append([]byte(nil), raw...)
		flipped[len(flipped)/3] ^= 0x10
		if err := f.Bootstrap(pos, term, bytes.NewReader(flipped)); err == nil {
			t.Fatal("corrupt stream accepted")
		}
		if err := f.Bootstrap(wal.Position{Seg: pos.Seg, Off: 9}, term, bytes.NewReader(raw)); err == nil {
			t.Fatal("mid-segment anchor accepted")
		}
		if f.Following() || f.Resolver().Len() != 0 {
			t.Fatal("failed bootstraps left state behind")
		}
		// And the dir reopens cleanly as un-bootstrapped.
		f.Close()
		f2 := openReplica(t, fm, kind, StoreOptions{})
		if f2.Following() {
			t.Fatal("reopened dir claims bootstrap")
		}
		if err := f2.Bootstrap(pos, term, bytes.NewReader(raw)); err != nil {
			t.Fatalf("good stream rejected after failures: %v", err)
		}
		sameAnswers(t, "bootstrapped after failures", f2.Resolver(), s.Resolver())
		f2.Close()
	})
}

// TestFollowerBootstrapCrashSweep crashes a re-bootstrap at every write
// budget — over a follower that already holds an older cut, a log tail
// and a checkpoint's worth of state to wipe — and reopens. The directory
// must open, and be one of exactly two things: un-anchored, in which
// case a fresh bootstrap succeeds; or anchored at the new cut and equal
// to it. Never a mix of the old reign's records and the new snapshot.
// (The disk kind writes four times the bytes, so it steps the budget by
// three: still inside every write call, the 7-byte magic included.)
func TestFollowerBootstrapCrashSweep(t *testing.T) {
	eachStorage(t, func(t *testing.T, kind storageKind) {
		cfg := kind(testConfigs()["epsjoin"], leaderCap)
		lm := faultfs.NewMem()
		s := mustOpenStore(t, lm, cfg, StoreOptions{SegmentBytes: 256})
		defer s.Close()
		insertN(t, s, 0, 3)
		pos1, term1, cut1 := leaderCut(t, s)
		insertN(t, s, 3, 8)
		if _, err := s.Delete(1); err != nil {
			t.Fatal(err)
		}
		pos2, term2, cut2 := leaderCut(t, s)
		atCut2, err := Load(bytes.NewReader(cut2), Config{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		insertN(t, s, 8, 10)

		stride := int64(1)
		if cfg.Storage == StorageDisk {
			stride = 3
		}
		anchored, unanchored := 0, 0
		for budget := int64(0); ; budget += stride {
			fm := faultfs.NewMem()
			f := openReplica(t, fm, kind, StoreOptions{SegmentBytes: 256, CheckpointEvery: 3})
			if err := f.Bootstrap(pos1, term1, bytes.NewReader(cut1)); err != nil {
				t.Fatal(err)
			}
			replicate(t, s, f, 1<<20)

			fm.LimitWrites(budget)
			berr := f.Bootstrap(pos2, term2, bytes.NewReader(cut2))
			fm.Crash()
			keep := func(string, int) int { return 0 }
			if budget/stride%2 == 1 {
				keep = func(_ string, unsynced int) int { return unsynced }
			}
			fm.Restart(keep)

			f2 := openReplica(t, fm, kind, StoreOptions{SegmentBytes: 256})
			label := fmt.Sprintf("budget %d", budget)
			if f2.Following() {
				anchored++
				if want := (wal.Position{Seg: pos2.Seg, Off: int64(wal.MagicLen)}); f2.LogPos() != want {
					t.Fatalf("%s: anchored at the new cut but the log is at %v, want %v", label, f2.LogPos(), want)
				}
				sameAnswers(t, label+": anchored at the new cut", f2.Resolver(), atCut2)
				if got, want := f2.Resolver().IDs(), atCut2.IDs(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: anchored residents %v, the cut holds %v", label, got, want)
				}
			} else {
				unanchored++
				if err := f2.Bootstrap(pos2, term2, bytes.NewReader(cut2)); err != nil {
					t.Fatalf("%s: re-bootstrap of the un-anchored directory: %v", label, err)
				}
			}
			replicate(t, s, f2, 1<<20)
			if f2.LogPos() != s.LogPos() {
				t.Fatalf("%s: follower at %v, leader at %v", label, f2.LogPos(), s.LogPos())
			}
			logsEqual(t, lm, storeDir, fm, followerDir)
			sameAnswers(t, label+": caught up", f2.Resolver(), s.Resolver())
			f2.Close()
			if berr == nil {
				break // the budget outlasted the whole bootstrap
			}
		}
		if anchored < 2 || unanchored < 2 {
			t.Fatalf("the sweep saw %d anchored and %d un-anchored reopen(s); it must cross the anchor write", anchored, unanchored)
		}
	})
}

// TestFollowerBootstrapSyncFaultLeavesARetryableStore fails one fsync at a
// time inside a re-bootstrap — the process lives on, unlike the crash
// sweep's. The store must be un-anchored and degraded, still serving the
// resolver it had; then either a retry in place installs the cut and
// lifts the degradation, or Close returns cleanly (no checkpoint on the
// closed log) and the directory reopens un-anchored. A second failure
// before the retry checks that no shard is retired, or closed, twice.
func TestFollowerBootstrapSyncFaultLeavesARetryableStore(t *testing.T) {
	eachStorage(t, func(t *testing.T, kind storageKind) {
		cfg := kind(testConfigs()["epsjoin"], leaderCap)
		lm := faultfs.NewMem()
		s := mustOpenStore(t, lm, cfg, StoreOptions{SegmentBytes: 256})
		defer s.Close()
		insertN(t, s, 0, 3)
		pos1, term1, cut1 := leaderCut(t, s)
		insertN(t, s, 3, 8)
		pos2, term2, cut2 := leaderCut(t, s)
		insertN(t, s, 8, 10)

		failures := 0
		for n := 1; ; n++ {
			fm := faultfs.NewMem()
			f := openReplica(t, fm, kind, StoreOptions{SegmentBytes: 256})
			if err := f.Bootstrap(pos1, term1, bytes.NewReader(cut1)); err != nil {
				t.Fatal(err)
			}
			replicate(t, s, f, 1<<20)
			before := f.Resolver()

			fm.FailSync(n)
			if err := f.Bootstrap(pos2, term2, bytes.NewReader(cut2)); err == nil {
				f.Close()
				break // the n-th fsync is past the bootstrap
			}
			failures++
			label := fmt.Sprintf("fsync %d", n)
			if ok, _ := f.Ready(); ok || f.Following() {
				t.Fatalf("%s: failed bootstrap left ready=%v following=%v, want neither", label, ok, f.Following())
			}
			if _, err := f.Apply(pos2, []byte{1}); !errors.Is(err, ErrNotBootstrapped) {
				t.Fatalf("%s: apply onto the torn store: %v, want ErrNotBootstrapped", label, err)
			}
			sameAnswers(t, label+": reads during the failure", f.Resolver(), before)
			if n%2 == 0 {
				if err := f.Close(); err != nil {
					t.Fatalf("%s: closing the torn store: %v", label, err)
				}
				if f = openReplica(t, fm, kind, StoreOptions{SegmentBytes: 256}); f.Following() {
					t.Fatalf("%s: the torn directory reopened anchored", label)
				}
			} else {
				fm.FailSync(1)
				if err := f.Bootstrap(pos2, term2, bytes.NewReader(cut2)); err == nil {
					t.Fatalf("%s: second failure not injected", label)
				}
			}
			if err := f.Bootstrap(pos2, term2, bytes.NewReader(cut2)); err != nil {
				t.Fatalf("%s: retry: %v", label, err)
			}
			if ok, err := f.Ready(); !ok || !f.Following() {
				t.Fatalf("%s: retried bootstrap left ready=%v (%v) following=%v", label, ok, err, f.Following())
			}
			replicate(t, s, f, 1<<20)
			logsEqual(t, lm, storeDir, fm, followerDir)
			sameAnswers(t, label+": caught up after the retry", f.Resolver(), s.Resolver())
			if err := f.Close(); err != nil {
				t.Fatalf("%s: close: %v", label, err)
			}
			f2 := openReplica(t, fm, kind, StoreOptions{SegmentBytes: 256})
			if !f2.Following() || f2.LogPos() != s.LogPos() {
				t.Fatalf("%s: reopened following=%v at %v, leader at %v", label, f2.Following(), f2.LogPos(), s.LogPos())
			}
			sameAnswers(t, label+": reopened", f2.Resolver(), s.Resolver())
			f2.Close()
		}
		if failures < 2 {
			t.Fatalf("only %d fsync(s) failed inside the bootstrap; want at least the persist and the anchor", failures)
		}
	})
}

// TestFollowerBootstrapRefusesHNSWOntoDisk: a disk tier holds the exact
// dense index only, so a disk follower of an HNSW leader would answer
// exactly where its leader answers approximately. The bootstrap refuses
// before touching anything, naming the remedy.
func TestFollowerBootstrapRefusesHNSWOntoDisk(t *testing.T) {
	lm, fm := faultfs.NewMem(), faultfs.NewMem()
	flat := mustOpenStore(t, lm, testConfigs()["flat"], StoreOptions{})
	defer flat.Close()
	insertN(t, flat, 0, 4)
	f := openReplica(t, fm, storageKinds["disk"], StoreOptions{})
	defer f.Close()
	bootstrapFollower(t, flat, f)
	before := f.LogPos()

	hnsw, err := OpenStore("hnsw-leader", testConfigs()["hnsw"], 1, StoreOptions{FS: lm})
	if err != nil {
		t.Fatal(err)
	}
	defer hnsw.Close()
	insertN(t, hnsw, 0, 4)
	pos, term, cut := leaderCut(t, hnsw)
	err = f.Bootstrap(pos, term, bytes.NewReader(cut))
	if err == nil || !strings.Contains(err.Error(), "-storage memory") {
		t.Fatalf("disk follower took an HNSW leader's cut: %v", err)
	}
	if ok, _ := f.Ready(); !ok || !f.Following() || f.LogPos() != before {
		t.Fatalf("the refusal touched the store: ready=%v following=%v pos=%v (was %v)", ok, f.Following(), f.LogPos(), before)
	}
	sameAnswers(t, "after the refusal", f.Resolver(), flat.Resolver())

	// The same cut installs on a memory follower, graph and all.
	mf := openReplica(t, faultfs.NewMem(), storageKinds["memory"], StoreOptions{})
	defer mf.Close()
	if err := mf.Bootstrap(pos, term, bytes.NewReader(cut)); err != nil {
		t.Fatal(err)
	}
	sameAnswers(t, "memory follower of the HNSW leader", mf.Resolver(), hnsw.Resolver())
}

// TestCompatFollowerDirLayout: a follower directory laid out by the
// rules in force before followers became stores — current.snap, the
// repl-meta anchor, wal-*.seg files mirrored verbatim with no magic
// written locally, so that the newest segment may be a runt holding less
// than the magic — reopens under the unified store, resumes tailing from
// the same position and answers byte-identically.
func TestCompatFollowerDirLayout(t *testing.T) {
	for _, tail := range []string{"complete", "empty runt", "torn magic", "no segment"} {
		t.Run(tail, func(t *testing.T) {
			cfg := testConfigs()["knnj"]
			lm, fm := faultfs.NewMem(), faultfs.NewMem()
			s := mustOpenStore(t, lm, cfg, StoreOptions{SegmentBytes: 256})
			defer s.Close()
			if err := s.Promote(4); err != nil {
				t.Fatal(err)
			}
			insertN(t, s, 0, 6)
			pos, term, snap := leaderCut(t, s)
			if tail != "no segment" {
				insertN(t, s, 6, 20)
			}

			// The old follower bootstrap: the stream teed to current.snap,
			// then the anchor; the old mirror log: leader bytes appended
			// verbatim from offset 0, files cut without a magic.
			write := func(name string, data []byte) {
				t.Helper()
				if err := faultfs.WriteFileAtomic(fm, followerDir, name+".tmp", name, func(w io.Writer) error {
					_, err := w.Write(data)
					return err
				}); err != nil {
					t.Fatal(err)
				}
			}
			write(snapName, snap)
			write(replMetaName, []byte(fmt.Sprintf("ERREPL 1\npos %s\nterm %d\n", pos, term)))
			want := wal.Position{Seg: pos.Seg, Off: int64(wal.MagicLen)}
			if tail != "no segment" {
				end := s.LogPos()
				for seg := pos.Seg; seg < end.Seg; seg++ {
					name := fmt.Sprintf("wal-%016x.seg", seg)
					b, _ := lm.FileBytes(storeDir + "/" + name)
					write(name, b)
					want = wal.Position{Seg: seg, Off: int64(len(b))}
				}
				runt := fmt.Sprintf("wal-%016x.seg", end.Seg)
				switch tail {
				case "empty runt":
					write(runt, nil)
				case "torn magic":
					write(runt, []byte("ERW"))
				}
				if tail != "complete" {
					// The old mirror stood at offset 0 of the runt; the magic
					// the store now writes locally is the same 7 bytes.
					want = wal.Position{Seg: end.Seg, Off: int64(wal.MagicLen)}
				}
			}

			f := openReplica(t, fm, storageKinds["memory"], StoreOptions{SegmentBytes: 256})
			defer f.Close()
			if !f.Following() || f.Term() != term || f.LogPos() != want {
				t.Fatalf("reopened: following %v term %d at %v; want true, %d, %v", f.Following(), f.Term(), f.LogPos(), term, want)
			}
			replicate(t, s, f, 1<<20)
			if f.LogPos() != s.LogPos() {
				t.Fatalf("follower at %v, leader at %v", f.LogPos(), s.LogPos())
			}
			logsEqual(t, lm, storeDir, fm, followerDir)
			sameJSONAnswers(t, "old-layout follower", f.Resolver(), s.Resolver())
		})
	}
}
