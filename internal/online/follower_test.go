package online

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"erfilter/internal/faultfs"
	"erfilter/internal/wal"
)

const followerDir = "replica"

// bootstrapFollower runs the full bootstrap protocol in-process:
// ReplSnapshot on the leader, Bootstrap on the follower.
func bootstrapFollower(t *testing.T, s *Store, f *FollowerStore) {
	t.Helper()
	pos, term, save, err := s.ReplSnapshot()
	if err != nil {
		t.Fatalf("repl snapshot: %v", err)
	}
	var buf bytes.Buffer
	if err := save(&buf); err != nil {
		t.Fatalf("stream snapshot: %v", err)
	}
	if err := f.Bootstrap(pos, term, &buf); err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
}

// replicate tails the leader until the follower is caught up, in
// chunked fetches like the real tailer.
func replicate(t *testing.T, s *Store, f *FollowerStore, chunk int) {
	t.Helper()
	for {
		pos, err := f.Pos()
		if err != nil {
			t.Fatalf("follower pos: %v", err)
		}
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

func mustOpenFollower(t *testing.T, m faultfs.FS, opt StoreOptions) *FollowerStore {
	t.Helper()
	opt.FS = m
	f, err := OpenFollower(followerDir, opt)
	if err != nil {
		t.Fatalf("open follower: %v", err)
	}
	return f
}

func TestFollowerMirrorsLeaderByteIdentically(t *testing.T) {
	for name, cfg := range testConfigs() {
		t.Run(name, func(t *testing.T) {
			lm, fm := faultfs.NewMem(), faultfs.NewMem()
			s := mustOpenStore(t, lm, cfg, StoreOptions{SegmentBytes: 512})
			for _, txt := range corpus[:3] {
				if _, err := s.Insert(attrsText(txt)); err != nil {
					t.Fatal(err)
				}
			}
			f := mustOpenFollower(t, fm, StoreOptions{SegmentBytes: 512})
			if f.Bootstrapped() {
				t.Fatal("fresh follower claims bootstrap")
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

			pos, _ := f.Pos()
			if pos != s.LogPos() {
				t.Fatalf("follower at %v, leader at %v", pos, s.LogPos())
			}
			sameAnswers(t, "replicated", f.Resolver(), s.Resolver())
			if got, want := residents(&Store{res: f.Resolver()}), residents(s); !reflect.DeepEqual(got, want) {
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
}

func TestFollowerCrashRecoveryResumesTail(t *testing.T) {
	cfg := testConfigs()["epsjoin"]
	lm, fm := faultfs.NewMem(), faultfs.NewMem()
	s := mustOpenStore(t, lm, cfg, StoreOptions{SegmentBytes: 256})
	for i := 0; i < 12; i++ {
		if _, err := s.Insert(attrsText(fmt.Sprintf("entity number %04d canon", i))); err != nil {
			t.Fatal(err)
		}
	}
	f := mustOpenFollower(t, fm, StoreOptions{SegmentBytes: 256})
	bootstrapFollower(t, s, f)
	replicate(t, s, f, 1<<20)
	for i := 12; i < 20; i++ {
		if _, err := s.Insert(attrsText(fmt.Sprintf("entity number %04d canon", i))); err != nil {
			t.Fatal(err)
		}
	}
	replicate(t, s, f, 1<<20)

	// Follower crashes; half the unsynced tail bytes survive (they are
	// all synced in Apply, so this only shreds whatever the OS held).
	fm.Crash()
	fm.Restart(func(string, int) int { return 1 })
	f2 := mustOpenFollower(t, fm, StoreOptions{SegmentBytes: 256})
	if !f2.Bootstrapped() {
		t.Fatal("recovered follower lost its bootstrap")
	}
	replicate(t, s, f2, 1<<20)
	pos, _ := f2.Pos()
	if pos != s.LogPos() {
		t.Fatalf("recovered follower at %v, leader at %v", pos, s.LogPos())
	}
	sameAnswers(t, "recovered replica", f2.Resolver(), s.Resolver())
	f2.Close()
	s.Close()
}

func TestFollowerCheckpointTrimsAndRecovers(t *testing.T) {
	cfg := testConfigs()["epsjoin"]
	lm, fm := faultfs.NewMem(), faultfs.NewMem()
	s := mustOpenStore(t, lm, cfg, StoreOptions{SegmentBytes: 256})
	f := mustOpenFollower(t, fm, StoreOptions{SegmentBytes: 256, CheckpointEvery: 5})
	bootstrapFollower(t, s, f)
	for i := 0; i < 30; i++ {
		if _, err := s.Insert(attrsText(fmt.Sprintf("entity number %04d canon", i))); err != nil {
			t.Fatal(err)
		}
	}
	replicate(t, s, f, 1<<20)
	if f.Stats().Applied != 30 {
		t.Fatalf("applied %d records, want 30", f.Stats().Applied)
	}
	// The auto-checkpoint must have trimmed mirrored segments.
	names, _ := fm.ReadDir(followerDir)
	segs := 0
	for _, n := range names {
		if len(n) > 4 && n[:4] == "wal-" {
			segs++
		}
	}
	if segs == 0 || segs > 3 {
		t.Fatalf("%d mirrored segments after checkpoints", segs)
	}
	// Recovery over the checkpointed state still converges.
	fm.Crash()
	fm.Restart(nil)
	f2 := mustOpenFollower(t, fm, StoreOptions{SegmentBytes: 256})
	replicate(t, s, f2, 1<<20)
	sameAnswers(t, "checkpointed replica", f2.Resolver(), s.Resolver())
	f2.Close()
	s.Close()
}

func TestFollowerRebootstrapAfterTrim(t *testing.T) {
	cfg := testConfigs()["knnj"]
	lm, fm := faultfs.NewMem(), faultfs.NewMem()
	s := mustOpenStore(t, lm, cfg, StoreOptions{SegmentBytes: 256})
	f := mustOpenFollower(t, fm, StoreOptions{SegmentBytes: 256})
	for i := 0; i < 8; i++ {
		if _, err := s.Insert(attrsText(fmt.Sprintf("entity number %04d canon", i))); err != nil {
			t.Fatal(err)
		}
	}
	bootstrapFollower(t, s, f)
	replicate(t, s, f, 1<<20)

	// The leader checkpoints and trims; a follower that fell far behind
	// (simulated: rewind impossible, so bootstrap from zero) gets the
	// trimmed signal and must re-bootstrap.
	for i := 8; i < 16; i++ {
		if _, err := s.Insert(attrsText(fmt.Sprintf("entity number %04d canon", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.ReadLog(wal.Position{Seg: 1, Off: 0}, 0); !errors.Is(err, wal.ErrTrimmed) {
		t.Fatalf("read of trimmed history: %v, want ErrTrimmed", err)
	}
	// Re-bootstrap over the live follower: full wipe + reinstall.
	bootstrapFollower(t, s, f)
	replicate(t, s, f, 1<<20)
	sameAnswers(t, "re-bootstrapped", f.Resolver(), s.Resolver())

	// Reads past the leader's end are the divergence signal.
	end := s.LogPos()
	if _, _, _, err := s.ReadLog(wal.Position{Seg: end.Seg, Off: end.Off + 4}, 0); !errors.Is(err, wal.ErrFuture) {
		t.Fatalf("read past end: %v, want ErrFuture", err)
	}
	f.Close()
	s.Close()
}

func TestFollowerPromoteContinuesAsLeader(t *testing.T) {
	cfg := testConfigs()["epsjoin"]
	lm, fm := faultfs.NewMem(), faultfs.NewMem()
	s := mustOpenStore(t, lm, cfg, StoreOptions{SegmentBytes: 512})
	for i := 0; i < 10; i++ {
		if _, err := s.Insert(attrsText(fmt.Sprintf("entity number %04d canon", i))); err != nil {
			t.Fatal(err)
		}
	}
	f := mustOpenFollower(t, fm, StoreOptions{SegmentBytes: 512, CheckpointEvery: 100})
	bootstrapFollower(t, s, f)
	replicate(t, s, f, 1<<20)
	oldLeaderState := residents(s)
	s.Close()

	promoted, err := f.Promote(7)
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	if promoted.Term() != 7 {
		t.Fatalf("promoted term %d, want 7", promoted.Term())
	}
	if got := residents(promoted); !reflect.DeepEqual(got, oldLeaderState) {
		t.Fatal("promotion changed the entity set")
	}
	// The promoted store accepts writes and its log replays seamlessly.
	id, err := promoted.Insert(attrsText("first write of the new reign"))
	if err != nil {
		t.Fatalf("insert on promoted: %v", err)
	}
	want := residents(promoted)
	if err := promoted.Close(); err != nil {
		t.Fatalf("close promoted: %v", err)
	}
	reopened, err := OpenStore(followerDir, cfg, 1, StoreOptions{FS: fm, SegmentBytes: 512})
	if err != nil {
		t.Fatalf("reopen promoted dir as store: %v", err)
	}
	defer reopened.Close()
	if reopened.Term() != 7 {
		t.Fatalf("reopened term %d, want 7", reopened.Term())
	}
	if got := residents(reopened); !reflect.DeepEqual(got, want) {
		t.Fatal("reopened promoted store lost state")
	}
	if _, ok := reopened.Resolver().Get(id); !ok {
		t.Fatal("post-promotion write lost")
	}
	// The ex-follower is dead: further applies must fail.
	if _, err := f.Apply(wal.Position{}, nil); err == nil {
		t.Fatal("apply on promoted follower succeeded")
	}
}

func TestSetTermIsMonotonicAndDurable(t *testing.T) {
	cfg := testConfigs()["epsjoin"]
	m := faultfs.NewMem()
	s := mustOpenStore(t, m, cfg, StoreOptions{})
	if s.Term() != 0 {
		t.Fatalf("fresh term %d", s.Term())
	}
	if err := s.SetTerm(3); err != nil || s.Term() != 3 {
		t.Fatalf("set term: %v (term %d)", err, s.Term())
	}
	if err := s.SetTerm(2); err != nil || s.Term() != 3 {
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
	cfg := testConfigs()["epsjoin"]
	lm, fm := faultfs.NewMem(), faultfs.NewMem()
	s := mustOpenStore(t, lm, cfg, StoreOptions{})
	for _, txt := range corpus {
		if _, err := s.Insert(attrsText(txt)); err != nil {
			t.Fatal(err)
		}
	}
	defer s.Close()
	pos, term, save, err := s.ReplSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	f := mustOpenFollower(t, fm, StoreOptions{})
	// Truncated and bit-flipped streams must be rejected whole.
	if err := f.Bootstrap(pos, term, bytes.NewReader(raw[:len(raw)/2])); err == nil {
		t.Fatal("truncated stream accepted")
	}
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/3] ^= 0x10
	if err := f.Bootstrap(pos, term, bytes.NewReader(flipped)); err == nil {
		t.Fatal("corrupt stream accepted")
	}
	if f.Bootstrapped() {
		t.Fatal("failed bootstraps left state behind")
	}
	// And the dir reopens cleanly as un-bootstrapped.
	f.Close()
	f2 := mustOpenFollower(t, fm, StoreOptions{})
	if f2.Bootstrapped() {
		t.Fatal("reopened dir claims bootstrap")
	}
	if err := f2.Bootstrap(pos, term, bytes.NewReader(raw)); err != nil {
		t.Fatalf("good stream rejected after failures: %v", err)
	}
	sameAnswers(t, "bootstrapped after failures", f2.Resolver(), s.Resolver())
	f2.Close()
}
