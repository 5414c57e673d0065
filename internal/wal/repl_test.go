package wal

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"erfilter/internal/faultfs"
)

func TestPositionWireForm(t *testing.T) {
	cases := []Position{{}, {1, 0}, {1, 8}, {42, 1 << 30}, {^uint64(0), 7}}
	for _, p := range cases {
		got, err := ParsePosition(p.String())
		if err != nil || got != p {
			t.Fatalf("round trip %v -> %q -> %v (%v)", p, p.String(), got, err)
		}
	}
	for _, bad := range []string{"", "5", "5.", ".5", "5.-1", "x.0", "5.0x", "5..0"} {
		if _, err := ParsePosition(bad); err == nil {
			t.Fatalf("ParsePosition(%q) accepted", bad)
		}
	}
	if !(Position{1, 9}).Less(Position{2, 0}) || (Position{2, 0}).Less(Position{2, 0}) ||
		!(Position{2, 0}).Less(Position{2, 1}) {
		t.Fatal("position ordering wrong")
	}
}

// drain walks the log from pos via ReadAt with a small chunk size,
// returning the concatenated bytes — the follower's fetch loop in
// miniature.
func drain(t *testing.T, w *WAL, pos Position, chunk int) ([]byte, Position) {
	t.Helper()
	var out []byte
	for {
		data, at, next, err := w.ReadAt(pos, chunk)
		if err != nil {
			t.Fatalf("ReadAt(%v): %v", pos, err)
		}
		if len(data) == 0 {
			if next != pos || at != pos {
				t.Fatalf("empty read moved position %v -> at %v next %v", pos, at, next)
			}
			return out, pos
		}
		out = append(out, data...)
		pos = next
	}
}

func TestReadAtEmptyLog(t *testing.T) {
	m := faultfs.NewMem()
	w, _ := mustOpen(t, m, Options{})
	defer w.Close()
	// A fresh log holds exactly the magic of segment 1.
	data, at, next, err := w.ReadAt(Position{1, 0}, 0)
	if err != nil || len(data) != MagicLen || at != (Position{1, 0}) || next != (Position{1, int64(MagicLen)}) {
		t.Fatalf("got %d bytes at=%v next=%v err=%v", len(data), at, next, err)
	}
	// Caught up: empty read, same position.
	data, _, next, err = w.ReadAt(next, 0)
	if err != nil || len(data) != 0 || next != (Position{1, int64(MagicLen)}) {
		t.Fatalf("caught-up read: %d bytes next=%v err=%v", len(data), next, err)
	}
}

func TestReadAtWalksRotatedSegmentsByteIdentically(t *testing.T) {
	m := faultfs.NewMem()
	w, _ := mustOpen(t, m, Options{SegmentBytes: 128})
	defer w.Close()
	appendN(t, w, 0, 40) // several rotations at 128-byte segments
	end := w.Pos()
	if end.Seg < 3 {
		t.Fatalf("expected rotations, still at %v", end)
	}
	got, at := drain(t, w, Position{1, 0}, 37) // odd chunk: split frames mid-header
	if at != end {
		t.Fatalf("drained to %v, want %v", at, end)
	}
	// The drained stream must equal the segment files concatenated.
	var want []byte
	for seg := uint64(1); seg <= end.Seg; seg++ {
		b, ok := m.FileBytes(dir + "/" + segName(seg))
		if !ok {
			t.Fatalf("segment %d missing", seg)
		}
		want = append(want, b...)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("drained %d bytes != %d on-disk bytes", len(got), len(want))
	}
	// And parse back to exactly the appended records.
	var recs []Record
	off := 0
	for seg := uint64(1); seg <= end.Seg; seg++ {
		b, _ := m.FileBytes(dir + "/" + segName(seg))
		rs, n, err := ParseFrames(b, true)
		if err != nil || n != len(b) {
			t.Fatalf("segment %d: consumed %d/%d err=%v", seg, n, len(b), err)
		}
		recs, off = append(recs, rs...), off+n
	}
	wantRecords(t, recs, 40)
}

func TestReadAtOffsetPastEndIsFuture(t *testing.T) {
	m := faultfs.NewMem()
	w, _ := mustOpen(t, m, Options{})
	defer w.Close()
	appendN(t, w, 0, 3)
	end := w.Pos()
	for _, pos := range []Position{{end.Seg, end.Off + 1}, {end.Seg + 1, 0}, {end.Seg + 5, 99}} {
		if _, _, _, err := w.ReadAt(pos, 0); !errors.Is(err, ErrFuture) {
			t.Fatalf("ReadAt(%v) err=%v, want ErrFuture", pos, err)
		}
	}
}

func TestReadAtTrimmedSegmentSignalsRestart(t *testing.T) {
	m := faultfs.NewMem()
	w, _ := mustOpen(t, m, Options{SegmentBytes: 64})
	defer w.Close()
	appendN(t, w, 0, 20)
	keep, err := w.Rotate()
	if err != nil {
		t.Fatalf("rotate: %v", err)
	}
	if err := w.TrimBefore(keep); err != nil {
		t.Fatalf("trim: %v", err)
	}
	if _, _, _, err := w.ReadAt(Position{1, 0}, 0); !errors.Is(err, ErrTrimmed) {
		t.Fatalf("read into trimmed segment err=%v, want ErrTrimmed", err)
	}
	// The retained tail still reads fine.
	if _, _, _, err := w.ReadAt(Position{keep, 0}, 0); err != nil {
		t.Fatalf("read at keep boundary: %v", err)
	}
}

func TestReadAtServesOnlyDurableBytesOfTornTail(t *testing.T) {
	m := faultfs.NewMem()
	w, _ := mustOpen(t, m, Options{})
	appendN(t, w, 0, 5)
	durable := w.Pos()
	// Stage a record and fail its fsync: the bytes hit the file but are
	// not durable; ReadAt must not serve them.
	m.FailSync(1)
	if err := w.Append(1, []byte("lost")); err == nil {
		t.Fatal("append with failed fsync succeeded")
	}
	data, _, next, err := w.ReadAt(Position{1, 0}, 1<<20)
	if err != nil {
		t.Fatalf("ReadAt on broken wal: %v", err)
	}
	if next != durable || int64(len(data)) != durable.Off {
		t.Fatalf("read %d bytes to %v, want exactly the durable %v", len(data), next, durable)
	}
	recs, n, perr := ParseFrames(data, true)
	if perr != nil || n != len(data) || len(recs) != 5 {
		t.Fatalf("durable prefix parsed to %d records (consumed %d/%d, err %v)", len(recs), n, len(data), perr)
	}
}

func TestWaitForLongPoll(t *testing.T) {
	m := faultfs.NewMem()
	w, _ := mustOpen(t, m, Options{})
	defer w.Close()
	end := w.Pos()
	if w.WaitFor(end, 20*time.Millisecond) {
		t.Fatal("WaitFor reported progress on an idle log")
	}
	done := make(chan bool, 1)
	go func() { done <- w.WaitFor(end, 5*time.Second) }()
	time.Sleep(10 * time.Millisecond)
	appendN(t, w, 0, 1)
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("WaitFor missed the append")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitFor never woke")
	}
	if !w.WaitFor(Position{1, 0}, 0) {
		t.Fatal("WaitFor with bytes already available returned false")
	}
}

func TestParseFramesRejectsCorruption(t *testing.T) {
	var stream []byte
	stream = append(stream, segMagic...)
	stream = appendFrame(stream, 1, []byte("hello"))
	stream = appendFrame(stream, 2, []byte("world"))

	if _, _, err := ParseFrames(append([]byte("XXWAL\x01\n"), stream[MagicLen:]...), true); err == nil {
		t.Fatal("bad magic accepted")
	}
	flipped := append([]byte(nil), stream...)
	flipped[MagicLen+frameHeader+2] ^= 0x40 // payload bit flip in a complete frame
	if _, _, err := ParseFrames(flipped, true); err == nil {
		t.Fatal("checksum mismatch accepted")
	}
	insane := append([]byte(nil), stream[:MagicLen]...)
	insane = append(insane, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0)
	if _, _, err := ParseFrames(insane, true); err == nil {
		t.Fatal("insane length accepted")
	}
	// Every truncation of a valid stream is torn, not corrupt, and
	// consumes only whole frames.
	for cut := 0; cut < len(stream); cut++ {
		recs, n, err := ParseFrames(stream[:cut], true)
		if err != nil {
			t.Fatalf("prefix %d: %v", cut, err)
		}
		if n > cut {
			t.Fatalf("prefix %d: consumed %d", cut, n)
		}
		if cut == len(stream)-1 && len(recs) != 1 {
			t.Fatalf("prefix %d: %d records, want 1", cut, len(recs))
		}
	}
	recs, n, err := ParseFrames(stream, true)
	if err != nil || n != len(stream) || len(recs) != 2 ||
		string(recs[0].Data) != "hello" || string(recs[1].Data) != "world" {
		t.Fatalf("full parse: %d recs consumed %d err %v", len(recs), n, err)
	}
}

// followFrom tails w into a fresh follower log under ffs until caught
// up, chunked so frames split across fetches.
func followFrom(t *testing.T, w *WAL, ffs faultfs.FS, chunk int) *WAL {
	t.Helper()
	fol, err := Open(dir, Options{FS: ffs}, nil)
	if err != nil {
		t.Fatalf("open follower log: %v", err)
	}
	catchUp(t, w, fol, chunk)
	return fol
}

func catchUp(t *testing.T, w, fol *WAL, chunk int) {
	t.Helper()
	for {
		pos := fol.Pos()
		data, at, _, err := w.ReadAt(pos, chunk)
		if err != nil {
			t.Fatalf("tail ReadAt(%v): %v", pos, err)
		}
		if len(data) == 0 {
			return
		}
		// Only durable whole frames cross into the follower, like the
		// real tailer: parse first, append the consumed prefix.
		_, n, perr := ParseFrames(data, at.Off == 0)
		if perr != nil {
			t.Fatalf("tail parse at %v: %v", at, perr)
		}
		if n == 0 {
			// A frame split below the chunk size would stall; the test
			// chunk is always big enough for one frame.
			t.Fatalf("no complete frame in %d bytes at %v", len(data), at)
		}
		if err := fol.AppendRaw(at, data[:n]); err != nil {
			t.Fatalf("raw append at %v: %v", at, err)
		}
	}
}

func segmentsEqual(t *testing.T, a faultfs.FS, adir string, b faultfs.FS, bdir string) {
	t.Helper()
	an, err := a.ReadDir(adir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range an {
		if _, ok := parseSegName(name); !ok {
			continue
		}
		ab, err := faultfs.ReadFile(a, adir+"/"+name)
		if err != nil {
			t.Fatal(err)
		}
		bb, err := faultfs.ReadFile(b, bdir+"/"+name)
		if err != nil {
			t.Fatalf("follower missing %s: %v", name, err)
		}
		if !bytes.Equal(ab, bb) {
			t.Fatalf("segment %s differs: leader %d bytes, follower %d", name, len(ab), len(bb))
		}
	}
}

// The TestAppendRaw* tests are the suite of the deleted mirror log type
// (TestMirror*) ported one for one to the follower's append on the one
// log type. Two of its tests have no port because what they checked is
// removed with the type: deleting segments below a bootstrap anchor on
// open (TestMirrorOpenDropsPreBootstrapSegments) and the never-called
// Reset/TruncateTo (TestMirrorResetAndTruncate). The intent that
// survives — a re-bootstrap never replays a stale segment — is now the
// store's, which wipes every segment before it installs a snapshot:
// online.TestFollowerRebootstrapAfterDivergenceAhead.

func TestAppendRawByteIdenticalAcrossRotations(t *testing.T) {
	lm, fm := faultfs.NewMem(), faultfs.NewMem()
	w, _ := mustOpen(t, lm, Options{SegmentBytes: 128})
	defer w.Close()
	appendN(t, w, 0, 30)
	// The follower's own rotation threshold is irrelevant: it cuts
	// segments only where the leader did.
	fol := followFrom(t, w, fm, 64)
	if fol.Pos() != w.Pos() {
		t.Fatalf("follower at %v, leader at %v", fol.Pos(), w.Pos())
	}
	segmentsEqual(t, lm, dir, fm, dir)
	// More appends, catch up again: same invariant.
	appendN(t, w, 30, 10)
	catchUp(t, w, fol, 512)
	segmentsEqual(t, lm, dir, fm, dir)
	fol.Close()
}

func TestAppendRawCrashRecoveryTruncatesTornTail(t *testing.T) {
	lm, fm := faultfs.NewMem(), faultfs.NewMem()
	w, _ := mustOpen(t, lm, Options{SegmentBytes: 1 << 20})
	defer w.Close()
	appendN(t, w, 0, 10)
	fol := followFrom(t, w, fm, 1<<20)
	durable := fol.Pos()

	// The follower crashes with un-fsynced junk on the end of its
	// segment (a torn write).
	fm.Crash()
	fm.Restart(func(name string, unsynced int) int { return unsynced / 2 })
	f, err := fm.OpenFile(dir+"/"+segName(durable.Seg), 0x2|0x400 /* O_RDWR|O_APPEND */, 0o644)
	if err == nil {
		f.Write([]byte{0x13, 0x37, 0x00})
		f.Close()
	}

	var recs []Record
	fol2, err := Open(dir, Options{FS: fm}, collect(&recs))
	if err != nil {
		t.Fatalf("reopen follower log: %v", err)
	}
	if fol2.Pos() != durable {
		t.Fatalf("recovered to %v, want the durable %v", fol2.Pos(), durable)
	}
	wantRecords(t, recs, 10)
	// And it keeps tailing from there.
	appendN(t, w, 10, 5)
	catchUp(t, w, fol2, 1<<20)
	segmentsEqual(t, lm, dir, fm, dir)
	fol2.Close()
}

func TestAppendRawRejectsMisalignedAppend(t *testing.T) {
	fm := faultfs.NewMem()
	fol, err := OpenAt(dir, Options{FS: fm}, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()
	end := fol.Pos()
	if end != (Position{4, int64(MagicLen)}) {
		t.Fatalf("empty log opened at %v, want segment 4 past its magic", end)
	}
	frame := appendFrame(nil, 1, []byte("x"))
	for name, at := range map[string]Position{
		"gap": {4, end.Off + 99}, "rewind": {4, 2}, "mid-segment jump": {5, 3}, "earlier segment": {3, 0},
	} {
		if err := fol.AppendRaw(at, frame); err == nil {
			t.Fatalf("%s append at %v accepted", name, at)
		}
	}
	// A later segment must open with the magic: the cut writes it locally.
	if err := fol.AppendRaw(Position{6, 0}, frame); err == nil {
		t.Fatal("segment start without the magic accepted")
	}
	// A refused append leaves the log healthy and where it was.
	if fol.Err() != nil || fol.Pos() != end {
		t.Fatalf("refused appends moved the log to %v (err %v)", fol.Pos(), fol.Err())
	}
	if err := fol.AppendRaw(end, frame); err != nil {
		t.Fatalf("aligned append: %v", err)
	}
	if err := fol.AppendRaw(Position{6, 0}, append([]byte(segMagic), frame...)); err != nil {
		t.Fatalf("append at a later segment start: %v", err)
	}
	if got, want := fol.Pos(), (Position{6, int64(MagicLen + len(frame))}); got != want {
		t.Fatalf("after the cut the log is at %v, want %v", got, want)
	}
	// Locally staged records would interleave with the leader's bytes.
	if _, err := fol.AppendBuffered(1, []byte("local")); err != nil {
		t.Fatal(err)
	}
	if err := fol.AppendRaw(fol.Pos(), frame); err == nil {
		t.Fatal("raw append accepted with a local record staged")
	}
}

func TestAppendRawPromotionContinuesTheLog(t *testing.T) {
	lm, fm := faultfs.NewMem(), faultfs.NewMem()
	w, _ := mustOpen(t, lm, Options{SegmentBytes: 256})
	appendN(t, w, 0, 12)
	fol, err := Open(dir, Options{FS: fm, SegmentBytes: 256}, nil)
	if err != nil {
		t.Fatal(err)
	}
	catchUp(t, w, fol, 1<<20)
	w.Close()

	// Promotion is nothing at this layer: the same WAL keeps appending,
	// now locally, in the same segment — and size-rotates again.
	at := fol.Pos()
	appendN(t, fol, 12, 8)
	if end := fol.Pos(); end.Seg == at.Seg {
		t.Fatalf("8 local records past %v never rotated a 256-byte log (at %v)", at, end)
	}
	fol.Close()

	// Recovery of the promoted log sees one seamless history.
	var recs []Record
	w2, err := Open(dir, Options{FS: fm, SegmentBytes: 256}, collect(&recs))
	if err != nil {
		t.Fatalf("reopen promoted: %v", err)
	}
	defer w2.Close()
	wantRecords(t, recs, 20)

	// Promoting a log that never received a byte appends in the segment
	// it was anchored at.
	w3, err := OpenAt(dir, Options{FS: faultfs.NewMem()}, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w3.Append(1, []byte(fmt.Sprintf("record-%04d", 0))); err != nil {
		t.Fatalf("append on promoted-empty: %v", err)
	}
	if w3.Pos().Seg != 9 {
		t.Fatalf("promoted-empty at segment %d, want 9", w3.Pos().Seg)
	}
	w3.Close()
}
