package faultfs

import (
	"errors"
	"io"
	"io/fs"
	"path/filepath"
	"testing"
)

func writeString(t *testing.T, f File, s string) {
	t.Helper()
	if _, err := f.Write([]byte(s)); err != nil {
		t.Fatalf("write: %v", err)
	}
}

func readAll(t *testing.T, fsys FS, name string) string {
	t.Helper()
	f, err := Open(fsys, name)
	if err != nil {
		t.Fatalf("open %s: %v", name, err)
	}
	defer f.Close()
	b, err := io.ReadAll(f)
	if err != nil {
		t.Fatalf("read %s: %v", name, err)
	}
	return string(b)
}

// TestMemBasics covers the plain-file contract shared with OS: create,
// append, read, rename, remove, readdir.
func TestMemBasics(t *testing.T) {
	m := NewMem()
	if err := m.MkdirAll("d"); err != nil {
		t.Fatal(err)
	}
	f, err := Create(m, "d/a.txt")
	if err != nil {
		t.Fatal(err)
	}
	writeString(t, f, "hello ")
	writeString(t, f, "world")
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, m, "d/a.txt"); got != "hello world" {
		t.Fatalf("content %q", got)
	}
	if _, err := Open(m, "d/missing"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing file: %v", err)
	}
	if err := m.Rename("d/a.txt", "d/b.txt"); err != nil {
		t.Fatal(err)
	}
	names, err := m.ReadDir("d")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "b.txt" {
		t.Fatalf("readdir: %v", names)
	}
	if err := m.Remove("d/b.txt"); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(m, "d/b.txt"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("after remove: %v", err)
	}
}

// TestMemCrashDropsUnsynced is the core power-failure model: synced
// bytes survive a crash, un-synced bytes survive only as the prefix the
// Restart policy keeps.
func TestMemCrashDropsUnsynced(t *testing.T) {
	m := NewMem()
	f, _ := Create(m, "log")
	writeString(t, f, "durable")
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	writeString(t, f, "-volatile")

	m.Crash()
	if _, err := f.Write([]byte("x")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write after crash: %v", err)
	}
	if _, err := Open(m, "log"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("open after crash: %v", err)
	}

	m.Restart(func(name string, unsynced int) int { return 4 })
	if got := readAll(t, m, "log"); got != "durable-vol" {
		t.Fatalf("after torn restart: %q", got)
	}
	m.Crash()
	m.Restart(nil)
	if got := readAll(t, m, "log"); got != "durable-vol" {
		t.Fatalf("restart re-synced the survivor: %q", got)
	}
}

// TestMemWriteBudget proves the budget-crossing write lands partially
// (a torn write) and kills the file system.
func TestMemWriteBudget(t *testing.T) {
	m := NewMem()
	f, _ := Create(m, "log")
	m.LimitWrites(10)
	if _, err := f.Write([]byte("123456")); err != nil {
		t.Fatalf("within budget: %v", err)
	}
	n, err := f.Write([]byte("abcdef"))
	if !errors.Is(err, ErrCrashed) || n != 4 {
		t.Fatalf("crossing write: n=%d err=%v", n, err)
	}
	m.Restart(func(string, int) int { return 1 << 20 })
	if got := readAll(t, m, "log"); got != "123456abcd" {
		t.Fatalf("torn content: %q", got)
	}
}

// TestMemSyncFaults covers both disk-error models: a counted one-shot
// failure and a permanently failing flush.
func TestMemSyncFaults(t *testing.T) {
	m := NewMem()
	f, _ := Create(m, "log")
	writeString(t, f, "abc")
	m.FailSync(1)
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("armed sync: %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("next sync: %v", err)
	}
	m.FailAllSyncs(true)
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("fail-all sync: %v", err)
	}
	m.FailAllSyncs(false)
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}

	// A failed sync must not mark bytes durable.
	m2 := NewMem()
	g, _ := Create(m2, "log")
	writeString(t, g, "abc")
	m2.FailSync(1)
	_ = g.Sync()
	m2.Crash()
	m2.Restart(nil)
	if got := readAll(t, m2, "log"); got != "" {
		t.Fatalf("failed sync persisted bytes: %q", got)
	}
}

// TestMemRenameCarriesDurability pins the atomic-rename model: content
// synced before the rename survives under the new name, content that
// skipped the fsync does not.
func TestMemRenameCarriesDurability(t *testing.T) {
	m := NewMem()
	f, _ := Create(m, "snap.tmp")
	writeString(t, f, "synced")
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	writeString(t, f, "-not")
	f.Close()
	if err := m.Rename("snap.tmp", "snap"); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	m.Restart(nil)
	if got := readAll(t, m, "snap"); got != "synced" {
		t.Fatalf("after crash: %q", got)
	}
	if _, err := Open(m, "snap.tmp"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("old name survived rename: %v", err)
	}
}

func TestMemTruncate(t *testing.T) {
	m := NewMem()
	f, _ := Create(m, "log")
	writeString(t, f, "0123456789")
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(4); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(99); err == nil {
		t.Fatal("truncate beyond size must fail")
	}
	m.Crash()
	m.Restart(nil)
	if got := readAll(t, m, "log"); got != "0123" {
		t.Fatalf("truncate did not clamp synced length: %q", got)
	}
}

// TestOSRoundTrip smoke-tests the production passthrough against a real
// temp dir so both implementations stay behaviorally aligned.
func TestOSRoundTrip(t *testing.T) {
	var o OS
	dir := filepath.Join(t.TempDir(), "sub")
	if err := o.MkdirAll(dir); err != nil {
		t.Fatal(err)
	}
	name := filepath.Join(dir, "a.txt")
	f, err := Create(o, name)
	if err != nil {
		t.Fatal(err)
	}
	writeString(t, f, "hello")
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(4); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := o.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, o, name); got != "hell" {
		t.Fatalf("content %q", got)
	}
	if err := o.Rename(name, filepath.Join(dir, "b.txt")); err != nil {
		t.Fatal(err)
	}
	names, err := o.ReadDir(dir)
	if err != nil || len(names) != 1 || names[0] != "b.txt" {
		t.Fatalf("readdir: %v %v", names, err)
	}
	if err := o.Remove(filepath.Join(dir, "b.txt")); err != nil {
		t.Fatal(err)
	}
}

// TestReadFileAndExists: the two read-side helpers see what the seam
// holds — including a file still open for writing — and tell "absent"
// from "unreadable".
func TestReadFileAndExists(t *testing.T) {
	for name, fsys := range map[string]FS{"mem": NewMem(), "os": OS{}} {
		path := filepath.Join(t.TempDir(), "f")
		if ok, err := Exists(fsys, path); ok || err != nil {
			t.Fatalf("%s: absent file: exists=%v err=%v", name, ok, err)
		}
		if _, err := ReadFile(fsys, path); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("%s: reading an absent file: %v, want fs.ErrNotExist", name, err)
		}
		f, err := Create(fsys, path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte("held open")); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFile(fsys, path)
		if ok, eerr := Exists(fsys, path); err != nil || string(got) != "held open" || !ok || eerr != nil {
			t.Fatalf("%s: read %q (%v), exists=%v (%v)", name, got, err, ok, eerr)
		}
		f.Close()
	}
}
