// Package faultfs is the file-system seam of the durability stack: a
// minimal FS interface that the write-ahead log and the snapshot
// checkpointer write through, with two implementations — OS, a thin
// passthrough to the os package used in production, and Mem, an
// in-memory file system with scripted fault injection (short writes,
// fsync errors, crashes that discard un-synced bytes) used by the
// crash-recovery property tests. Threading every durable write through
// this interface is what makes "kill the process at byte N" a unit test
// instead of a hope.
package faultfs

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
)

// File is the subset of *os.File the durability code needs. Writes are
// sequential appends; Truncate is used by WAL recovery to cut a torn
// tail.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	Sync() error
	Truncate(size int64) error
	Name() string
}

// FS abstracts the handful of file-system operations behind the WAL and
// the snapshot checkpointer. Implementations must make Rename atomic:
// after a crash the destination holds either the old or the new file,
// never a mixture. Durability of file *contents* still requires Sync
// before the rename, which Mem enforces by discarding un-synced bytes at
// Crash.
type FS interface {
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	// ReadDir returns the sorted base names of the plain files directly
	// under dir.
	ReadDir(dir string) ([]string, error)
	MkdirAll(dir string) error
	// SyncDir flushes the directory entry metadata (file creations,
	// renames, removals) of dir to stable storage.
	SyncDir(dir string) error
}

// Create opens name for writing, truncating any previous content.
func Create(fsys FS, name string) (File, error) {
	return fsys.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
}

// Open opens name read-only.
func Open(fsys FS, name string) (File, error) {
	return fsys.OpenFile(name, os.O_RDONLY, 0)
}

// Exists probes name through the FS seam by opening it.
func Exists(fsys FS, name string) (bool, error) {
	f, err := Open(fsys, name)
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return true, f.Close()
}

// ReadFile reads the whole of name through the FS seam. A missing file
// comes back as the fs.ErrNotExist-wrapping error OpenFile gave, so
// callers can tell "absent" from "unreadable".
func ReadFile(fsys FS, name string) ([]byte, error) {
	f, err := Open(fsys, name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

// WriteFileAtomic streams write into dir/temp, fsyncs, atomically
// renames it to dir/final and fsyncs the directory entry — the
// checkpoint discipline shared by snapshots, segment files and the
// segment manifest. On any error the temp file is removed and the
// previous dir/final (if any) is untouched.
func WriteFileAtomic(fsys FS, dir, temp, final string, write func(io.Writer) error) error {
	tempPath := filepath.Join(dir, temp)
	f, err := Create(fsys, tempPath)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = fsys.Remove(tempPath)
		return err
	}
	if err := fsys.Rename(tempPath, filepath.Join(dir, final)); err != nil {
		_ = fsys.Remove(tempPath)
		return err
	}
	return fsys.SyncDir(dir)
}

// OS is the production FS: a direct passthrough to the os package.
type OS struct{}

// OpenFile opens a real file.
func (OS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

// Rename renames a real file (atomic on POSIX file systems).
func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove deletes a real file.
func (OS) Remove(name string) error { return os.Remove(name) }

// ReadDir lists the plain files directly under dir, sorted by name.
func (OS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// MkdirAll creates a real directory tree.
func (OS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

// SyncDir fsyncs the directory so entry mutations (create, rename,
// remove) survive a power cut.
func (OS) SyncDir(dir string) error {
	d, err := os.Open(filepath.Clean(dir))
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
