package repl

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"

	"erfilter/internal/faultfs"
)

// Lease is the on-disk leader arbiter: one small file in a directory
// shared by the replica set (or by the operators driving failover),
// holding the current fencing term and the owner that took it. It is
// not a consensus protocol — Take is read-increment-write, and two
// concurrent takers can collide — it is the durable record of *orderly*
// failover: promotion bumps the term here first, the new term rides the
// WAL stream, and an ex-leader that re-reads the file (or replays a
// stream carrying a higher term) fences itself.
type Lease struct {
	fs   faultfs.FS
	dir  string
	name string
}

const leaseTempSuffix = ".tmp"

// NewLease addresses the lease file dir/name on fsys (nil selects the
// real OS). The file need not exist yet: an absent lease reads as term
// 0 with no owner.
func NewLease(fsys faultfs.FS, dir, name string) *Lease {
	if fsys == nil {
		fsys = faultfs.OS{}
	}
	return &Lease{fs: fsys, dir: dir, name: name}
}

// Read returns the current term and owner; an absent or unparsable
// file is term 0 with no owner (never held), not an error.
func (l *Lease) Read() (term uint64, owner string, err error) {
	data, err := faultfs.ReadFile(l.fs, filepath.Join(l.dir, l.name))
	if errors.Is(err, fs.ErrNotExist) {
		return 0, "", nil
	}
	if err != nil {
		return 0, "", fmt.Errorf("repl: reading lease: %w", err)
	}
	if _, serr := fmt.Sscanf(string(data), "ERLEASE 1\nterm %d\nowner %s\n", &term, &owner); serr != nil {
		return 0, "", nil
	}
	return term, owner, nil
}

// Take claims the lease for owner at the next term and returns it. The
// write is atomic (temp + fsync + rename), so a crash mid-take leaves
// the previous lease intact.
func (l *Lease) Take(owner string) (uint64, error) {
	if owner == "" {
		return 0, errors.New("repl: lease owner must not be empty")
	}
	if err := l.fs.MkdirAll(l.dir); err != nil {
		return 0, fmt.Errorf("repl: creating lease dir: %w", err)
	}
	term, _, err := l.Read()
	if err != nil {
		return 0, err
	}
	term++
	err = faultfs.WriteFileAtomic(l.fs, l.dir, l.name+leaseTempSuffix, l.name, func(w io.Writer) error {
		_, werr := fmt.Fprintf(w, "ERLEASE 1\nterm %d\nowner %s\n", term, owner)
		return werr
	})
	if err != nil {
		return 0, fmt.Errorf("repl: writing lease: %w", err)
	}
	return term, nil
}
