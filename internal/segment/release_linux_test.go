package segment

import (
	"bufio"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// deletedMappings lists the segment files under dir that the process
// still maps after they were unlinked, by name, sorted.
func deletedMappings(t *testing.T, dir string) []string {
	f, err := os.Open("/proc/self/maps")
	if err != nil {
		t.Fatalf("reading the process's mappings: %v", err)
	}
	defer f.Close()
	var names []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line, ok := strings.CutSuffix(sc.Text(), " (deleted)")
		if ok && strings.Contains(line, dir+string(filepath.Separator)) {
			names = append(names, filepath.Base(line))
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading the process's mappings: %v", err)
	}
	slices.Sort(names)
	return names
}

// settle runs the collector, and with it the readers' finalizers, until
// the deleted mappings under dir are want, or fails after a bound.
func settle(t *testing.T, dir string, want []string) {
	t.Helper()
	var got []string
	for try := 0; try < 100; try++ {
		runtime.GC()
		if got = deletedMappings(t, dir); slices.Equal(got, want) {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("mapped deleted segments = %v, want %v", got, want)
}

// TestTierUnmapsSegmentsNoViewReaches merges a real-file tier through
// many generations while one old view is held: the segments that view
// reads stay mapped after their files are unlinked, and nothing else
// does. Once the view is dropped, no deleted segment stays mapped.
func TestTierUnmapsSegmentsNoViewReaches(t *testing.T) {
	if _, err := os.Stat("/proc/self/maps"); errors.Is(err, fs.ErrNotExist) {
		t.Skip("no /proc/self/maps")
	}
	dir := t.TempDir()
	tr, err := Open(sparseOpts(nil, dir)) // nil FS selects the OS and mmap
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer tr.Close()
	var old *View
	for i := int64(0); i < 30; i++ {
		if err := flushEntries(tr, sparseEntries(2*i, 2*i+1), 2*i+2); err != nil {
			t.Fatalf("flush %d: %v", i, err)
		}
		if i == 1 {
			old = tr.View()
		}
	}
	if tr.merges.Load() == 0 {
		t.Fatal("no merge ran")
	}
	var held []string
	for _, g := range old.segs {
		if _, err := os.Stat(filepath.Join(dir, g.Name())); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("%s of the held view was not merged away: %v", g.Name(), err)
		}
		held = append(held, g.Name())
	}
	slices.Sort(held)
	settle(t, dir, held)
	if old.Live() != 4 || !old.Has(3) {
		t.Fatalf("held view: live %d, has 3 %v; want 4, true", old.Live(), old.Has(3))
	}
	old = nil
	settle(t, dir, nil)
}
