package segment

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"erfilter/internal/entity"
	"erfilter/internal/faultfs"
	"erfilter/internal/hit"
	"erfilter/internal/knn"
	"erfilter/internal/metrics"
	"erfilter/internal/sparse"
	"erfilter/internal/vector"
)

// Options configures a tier.
type Options struct {
	// FS is the file-system seam; nil means the real OS (which also
	// enables mmap-backed segment readers).
	FS faultfs.FS
	// Dir is the tier's dedicated directory; the tier owns every file
	// in it.
	Dir string
	// Kind selects sparse postings or dense vectors.
	Kind Kind
	// Dim is the vector width for dense tiers.
	Dim int
	// Measure scores sparse queries; it must equal the resolver's.
	Measure sparse.Measure
	// Metric scores dense queries; it must equal the resolver's.
	Metric knn.Metric
	// MergeFanin is how many segments a compaction folds together, and
	// (once exceeded) the live-segment count that triggers one.
	// Defaults to 8; minimum 2.
	MergeFanin int
	// Meta is opaque caller metadata pinned into the manifest on first
	// write (the resolver stores its serialized Config). When a
	// manifest already exists its recorded meta wins and is returned
	// by Meta().
	Meta []byte
	// SyncMerge runs compactions inline on the flushing goroutine
	// instead of in the background — deterministic for tests.
	SyncMerge bool
}

// Tier is the on-disk segment store: immutable sorted segment files, a
// CRC-sealed manifest naming the live set, a copy-on-write view readers
// resolve queries against without locks, and a background merge that
// folds small segments together while garbage-collecting tombstones.
type Tier struct {
	fs        faultfs.FS
	dir       string
	kind      Kind
	dim       int
	measure   sparse.Measure
	metric    knn.Metric
	fanin     int
	syncMerge bool

	// mu serializes every mutation: flush, tombstone, merge commit,
	// and the manifest writes each of them publishes. Readers never
	// take it — they load the view pointer.
	mu        sync.Mutex
	gen       uint64
	seq       uint64
	watermark int64
	meta      []byte
	closed    bool

	view    atomic.Pointer[View]
	merging atomic.Bool
	wg      sync.WaitGroup

	flushes    atomic.Uint64
	merges     atomic.Uint64
	mergeFails atomic.Uint64
	scanned    atomic.Uint64
	flushNS    metrics.Histogram
	mergeNS    metrics.Histogram
}

// View is one immutable generation of the tier visible to readers:
// the live segments and, beside each, the bitmap of its tombstoned
// slots. Views are published with atomic pointer swaps and remain valid
// after later flushes, deletes, and merges: a bitmap is never written
// once published, a delete copies the one it changes.
type View struct {
	t      *Tier
	segs   []*Reader
	dead   []tombs // dead[i] masks segs[i]'s deleted slots
	ntombs int     // set bits across dead
	live   int
}

// tombs is one segment's tombstones: bit slot is set when the entity
// stored at slot is deleted. A segment with none has a nil bitmap.
type tombs []uint64

// has reports whether slot is tombstoned.
func (b tombs) has(slot int) bool {
	return b != nil && b[slot/64]&(1<<(slot%64)) != 0
}

// set sets slot, first allocating b for a segment of count slots when it
// is nil, and returns b. Only a bitmap no published view holds is set.
func (b tombs) set(slot, count int) tombs {
	if b == nil {
		b = make(tombs, (count+63)/64)
	}
	b[slot/64] |= 1 << (slot % 64)
	return b
}

// each calls fn for every tombstoned slot, ascending.
func (b tombs) each(fn func(slot int)) {
	for w, word := range b {
		for ; word != 0; word &= word - 1 {
			fn(64*w + bits.TrailingZeros64(word))
		}
	}
}

// Open loads (or initializes) the tier rooted at opts.Dir: it reads
// and validates the manifest, deletes leftover temp files and orphan
// segments from interrupted flushes or merges, loads every live
// segment with full validation against its manifest entry, and
// cross-checks the global invariants — ids unique across segments,
// every tombstone naming a stored entity.
func Open(opts Options) (*Tier, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = faultfs.OS{}
	}
	fanin := opts.MergeFanin
	if fanin < 2 {
		fanin = 8
	}
	t := &Tier{
		fs:        fsys,
		dir:       opts.Dir,
		kind:      opts.Kind,
		dim:       opts.Dim,
		measure:   opts.Measure,
		metric:    opts.Metric,
		fanin:     fanin,
		syncMerge: opts.SyncMerge,
		meta:      opts.Meta,
	}
	if err := fsys.MkdirAll(opts.Dir); err != nil {
		return nil, err
	}
	names, err := fsys.ReadDir(opts.Dir)
	if err != nil {
		return nil, err
	}
	man := manifest{Meta: opts.Meta}
	haveMan := false
	for _, n := range names {
		if n == manifestName {
			haveMan = true
		}
	}
	if haveMan {
		data, err := faultfs.ReadFile(fsys, filepath.Join(opts.Dir, manifestName))
		if err != nil {
			return nil, err
		}
		if man, err = loadManifest(data); err != nil {
			return nil, err
		}
		t.meta = man.Meta
	}
	t.gen = man.Gen
	t.watermark = man.Watermark

	// Sweep temp files and orphan segments — the debris of a crash
	// between a segment rename and its manifest commit. Only files
	// matching our own naming patterns are touched.
	listed := make(map[string]bool, len(man.Segs))
	for _, e := range man.Segs {
		listed[e.Name] = true
	}
	for _, n := range names {
		if n == manifestName || listed[n] {
			continue
		}
		if strings.HasSuffix(n, ".tmp") || isSegName(n) {
			_ = fsys.Remove(filepath.Join(opts.Dir, n))
		}
	}

	segs := make([]*Reader, len(man.Segs))
	for i, e := range man.Segs {
		if e.Kind != t.kind {
			return nil, fmt.Errorf("segment: %s is kind %d, tier expects %d", e.Name, e.Kind, t.kind)
		}
		g, err := t.loadSegment(e.Name)
		if err != nil {
			return nil, err
		}
		if g.count != e.Count || g.minID != e.MinID || g.maxID != e.MaxID || g.Bytes() != e.Bytes || g.kind != e.Kind {
			g.Close()
			return nil, fmt.Errorf("segment: %s disagrees with its manifest entry", e.Name)
		}
		if t.kind == KindDense && g.dim != t.dim {
			g.Close()
			return nil, fmt.Errorf("segment: %s has dim %d, tier expects %d", e.Name, g.dim, t.dim)
		}
		if seq, ok := segSeq(e.Name); ok && seq >= t.seq {
			t.seq = seq + 1
		}
		segs[i] = g
	}
	if err := checkDisjoint(segs); err != nil {
		closeAll(segs)
		return nil, err
	}
	// The manifest names tombstones by id; the view keeps them as bits
	// by slot.
	dead := make([]tombs, len(segs))
	for _, id := range man.Tombs {
		i, slot := locate(segs, id)
		if i < 0 {
			closeAll(segs)
			return nil, fmt.Errorf("segment: tombstone %d names no stored entity", id)
		}
		dead[i] = dead[i].set(slot, segs[i].count)
	}
	t.publishLocked(segs, dead, len(man.Tombs))
	if !haveMan {
		// Seal the empty generation immediately: the manifest pins the
		// caller's meta (its configuration) from the moment the tier
		// exists, and marks the directory as a tier for mode checks,
		// not only after the first flush.
		if err := t.writeManifestLocked(segs, dead); err != nil {
			closeAll(segs)
			return nil, err
		}
	}
	return t, nil
}

// Exists reports whether dir already holds a tier manifest — the test
// callers use to fail-stop on a storage-mode mismatch before touching
// anything. A nil fsys means the real OS.
func Exists(fsys faultfs.FS, dir string) (bool, error) {
	if fsys == nil {
		fsys = faultfs.OS{}
	}
	return faultfs.Exists(fsys, filepath.Join(dir, manifestName))
}

// ReadMeta returns the opaque caller metadata pinned into an existing
// tier manifest, or nil when dir has no manifest yet. It lets a caller
// recover the configuration a tier was created under before building
// the Options a reopen must match. A nil fsys means the real OS.
func ReadMeta(fsys faultfs.FS, dir string) ([]byte, error) {
	if fsys == nil {
		fsys = faultfs.OS{}
	}
	data, err := faultfs.ReadFile(fsys, filepath.Join(dir, manifestName))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	man, err := loadManifest(data)
	if err != nil {
		return nil, err
	}
	return man.Meta, nil
}

// isSegName reports whether name matches the tier's segment pattern.
func isSegName(name string) bool {
	_, ok := segSeq(name)
	return ok
}

// segSeq parses the sequence number out of a seg-%016x.seg name.
func segSeq(name string) (uint64, bool) {
	const pre, suf = "seg-", ".seg"
	if len(name) != len(pre)+16+len(suf) || !strings.HasPrefix(name, pre) || !strings.HasSuffix(name, suf) {
		return 0, false
	}
	seq, err := strconv.ParseUint(name[len(pre):len(pre)+16], 16, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// checkDisjoint verifies no id is stored by two segments. Segment id
// ranges may interleave (sharded WAL replay assigns ids out of order
// across batches), so overlapping ranges probe the smaller segment's
// ids against the larger one.
func checkDisjoint(segs []*Reader) error {
	for i := 0; i < len(segs); i++ {
		for j := i + 1; j < len(segs); j++ {
			a, b := segs[i], segs[j]
			if a.minID > b.maxID || b.minID > a.maxID {
				continue
			}
			if b.count < a.count {
				a, b = b, a
			}
			for slot := 0; slot < a.count; slot++ {
				if id := a.id(slot); id >= b.minID && id <= b.maxID && b.has(id) {
					return fmt.Errorf("segment: id %d stored by both %s and %s", id, a.name, b.name)
				}
			}
		}
	}
	return nil
}

// locate returns the segment storing id and its slot there, or -1, -1.
func locate(segs []*Reader, id int64) (int, int) {
	for i, g := range segs {
		if slot := g.slotOf(id); slot >= 0 {
			return i, slot
		}
	}
	return -1, -1
}

func closeAll(segs []*Reader) {
	for _, g := range segs {
		if g != nil {
			g.Close()
		}
	}
}

// loadSegment opens, maps, and fully validates one segment file.
// Real files are mmap'd; fault-injected in-memory files are slurped
// into a resident copy (which also makes them immune to the unlink
// that follows a merge). A mapping is released by its reader's
// finalizer, once no view — no snapshot a query holds — reaches it.
func (t *Tier) loadSegment(name string) (*Reader, error) {
	f, err := faultfs.Open(t.fs, filepath.Join(t.dir, name))
	if err != nil {
		return nil, err
	}
	var data []byte
	var unmap func() error
	if osf, ok := f.(*os.File); ok {
		data, unmap, err = mmapFile(osf)
	} else {
		data, err = io.ReadAll(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return nil, fmt.Errorf("segment: reading %s: %w", name, err)
	}
	g, err := Load(data, name, unmap)
	if err != nil {
		if unmap != nil {
			unmap()
		}
		return nil, fmt.Errorf("segment: %s: %w", name, err)
	}
	if unmap != nil {
		runtime.SetFinalizer(g, (*Reader).Close)
	}
	return g, nil
}

// publishLocked swaps in a new view of segs, masked by dead (one
// bitmap per segment) holding ntombs set bits. Callers hold t.mu (or are
// inside Open, before the tier escapes).
func (t *Tier) publishLocked(segs []*Reader, dead []tombs, ntombs int) {
	live := 0
	for _, g := range segs {
		live += g.count
	}
	t.view.Store(&View{t: t, segs: segs, dead: dead, ntombs: ntombs, live: live - ntombs})
}

// writeManifestLocked persists the next manifest generation atomically
// and bumps the in-memory generation on success. The manifest names
// tombstones by id, ascending.
func (t *Tier) writeManifestLocked(segs []*Reader, dead []tombs) error {
	m := manifest{Gen: t.gen + 1, Watermark: t.watermark, Meta: t.meta}
	m.Segs = make([]manEntry, len(segs))
	for i, g := range segs {
		m.Segs[i] = manEntry{Name: g.name, Kind: g.kind, Count: g.count, MinID: g.minID, MaxID: g.maxID, Bytes: g.Bytes()}
		dead[i].each(func(slot int) { m.Tombs = append(m.Tombs, g.id(slot)) })
	}
	slices.Sort(m.Tombs)
	err := faultfs.WriteFileAtomic(t.fs, t.dir, manifestTemp, manifestName, func(w io.Writer) error {
		return writeManifest(w, m)
	})
	if err != nil {
		return err
	}
	t.gen = m.Gen
	return nil
}

// Flush seals the caller's drained memtable into a new immutable
// segment — the entries sorted by strictly ascending id and, for a
// sparse tier, their token sets inverted (see Inverted; the zero value
// for a dense tier) — commits a manifest generation that includes it
// plus the current tombstone set, and publishes the new view. No entries
// still commits a manifest: that is how tombstones and the id watermark
// reach disk before a WAL trim. The watermark ratchets the tier's
// persisted next-id floor so reopened stores never reassign an id that
// was ever handed out, even after a merge garbage-collects it.
func (t *Tier) Flush(entries []Entry, inv Inverted, watermark int64) error {
	begin := time.Now()
	t.mu.Lock()
	err := t.flushLocked(entries, inv, watermark)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	t.flushes.Add(1)
	t.flushNS.ObserveDuration(time.Since(begin))
	t.maybeMerge()
	return nil
}

// flushLocked writes the segment Flush seals, loads it back — Load
// validates every byte, so input the writer passed but the format does
// not hold fails here — and commits. Callers hold t.mu.
func (t *Tier) flushLocked(entries []Entry, inv Inverted, watermark int64) error {
	if t.closed {
		return fmt.Errorf("segment: tier is closed")
	}
	if watermark > t.watermark {
		t.watermark = watermark
	}
	cur := t.view.Load()
	segs, dead := cur.segs, cur.dead
	if len(entries) > 0 {
		for _, e := range entries {
			if i, _ := locate(cur.segs, e.ID); i >= 0 {
				return fmt.Errorf("segment: flush entry %d already stored", e.ID)
			}
		}
		name := fmt.Sprintf("seg-%016x.seg", t.seq)
		t.seq++
		err := faultfs.WriteFileAtomic(t.fs, t.dir, name+".tmp", name, func(w io.Writer) error {
			return writeSegment(w, t.kind, t.dim, entries, inv)
		})
		if err != nil {
			return err
		}
		g, err := t.loadSegment(name)
		if err != nil {
			_ = t.fs.Remove(filepath.Join(t.dir, name))
			return err
		}
		segs = append(append(make([]*Reader, 0, len(cur.segs)+1), cur.segs...), g)
		dead = append(append(make([]tombs, 0, len(cur.dead)+1), cur.dead...), nil)
	}
	if err := t.writeManifestLocked(segs, dead); err != nil {
		if len(segs) > len(cur.segs) {
			g := segs[len(segs)-1]
			g.Close()
			_ = t.fs.Remove(filepath.Join(t.dir, g.name))
		}
		return err
	}
	t.publishLocked(segs, dead, cur.ntombs)
	return nil
}

// Delete tombstones a stored id, returning false when the tier does
// not hold it (or it is already tombstoned). The tombstone is visible
// to readers immediately via a copy-on-write view swap that copies the
// bitmap of the one segment storing id; it reaches the manifest at the
// next flush or merge, which is always before the WAL records that
// justify it can be trimmed.
func (t *Tier) Delete(id int64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return false
	}
	cur := t.view.Load()
	i, slot := locate(cur.segs, id)
	if i < 0 || cur.dead[i].has(slot) {
		return false
	}
	dead := slices.Clone(cur.dead)
	dead[i] = slices.Clone(dead[i]).set(slot, cur.segs[i].count)
	t.publishLocked(cur.segs, dead, cur.ntombs+1)
	return true
}

// Has reports whether the tier stores id and it is not tombstoned.
func (t *Tier) Has(id int64) bool { return t.View().Has(id) }

// View returns the current immutable read view.
func (t *Tier) View() *View { return t.view.Load() }

// Watermark returns the persisted next-id floor: callers must not
// assign ids below it.
func (t *Tier) Watermark() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.watermark
}

// Meta returns the manifest's pinned metadata — the Options.Meta of
// the tier's very first manifest write, surviving every generation.
func (t *Tier) Meta() []byte { return t.meta }

// maybeMerge starts (or, for SyncMerge tiers, runs) compaction if the
// live segment count exceeds the fan-in. Merging never holds the tier
// lock while reading or writing segment data — only the brief manifest
// commit and view swap serialize with writers.
func (t *Tier) maybeMerge() {
	if !t.merging.CompareAndSwap(false, true) {
		return
	}
	if t.syncMerge {
		for t.mergeStep() {
		}
		t.merging.Store(false)
		return
	}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		for t.mergeStep() {
		}
		t.merging.Store(false)
	}()
}

// mergeStep folds the MergeFanin smallest segments into one, dropping
// entities tombstoned at merge start, then commits the swap: a new
// manifest generation without the inputs, a view without them, and the
// input files unlinked. Readers holding older views keep working — a
// merged-away reader is unmapped once no view reaches it.
// Returns true when it merged (more work may remain), false when the
// tier is below the threshold or an error occurred.
func (t *Tier) mergeStep() bool {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return false
	}
	cur := t.view.Load()
	if len(cur.segs) <= t.fanin {
		t.mu.Unlock()
		return false
	}
	// Pick the fan-in smallest segments — classic size-tiered policy,
	// bounding write amplification by always folding cheap inputs.
	order := make([]int, len(cur.segs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		x, y := cur.segs[order[a]], cur.segs[order[b]]
		if x.count != y.count {
			return x.count < y.count
		}
		return x.name < y.name
	})
	// picked maps each input to its tombstones at merge start: those
	// entities are dropped, and a tombstone that lands on an input
	// later is carried to the output at commit.
	picked := make(map[*Reader]tombs, t.fanin)
	inputs := make([]*Reader, 0, t.fanin)
	gone := make([]tombs, 0, t.fanin) // gone[i] is inputs[i]'s at merge start
	for _, i := range order[:t.fanin] {
		picked[cur.segs[i]] = cur.dead[i]
		inputs = append(inputs, cur.segs[i])
		gone = append(gone, cur.dead[i])
	}
	name := fmt.Sprintf("seg-%016x.seg", t.seq)
	t.seq++
	t.mu.Unlock()

	begin := time.Now()
	ents, inv := mergeInputs(t.kind, inputs, gone)

	var out *Reader
	if len(ents) > 0 {
		err := faultfs.WriteFileAtomic(t.fs, t.dir, name+".tmp", name, func(w io.Writer) error {
			return writeSegment(w, t.kind, t.dim, ents, inv)
		})
		if err == nil {
			out, err = t.loadSegment(name)
		}
		if err != nil {
			_ = t.fs.Remove(filepath.Join(t.dir, name))
			t.mergeFails.Add(1)
			return false
		}
	}

	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		if out != nil {
			out.Close()
		}
		return false
	}
	// Reload the view: flushes and deletes may have landed since merge
	// start. The inputs themselves cannot have changed — only merges
	// remove segments, and the merging flag makes this the only one.
	cur = t.view.Load()
	segs := make([]*Reader, 0, len(cur.segs))
	dead := make([]tombs, 0, len(cur.segs))
	var carried tombs // deletes that landed on an input since merge start
	ntombs := cur.ntombs
	for i, g := range cur.segs {
		start, ok := picked[g]
		if !ok {
			segs, dead = append(segs, g), append(dead, cur.dead[i])
			continue
		}
		cur.dead[i].each(func(slot int) {
			ntombs--
			if !start.has(slot) {
				// The entity was live at merge start, so out stores it.
				carried = carried.set(out.slotOf(g.id(slot)), out.count)
				ntombs++
			}
		})
	}
	if out != nil {
		segs, dead = append(segs, out), append(dead, carried)
	}
	if err := t.writeManifestLocked(segs, dead); err != nil {
		t.mu.Unlock()
		if out != nil {
			out.Close()
			_ = t.fs.Remove(filepath.Join(t.dir, name))
		}
		t.mergeFails.Add(1)
		return false
	}
	t.publishLocked(segs, dead, ntombs)
	t.mu.Unlock()

	// Unlink the merged-away files. Open mmaps keep working on POSIX;
	// a crash before any unlink just leaves orphans for the next Open.
	for _, g := range inputs {
		_ = t.fs.Remove(filepath.Join(t.dir, g.name))
	}
	t.merges.Add(1)
	t.mergeNS.ObserveDuration(time.Since(begin))
	runtime.KeepAlive(inputs)
	return true
}

// mergeInputs is a merge's writer input: the slots of the inputs that
// dead (one bitmap per input) leaves live, as one segment. Each input
// holds its ids ascending, but their ranges may interleave — a merge's
// output spans the ids of inputs that were not adjacent — so the output
// slots are a k-way merge of the inputs' ids. The token table is the
// k-way merge of the inputs' sorted tables, each token's postings its
// inputs' lists mapped to output slots and merged; a token left with no
// live posting is dropped. Token bytes stay in place in the inputs'
// mappings, which the caller keeps reachable through the write.
func mergeInputs(kind Kind, inputs []*Reader, dead []tombs) ([]Entry, Inverted) {
	var ents []Entry
	var inv Inverted
	// at[i][slot] is the output slot of input i's slot, -1 when dead.
	at := make([][]int32, len(inputs))
	next := make([]int, len(inputs)) // each input's next live slot
	skip := func(i int) {
		for next[i] < inputs[i].count && dead[i].has(next[i]) {
			at[i][next[i]] = -1
			next[i]++
		}
	}
	for i, g := range inputs {
		at[i] = make([]int32, g.count)
		skip(i)
	}
	for {
		best := -1
		for i, g := range inputs {
			if next[i] < g.count && (best < 0 || g.id(next[i]) < inputs[best].id(next[best])) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		g, slot := inputs[best], next[best]
		at[best][slot] = int32(len(ents))
		e := Entry{ID: g.id(slot), Attrs: g.attrs(slot)}
		if kind == KindDense {
			e.Vec = make(vector.Vec, g.dim)
			g.vec(slot, e.Vec)
		} else {
			inv.Sizes = append(inv.Sizes, uint32(g.size(slot)))
		}
		ents = append(ents, e)
		next[best]++
		skip(best)
	}
	if kind == KindDense || len(ents) == 0 {
		return ents, inv
	}

	// The token tables, merged: tok[i] is input i's next token. posts
	// holds every live posting, so its subslices stay put.
	total := 0
	for _, n := range inv.Sizes {
		total += int(n)
	}
	posts := make([]uint32, 0, total)
	tok := make([]int, len(inputs))
	for {
		best := -1
		for i, g := range inputs {
			if tok[i] < len(g.tokOff) && (best < 0 || bytes.Compare(g.tok(tok[i]), inputs[best].tok(tok[best])) < 0) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		word, lo := inputs[best].tok(tok[best]), len(posts)
		for i, g := range inputs {
			if tok[i] == len(g.tokOff) || !bytes.Equal(g.tok(tok[i]), word) {
				continue
			}
			plo, phi := g.postings(tok[i])
			tok[i]++
			for off := plo; off < phi; off += 4 {
				if to := at[i][binary.LittleEndian.Uint32(g.data[off:])]; to >= 0 {
					posts = append(posts, uint32(to))
				}
			}
		}
		if len(posts) == lo {
			continue // every slot holding it is dead
		}
		// Each input's list maps to ascending output slots; the lists of
		// several interleave.
		slices.Sort(posts[lo:])
		inv.Toks = append(inv.Toks, word)
		inv.Posts = append(inv.Posts, posts[lo:len(posts):len(posts)])
	}
	return ents, inv
}

// Close ends the tier's write life: no flush, delete or merge commits
// from here on, and any background merge is waited out. It unmaps
// nothing: each segment stays mapped while a view reaches it, so views
// already handed out — and queries running on them — stay readable.
// Idempotent; the error is always nil.
func (t *Tier) Close() error {
	t.mu.Lock()
	t.closed = true
	t.mu.Unlock()
	t.wg.Wait()
	return nil
}

// Drop closes the tier and deletes every file it owns, manifest first —
// without one the directory is no tier at all, so whatever a crash
// leaves behind is swept as orphans by the next Open. Views already
// handed out stay readable; their mappings go with the last of them.
func (t *Tier) Drop() error {
	t.Close()
	names, err := t.fs.ReadDir(t.dir)
	if err != nil {
		return err
	}
	for _, name := range append([]string{manifestName}, names...) {
		if err := t.fs.Remove(filepath.Join(t.dir, name)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
	}
	return t.fs.SyncDir(t.dir)
}

// RegisterMetrics exposes the tier's instrumentation: segment-count,
// disk-byte and tombstone gauges, flush/merge counters and duration
// histograms, and the per-query segments-scanned counter.
func (t *Tier) RegisterMetrics(reg *metrics.Registry, labels metrics.Labels) {
	reg.GaugeFunc("segment_live_segments",
		"Live on-disk segments in the current tier view.", labels,
		func() float64 { return float64(t.View().Segments()) })
	reg.GaugeFunc("segment_disk_bytes",
		"Total bytes of the live segment files.", labels,
		func() float64 { return float64(t.View().DiskBytes()) })
	reg.GaugeFunc("segment_tombstones",
		"Deleted entities awaiting merge garbage collection.", labels,
		func() float64 { return float64(t.View().Tombstones()) })
	reg.CounterFunc("segment_flushes_total",
		"Memtable flushes sealed into segments.", labels,
		func() float64 { return float64(t.flushes.Load()) })
	reg.CounterFunc("segment_merges_total",
		"Completed merge compactions.", labels,
		func() float64 { return float64(t.merges.Load()) })
	reg.CounterFunc("segment_merge_failures_total",
		"Merge attempts abandoned on error.", labels,
		func() float64 { return float64(t.mergeFails.Load()) })
	reg.CounterFunc("segment_query_segments_scanned_total",
		"Segments scanned across all tier queries.", labels,
		func() float64 { return float64(t.scanned.Load()) })
	reg.RegisterHistogram("segment_flush_duration_seconds",
		"Memtable flush cost: segment write, manifest commit, view swap.", labels, 1e-9, &t.flushNS)
	reg.RegisterHistogram("segment_merge_duration_seconds",
		"Merge compaction cost: read inputs, write output, commit.", labels, 1e-9, &t.mergeNS)
}

// --- View (reader) methods ---

// Segments returns the live segment count.
func (v *View) Segments() int { return len(v.segs) }

// Live returns the number of stored, non-tombstoned entities.
func (v *View) Live() int { return v.live }

// Tombstones returns the tombstone count awaiting merge GC.
func (v *View) Tombstones() int { return v.ntombs }

// DiskBytes returns the total byte size of the live segment files.
func (v *View) DiskBytes() int64 {
	var n int64
	for _, g := range v.segs {
		n += g.Bytes()
	}
	return n
}

// Has reports whether id is stored and live.
func (v *View) Has(id int64) bool {
	defer runtime.KeepAlive(v) // the search reads the mappings v reaches
	i, slot := locate(v.segs, id)
	return i >= 0 && !v.dead[i].has(slot)
}

// Get returns the stored attributes of a live id.
func (v *View) Get(id int64) ([]entity.Attribute, bool) {
	defer runtime.KeepAlive(v) // the decode reads the mappings v reaches
	i, slot := locate(v.segs, id)
	if i < 0 || v.dead[i].has(slot) {
		return nil, false
	}
	return v.segs[i].attrs(slot), true
}

// EachLive calls fn for every live entity, in no particular order.
func (v *View) EachLive(fn func(id int64, attrs []entity.Attribute)) {
	for i, g := range v.segs {
		for slot := 0; slot < g.count; slot++ {
			if !v.dead[i].has(slot) {
				fn(g.id(slot), g.attrs(slot))
			}
		}
	}
	runtime.KeepAlive(v)
}

// scatter runs one probe against every live segment, with its
// tombstones, and appends one part per segment to dst. The view does
// not fold them: segments are parts of a shard like its memtable is,
// and the shard gathers them all in one hit.Gather. The probes read the
// mappings v reaches; the hits they return hold nothing of them.
func (v *View) scatter(dst [][]hit.Hit, probe func(g *Reader, dead tombs) []hit.Hit) [][]hit.Hit {
	v.t.scanned.Add(uint64(len(v.segs)))
	for i, g := range v.segs {
		dst = append(dst, probe(g, v.dead[i]))
	}
	runtime.KeepAlive(v)
	return dst
}

// SparseRange scatters an EpsJoin query: per segment, the live sets at or
// above eps. The segments take turns with the caller's scratch.
func (v *View) SparseRange(dst [][]hit.Hit, query []string, eps float64, sc *sparse.Scratch) [][]hit.Hit {
	return v.scatter(dst, func(g *Reader, dead tombs) []hit.Hit { return g.rangeQuery(query, v.t.measure, eps, dead, sc) })
}

// SparseKNN scatters a KNNJoin query: per segment, the live sets within
// its k highest distinct similarity values. The segments take turns with
// the caller's scratch.
func (v *View) SparseKNN(dst [][]hit.Hit, query []string, k int, sc *sparse.Scratch) [][]hit.Hit {
	return v.scatter(dst, func(g *Reader, dead tombs) []hit.Hit { return g.knnQuery(query, v.t.measure, k, dead, sc) })
}

// DenseSearch scatters a FlatKNN query: per segment, its k best live
// vectors.
func (v *View) DenseSearch(dst [][]hit.Hit, q vector.Vec, k int) [][]hit.Hit {
	return v.scatter(dst, func(g *Reader, dead tombs) []hit.Hit { return g.denseSearch(q, k, v.t.metric, dead) })
}
