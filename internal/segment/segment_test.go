package segment

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"

	"erfilter/internal/entity"
	"erfilter/internal/faultfs"
	"erfilter/internal/hit"
	"erfilter/internal/knn"
	"erfilter/internal/sparse"
	"erfilter/internal/vector"
)

// sparseEntry builds a deterministic sparse entry: tokens derived from
// the id so every entity overlaps its neighbours a little.
func sparseEntry(id int64) Entry {
	toks := []string{
		fmt.Sprintf("tok%d", id),
		fmt.Sprintf("tok%d", id+1),
		fmt.Sprintf("grp%d", id%3),
	}
	return Entry{
		ID:     id,
		Attrs:  []entity.Attribute{{Name: "name", Value: fmt.Sprintf("entity %d", id)}},
		Tokens: toks,
	}
}

func sparseEntries(ids ...int64) []Entry {
	ents := make([]Entry, len(ids))
	for i, id := range ids {
		ents[i] = sparseEntry(id)
	}
	return ents
}

// denseEntry builds a deterministic unit vector from the id.
func denseEntry(id int64, dim int) Entry {
	v := make(vector.Vec, dim)
	for i := range v {
		v[i] = float32(math.Sin(float64(id*31 + int64(i))))
	}
	return Entry{
		ID:    id,
		Attrs: []entity.Attribute{{Name: "name", Value: fmt.Sprintf("entity %d", id)}},
		Vec:   vector.Normalize(v),
	}
}

func denseEntries(dim int, ids ...int64) []Entry {
	ents := make([]Entry, len(ids))
	for i, id := range ids {
		ents[i] = denseEntry(id, dim)
	}
	return ents
}

func segBytes(t testing.TB, kind Kind, dim int, ents []Entry) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeSegment(&buf, kind, dim, ents); err != nil {
		t.Fatalf("writeSegment: %v", err)
	}
	return buf.Bytes()
}

func TestSegmentRoundTripSparse(t *testing.T) {
	ents := sparseEntries(1, 2, 5, 9)
	g, err := Load(segBytes(t, KindSparse, 0, ents), "seg-test", nil)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	defer g.Close()
	if g.Count() != len(ents) {
		t.Fatalf("count = %d, want %d", g.Count(), len(ents))
	}
	got := g.entries()
	if len(got) != len(ents) {
		t.Fatalf("entries() returned %d, want %d", len(got), len(ents))
	}
	for i, e := range got {
		if e.ID != ents[i].ID {
			t.Fatalf("entry %d id = %d, want %d", i, e.ID, ents[i].ID)
		}
		if !reflect.DeepEqual(e.Attrs, ents[i].Attrs) {
			t.Fatalf("entry %d attrs = %v, want %v", i, e.Attrs, ents[i].Attrs)
		}
		want := append([]string(nil), ents[i].Tokens...)
		gotToks := append([]string(nil), e.Tokens...)
		sort.Strings(want)
		sort.Strings(gotToks)
		if !reflect.DeepEqual(gotToks, want) {
			t.Fatalf("entry %d tokens = %v, want %v", i, gotToks, want)
		}
	}
	if !g.has(5) || g.has(4) {
		t.Fatalf("membership: has(5)=%v has(4)=%v", g.has(5), g.has(4))
	}
}

func TestSegmentRoundTripDense(t *testing.T) {
	const dim = 8
	ents := denseEntries(dim, 3, 4, 10)
	g, err := Load(segBytes(t, KindDense, dim, ents), "seg-test", nil)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	defer g.Close()
	v := make(vector.Vec, dim)
	for i, e := range ents {
		g.vec(i, v)
		if !reflect.DeepEqual(v, e.Vec) {
			t.Fatalf("vec(%d) = %v, want %v", i, v, e.Vec)
		}
	}
}

// TestSegmentQueriesMatchBruteForce checks the three query paths of a
// single reader against trivially-correct scans.
func TestSegmentQueriesMatchBruteForce(t *testing.T) {
	ents := sparseEntries(1, 2, 3, 4, 5, 6, 7)
	g, err := Load(segBytes(t, KindSparse, 0, ents), "seg-test", nil)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	defer g.Close()

	query := []string{"tok3", "tok4", "grp0"}
	m := sparse.Jaccard
	never := func(int64) bool { return false }

	sim := func(e Entry) float64 {
		set := map[string]bool{}
		for _, tok := range e.Tokens {
			set[tok] = true
		}
		ov := 0
		for _, tok := range query {
			if set[tok] {
				ov++
			}
		}
		return m.Sim(ov, len(query), len(e.Tokens))
	}

	t.Run("range", func(t *testing.T) {
		const eps = 0.2
		var want []hit.Hit
		for _, e := range ents {
			if s := sim(e); s >= eps {
				want = append(want, hit.Hit{ID: e.ID, Score: s})
			}
		}
		hit.Sort(want)
		got := g.rangeQuery(query, m, eps, never)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("rangeQuery = %v, want %v", got, want)
		}
	})

	t.Run("knn", func(t *testing.T) {
		var all []hit.Hit
		for _, e := range ents {
			if s := sim(e); s > 0 {
				all = append(all, hit.Hit{ID: e.ID, Score: s})
			}
		}
		hit.Sort(all)
		want := hit.Distinct.Apply(all, 2)
		got := g.knnQuery(query, m, 2, never)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("knnQuery = %v, want %v", got, want)
		}
	})

	t.Run("dead-mask", func(t *testing.T) {
		dead := func(id int64) bool { return id == 3 }
		for _, h := range g.rangeQuery(query, m, 0.0, dead) {
			if h.ID == 3 {
				t.Fatalf("tombstoned id 3 surfaced: %v", h)
			}
		}
	})
}

// TestSegmentKNNQueryEqualsFullSort holds knnQuery's two-pass selection
// to the probe it replaced — collect every live candidate, sort them
// all, cut at k distinct values — on random tie-heavy segments with dead ids, at
// k ∈ {1, 3, #candidates, 1 << 31}: the same property
// sparse.TestKNNQueryEqualsFullSort checks for the two in-memory probes.
func TestSegmentKNNQueryEqualsFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	randTokens := func() []string {
		var toks []string
		for _, tok := range rng.Perm(10)[:1+rng.Intn(4)] {
			toks = append(toks, fmt.Sprintf("t%d", tok))
		}
		return toks
	}
	for trial := 0; trial < 100; trial++ {
		ents := make([]Entry, 1+rng.Intn(60))
		dead := map[int64]bool{}
		for i := range ents {
			ents[i] = Entry{ID: int64(2 * i), Tokens: randTokens()}
			dead[ents[i].ID] = rng.Intn(3) == 0
		}
		g, err := Load(segBytes(t, KindSparse, 0, ents), "seg-test", nil)
		if err != nil {
			t.Fatalf("Load: %v", err)
		}
		isDead := func(id int64) bool { return dead[id] }
		for qi := 0; qi < 4; qi++ {
			query := randTokens()
			for _, m := range sparse.Measures() {
				var all []hit.Hit
				for _, e := range ents {
					ov := 0
					for _, tok := range e.Tokens {
						if slices.Contains(query, tok) {
							ov++
						}
					}
					if s := m.Sim(ov, len(query), len(e.Tokens)); s > 0 && !dead[e.ID] {
						all = append(all, hit.Hit{ID: e.ID, Score: s})
					}
				}
				sort.Slice(all, func(i, j int) bool {
					if all[i].Score != all[j].Score {
						return all[i].Score > all[j].Score
					}
					return all[i].ID < all[j].ID
				})
				for _, k := range []int{1, 3, len(all), 1 << 31} {
					var want []hit.Hit
					if k > 0 {
						want = hit.Distinct.Apply(slices.Clone(all), k)
					}
					got := g.knnQuery(query, m, k, isDead)
					if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
						t.Fatalf("trial %d %v k=%d: knnQuery = %v, want %v", trial, m, k, got, want)
					}
				}
			}
		}
		g.Close()
	}
}

func TestSegmentDenseSearchMatchesBruteForce(t *testing.T) {
	const dim = 8
	ents := denseEntries(dim, 1, 2, 3, 4, 5, 6)
	g, err := Load(segBytes(t, KindDense, dim, ents), "seg-test", nil)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	defer g.Close()
	q := denseEntry(99, dim).Vec
	metric := knn.L2Squared

	var all []hit.Hit
	for _, e := range ents {
		all = append(all, hit.Hit{ID: e.ID, Score: -metric.Score(q, e.Vec)})
	}
	hit.Sort(all)
	want := all[:3]
	got := g.denseSearch(q, 3, metric, func(int64) bool { return false })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("denseSearch = %v, want %v", got, want)
	}
}

func TestWriteSegmentRejectsBadInput(t *testing.T) {
	var buf bytes.Buffer
	cases := map[string]func() error{
		"empty": func() error { return writeSegment(&buf, KindSparse, 0, nil) },
		"unsorted": func() error {
			return writeSegment(&buf, KindSparse, 0, sparseEntries(5, 3))
		},
		"duplicate-id": func() error {
			return writeSegment(&buf, KindSparse, 0, sparseEntries(5, 5))
		},
		"duplicate-token": func() error {
			e := sparseEntry(1)
			e.Tokens = []string{"a", "a"}
			return writeSegment(&buf, KindSparse, 0, []Entry{e})
		},
		"sparse-with-vector": func() error {
			e := sparseEntry(1)
			e.Vec = make(vector.Vec, 4)
			return writeSegment(&buf, KindSparse, 0, []Entry{e})
		},
		"dense-wrong-dim": func() error {
			return writeSegment(&buf, KindDense, 8, denseEntries(4, 1))
		},
	}
	for name, fn := range cases {
		buf.Reset()
		if err := fn(); err == nil {
			t.Errorf("%s: writeSegment accepted bad input", name)
		}
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m := manifest{
		Gen:       7,
		Watermark: 1234,
		Meta:      []byte("opaque config"),
		Segs: []manEntry{
			{Name: "seg-0000000000000001.seg", Kind: KindSparse, Count: 3, MinID: 1, MaxID: 9, Bytes: 512},
			{Name: "seg-0000000000000004.seg", Kind: KindSparse, Count: 2, MinID: 12, MaxID: 15, Bytes: 300},
		},
		Tombs: []int64{2, 13},
	}
	var buf bytes.Buffer
	if err := writeManifest(&buf, m); err != nil {
		t.Fatalf("writeManifest: %v", err)
	}
	got, err := loadManifest(buf.Bytes())
	if err != nil {
		t.Fatalf("loadManifest: %v", err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip = %+v, want %+v", got, m)
	}
}

// sparseOpts is the default tier config of the tier lifecycle tests:
// in-memory fault fs, inline merges, fan-in 2.
func sparseOpts(fsys faultfs.FS, dir string) Options {
	return Options{
		FS:         fsys,
		Dir:        dir,
		Kind:       KindSparse,
		Measure:    sparse.Jaccard,
		MergeFanin: 2,
		Meta:       []byte("test meta"),
		SyncMerge:  true,
	}
}

func TestTierFlushDeleteMergeReopen(t *testing.T) {
	fsys := faultfs.NewMem()
	dir := "tier"
	tr, err := Open(sparseOpts(fsys, dir))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}

	// Three small flushes: fan-in 2 means the third flush triggers a
	// merge chain that folds everything into one segment.
	if err := tr.Flush(sparseEntries(1, 2), 3); err != nil {
		t.Fatalf("flush 1: %v", err)
	}
	if err := tr.Flush(sparseEntries(3, 4), 5); err != nil {
		t.Fatalf("flush 2: %v", err)
	}
	if !tr.Delete(2) {
		t.Fatal("Delete(2) = false")
	}
	if tr.Delete(2) || tr.Delete(99) {
		t.Fatal("re-delete or missing-id delete returned true")
	}
	if err := tr.Flush(sparseEntries(5, 6), 7); err != nil {
		t.Fatalf("flush 3: %v", err)
	}

	v := tr.View()
	if v.Live() != 5 {
		t.Fatalf("live = %d, want 5", v.Live())
	}
	if v.Segments() > 2 {
		t.Fatalf("segments after merge = %d, want <= 2", v.Segments())
	}
	// The merge that folded the segment holding id 2 garbage-collected
	// its tombstone.
	if v.Has(2) {
		t.Fatal("deleted id 2 still visible")
	}
	for _, id := range []int64{1, 3, 4, 5, 6} {
		if !v.Has(id) {
			t.Fatalf("id %d missing after merge", id)
		}
		attrs, ok := v.Get(id)
		if !ok || attrs[0].Value != fmt.Sprintf("entity %d", id) {
			t.Fatalf("Get(%d) = %v, %v", id, attrs, ok)
		}
	}
	if got := tr.Watermark(); got != 7 {
		t.Fatalf("watermark = %d, want 7", got)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen: same live set, same watermark, meta pinned from the first
	// manifest (the caller's new meta must lose).
	opts := sparseOpts(fsys, dir)
	opts.Meta = []byte("different meta")
	tr2, err := Open(opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer tr2.Close()
	if got := string(tr2.Meta()); got != "test meta" {
		t.Fatalf("reopened meta = %q, want pinned original", got)
	}
	if got := tr2.Watermark(); got != 7 {
		t.Fatalf("reopened watermark = %d, want 7", got)
	}
	v2 := tr2.View()
	if v2.Live() != 5 || v2.Has(2) {
		t.Fatalf("reopened live = %d, Has(2) = %v", v2.Live(), v2.Has(2))
	}
}

// TestTierTombstonePersistsAcrossReopen: a tombstone that has reached
// the manifest (via a later flush) must mask its entity after reopen
// even when no merge collected it yet.
func TestTierTombstonePersistsAcrossReopen(t *testing.T) {
	fsys := faultfs.NewMem()
	opts := sparseOpts(fsys, "tier")
	opts.MergeFanin = 100 // never merge
	tr, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := tr.Flush(sparseEntries(1, 2, 3), 4); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if !tr.Delete(2) {
		t.Fatal("Delete(2) = false")
	}
	// Manifest-only flush commits the tombstone.
	if err := tr.Flush(nil, 4); err != nil {
		t.Fatalf("manifest flush: %v", err)
	}
	tr.Close()

	tr2, err := Open(opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer tr2.Close()
	if tr2.View().Has(2) {
		t.Fatal("tombstoned id 2 visible after reopen")
	}
	if tr2.View().Live() != 2 || tr2.View().Tombstones() != 1 {
		t.Fatalf("live = %d tombs = %d", tr2.View().Live(), tr2.View().Tombstones())
	}
}

// TestTierSweepsOrphans: segment files not named by the manifest (a
// crash between segment rename and manifest commit) and temp files are
// removed at open.
func TestTierSweepsOrphans(t *testing.T) {
	fsys := faultfs.NewMem()
	dir := "tier"
	tr, err := Open(sparseOpts(fsys, dir))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := tr.Flush(sparseEntries(1, 2), 3); err != nil {
		t.Fatalf("flush: %v", err)
	}
	tr.Close()

	// Plant an orphan segment and a leftover temp file.
	for _, name := range []string{"seg-00000000000000ff.seg", "seg-0000000000000001.seg.tmp"} {
		f, err := faultfs.Create(fsys, filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("plant %s: %v", name, err)
		}
		if err := writeSegment(f, KindSparse, 0, sparseEntries(100)); err != nil {
			t.Fatalf("write orphan: %v", err)
		}
		f.Close()
	}

	tr2, err := Open(sparseOpts(fsys, dir))
	if err != nil {
		t.Fatalf("reopen with orphans: %v", err)
	}
	defer tr2.Close()
	if tr2.View().Has(100) {
		t.Fatal("orphan segment's entity is visible")
	}
	names, err := fsys.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	for _, n := range names {
		if n == "seg-00000000000000ff.seg" || filepath.Ext(n) == ".tmp" {
			t.Fatalf("debris %s survived open", n)
		}
	}
}

// TestTierRejectsDuplicateFlush: flushing an id the tier already
// stores must fail (the id-uniqueness invariant).
func TestTierRejectsDuplicateFlush(t *testing.T) {
	tr, err := Open(sparseOpts(faultfs.NewMem(), "tier"))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer tr.Close()
	if err := tr.Flush(sparseEntries(1, 2), 3); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if err := tr.Flush(sparseEntries(2, 3), 4); err == nil {
		t.Fatal("duplicate-id flush accepted")
	}
}

// TestTierMmapPath runs the flush/merge/reopen cycle on the real OS
// filesystem, exercising the mmap reader.
func TestTierMmapPath(t *testing.T) {
	dir := t.TempDir()
	opts := sparseOpts(nil, dir) // nil FS selects the OS and mmap
	tr, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := tr.Flush(sparseEntries(1, 2), 3); err != nil {
		t.Fatalf("flush 1: %v", err)
	}
	if err := tr.Flush(sparseEntries(3, 4), 5); err != nil {
		t.Fatalf("flush 2: %v", err)
	}
	if err := tr.Flush(sparseEntries(5, 6), 7); err != nil {
		t.Fatalf("flush 3: %v", err)
	}
	hits := hit.Gather(hit.Union, 0, tr.View().SparseRange(nil, []string{"tok3", "tok4", "grp0"}, 0.01)...)
	if len(hits) == 0 {
		t.Fatal("no hits from mmap-backed tier")
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	tr2, err := Open(opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if tr2.View().Live() != 6 {
		t.Fatalf("reopened live = %d, want 6", tr2.View().Live())
	}
	if err := tr2.Close(); err != nil {
		t.Fatalf("Close 2: %v", err)
	}
}
