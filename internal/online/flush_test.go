package online

import (
	"cmp"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"erfilter/internal/entity"
	"erfilter/internal/faultfs"
	"erfilter/internal/knn"
	"erfilter/internal/segment"
	"erfilter/internal/sparse"
	"erfilter/internal/text"
	"erfilter/internal/vector"
	"erfilter/internal/wal"
)

// reprepareSegment is the bytes of the segment the memtable's live
// entities make by the route the flush took before it wrote the
// memtable's own inverted form: each entity prepared again from its
// record, and the per-entity tokens inverted by a map of postings and a
// sort of its keys, then flushed into a tier of its own. Callers hold
// r.mu.
func reprepareSegment(t *testing.T, r *shard) []byte {
	t.Helper()
	type resident struct {
		id  int64
		loc uint64
	}
	var res []resident
	r.eachLocked(func(id int64, loc uint64) { res = append(res, resident{id, loc}) })
	slices.SortFunc(res, func(a, b resident) int { return cmp.Compare(a.id, b.id) })
	ents := make([]segment.Entry, len(res))
	var inv segment.Inverted
	posts := map[string][]uint32{}
	for slot, e := range res {
		attrs := r.recs.attrs(e.loc)
		var vec vector.Vec
		if r.cfg.Method == FlatKNN {
			vec = make(vector.Vec, r.cfg.Dim)
		}
		p := r.prepare(e.id, attrs, false, vec)
		ents[slot] = segment.Entry{ID: e.id, Attrs: attrs, Vec: p.vec}
		if r.sp != nil {
			inv.Sizes = append(inv.Sizes, uint32(len(p.toks)))
			for _, tok := range p.toks {
				posts[tok] = append(posts[tok], uint32(slot))
			}
		}
	}
	toks := make([]string, 0, len(posts))
	for tok := range posts {
		toks = append(toks, tok)
	}
	sort.Strings(toks)
	for _, tok := range toks {
		inv.Toks = append(inv.Toks, []byte(tok))
		inv.Posts = append(inv.Posts, posts[tok])
	}

	fsys := faultfs.NewMem()
	opts := segment.Options{FS: fsys, Dir: "oracle", Kind: segment.KindSparse, Measure: r.cfg.Measure, Metric: r.cfg.Metric}
	if r.cfg.Method == FlatKNN {
		opts.Kind, opts.Dim = segment.KindDense, r.cfg.Dim
	}
	tr, err := segment.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if err := tr.Flush(ents, inv, 0); err != nil {
		t.Fatalf("oracle flush: %v", err)
	}
	data, err := faultfs.ReadFile(fsys, filepath.Join("oracle", "seg-0000000000000000.seg"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestFlushMatchesReprepare holds every memtable flush to the bytes of
// reprepareSegment, on a sparse C3G cell and a flat dense one, over
// seeded operations: batch inserts under shuffled ids (so the memtable's
// slot order is not its id order), deletes of memtable and of flushed
// entities, delete bursts past the compaction trigger, WAL records
// replayed out of id order, and flushes both at the memtable cap (the
// volatile shard's own) and below it. The oracle runs when the flush's
// segment file is synced, with the memtable as the flush read it.
func TestFlushMatchesReprepare(t *testing.T) {
	c3g, _ := text.ParseModel("C3G")
	cells := map[string]Config{
		"sparse-c3g": {Method: EpsJoin, Model: c3g, Measure: sparse.Jaccard, Threshold: 0.3},
		"dense-flat": {Method: FlatKNN, K: 3, Metric: knn.L2Squared, Dim: 16},
	}
	words := []string{"canon", "nikon", "zoom", "lens", "kit", "silver", "black", "digital"}
	for name, cfg := range cells {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				cfg.Storage, cfg.SegmentDir, cfg.MemtableCap, cfg.MergeFanin = StorageDisk, "seg", 150, 64
				fsys := faultfs.NewMem()
				r, err := openDiskShard(cfg.normalize(), new(vector.Table), fsys, "seg")
				if err != nil {
					t.Fatal(err)
				}
				defer r.close()
				var want [][]byte
				fsys.BeforeSync = func(name string) {
					if strings.HasSuffix(name, ".seg.tmp") {
						want = append(want, reprepareSegment(t, r))
					}
				}

				var live []int64 // every resident id, memtable or tier
				next := int64(0)
				attrs := func() []entity.Attribute {
					return attrsText(fmt.Sprintf("%s %s %d %s", corpus[rng.Intn(len(corpus))], words[rng.Intn(len(words))], rng.Intn(400), words[rng.Intn(len(words))]))
				}
				fresh := func(n int) []int64 {
					ids := make([]int64, n)
					for i := range ids {
						ids[i] = next + int64(i)
					}
					next += int64(n)
					rng.Shuffle(n, func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
					live = append(live, ids...)
					return ids
				}
				remove := func(n int) {
					for ; n > 0 && len(live) > 0; n-- {
						j := rng.Intn(len(live))
						if !r.delete(live[j]) {
							t.Fatalf("delete(%d) found nothing", live[j])
						}
						live = slices.Delete(live, j, j+1)
					}
				}
				compactions := r.compact
				for op := 0; op < 120; op++ {
					switch k := rng.Intn(10); {
					case k < 4:
						ids := fresh(1 + rng.Intn(40))
						batch := make([][]entity.Attribute, len(ids))
						for i := range batch {
							batch[i] = attrs()
						}
						r.insertAssigned(ids, batch, nil)
					case k < 6:
						remove(1 + rng.Intn(6))
					case k < 7:
						// A burst of memtable deletes past the trigger:
						// at least compactMinDead, and most of it.
						ids := fresh(compactMinDead + 10)
						batch := make([][]entity.Attribute, len(ids))
						for i := range batch {
							batch[i] = attrs()
						}
						r.insertAssigned(ids, batch, nil)
						live = live[:len(live)-len(ids)]
						for _, id := range ids[:compactMinDead+5] {
							r.delete(id)
						}
						live = append(live, ids[compactMinDead+5:]...)
					case k < 8:
						// Recovery's records: new ids out of order, a
						// resident id (skipped) and a delete.
						recs := []wal.Record{}
						for _, id := range fresh(1 + rng.Intn(20)) {
							recs = append(recs, wal.Record{Type: walInsert, Data: encodeInsert(id, attrs())})
						}
						j := rng.Intn(len(live))
						recs = append(recs,
							wal.Record{Type: walInsert, Data: encodeInsert(live[j], attrs())},
							wal.Record{Type: walDelete, Data: encodeU64(uint64(live[j]))})
						live = slices.Delete(live, j, j+1)
						r.mu.Lock()
						for _, rec := range recs {
							if err := r.replayLocked(rec); err != nil {
								t.Fatal(err)
							}
						}
						r.publishLocked()
						r.mu.Unlock()
					default:
						if err := r.flush(); err != nil {
							t.Fatal(err)
						}
					}
				}
				if err := r.flush(); err != nil {
					t.Fatal(err)
				}
				if r.compact == compactions {
					t.Fatal("no delete burst compacted the memtable")
				}

				names, err := fsys.ReadDir("seg")
				if err != nil {
					t.Fatal(err)
				}
				var got [][]byte
				for _, name := range names {
					if strings.HasSuffix(name, ".seg") {
						data, err := faultfs.ReadFile(fsys, filepath.Join("seg", name))
						if err != nil {
							t.Fatal(err)
						}
						got = append(got, data)
					}
				}
				if len(got) != len(want) || len(got) < 5 {
					t.Fatalf("%d segments on disk, %d flushes oracled; want equal and at least 5", len(got), len(want))
				}
				for i := range got {
					if string(got[i]) != string(want[i]) {
						t.Fatalf("flush %d wrote %d bytes that differ from the re-prepared route's %d", i, len(got[i]), len(want[i]))
					}
				}
			})
		}
	}
}
