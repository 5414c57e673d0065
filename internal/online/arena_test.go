package online

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"erfilter/internal/datagen"
	"erfilter/internal/entity"
)

// sameAttrs compares attribute lists, nil and empty alike.
func sameAttrs(a, b []entity.Attribute) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// recordEntities cuts fuzz bytes into entities: 0xFE ends an entity,
// 0xFF ends a string, strings pair up as name, value (an odd one out is
// a name with an empty value) and an entity of no bytes has none. A value of big bytes joins the last
// entity when big is not zero.
func recordEntities(data []byte, big uint32) [][]entity.Attribute {
	var ents [][]entity.Attribute
	for _, e := range bytes.Split(data, []byte{0xFE}) {
		var attrs []entity.Attribute
		strs := bytes.Split(e, []byte{0xFF})
		if len(strs)%2 == 1 {
			strs = append(strs, nil)
		}
		for i := 0; len(e) > 0 && i < len(strs); i += 2 {
			attrs = append(attrs, entity.Attribute{Name: string(strs[i]), Value: string(strs[i+1])})
		}
		ents = append(ents, attrs)
	}
	if big %= 3 * pageSize; big > 0 {
		last := &ents[len(ents)-1]
		*last = append(*last, entity.Attribute{Name: "big", Value: strings.Repeat("\xe2\x82", int(big)/2+1)})
	}
	return ents
}

// FuzzAttrRecord: any attributes round-trip through the record — at
// their slot, after the records that follow them were written, and after
// a compaction that drops every third slot and copies the rest into a
// fresh arena.
func FuzzAttrRecord(f *testing.F) {
	f.Add([]byte{}, uint32(0))                                                      // one entity, no attributes
	f.Add([]byte("name\xffcanon eos\xfeprice\xff12.5\xffname\xffnikon"), uint32(0)) // repeated names
	f.Add([]byte("\xff\xfe\xff\xff\xff\xfe\xfe"), uint32(0))                        // empty names and values
	f.Add([]byte("\xc3\x28\xff\x80\x81\xfe\xed\xa0\x80\xff"), uint32(0))            // not UTF-8
	f.Add([]byte("title\xffa\xfetitle\xffb"), uint32(pageSize+7))                   // a value larger than a page
	f.Add([]byte("a\xffb"), uint32(pageSize-3))                                     // just under a page
	f.Fuzz(func(t *testing.T, data []byte, big uint32) {
		ents := recordEntities(data, big)
		var a arena
		for slot, attrs := range ents {
			a.put(int32(slot), attrs)
		}
		// Write past the records once more, so a page boundary falls
		// after them whatever their sizes.
		for _, attrs := range ents {
			a.put(int32(len(a.locs)), attrs)
		}
		for slot, attrs := range ents {
			if got := a.attrs(a.locs[slot]); !sameAttrs(got, attrs) {
				t.Fatalf("slot %d decodes to %q, want %q", slot, got, attrs)
			}
		}
		remap := make([]int32, len(a.locs))
		var kept []int
		for slot := range remap {
			remap[slot] = -1
			if slot%3 != 1 {
				remap[slot] = int32(len(kept))
				kept = append(kept, slot)
			}
		}
		c := a.keep(remap)
		if len(c.locs) != len(kept) {
			t.Fatalf("compaction kept %d records, want %d", len(c.locs), len(kept))
		}
		for to, from := range kept {
			if got, want := c.attrs(c.locs[to]), ents[from%len(ents)]; !sameAttrs(got, want) {
				t.Fatalf("slot %d → %d decodes to %q, want %q", from, to, got, want)
			}
		}
	})
}

// modelEntity draws an entity for the attribute model: up to five
// attributes over a small name set (repeats included), short product
// words, sometimes an empty or non-UTF-8 string, now and then a value of
// several KB and once in a while one larger than an arena page. The
// large values are mostly blanks, which cleaning, tokenising and
// embedding pass over cheaply: the arena stores bytes, not words.
func modelEntity(rng *rand.Rand) []entity.Attribute {
	names := []string{"title", "brand", "price", "", "title"}
	words := []string{"canon", "nikon", "zoom", "lens", "kit", "silver", "\xc3\x28", ""}
	var attrs []entity.Attribute
	for range rng.Intn(6) {
		var v string
		switch rng.Intn(40) {
		case 0:
			v = "camera" + strings.Repeat(" ", 7000+rng.Intn(15000))
		case 1:
			v = "zoom" + strings.Repeat(" ", pageSize+rng.Intn(1000))
		default:
			v = words[rng.Intn(len(words))] + " " + words[rng.Intn(len(words))]
		}
		attrs = append(attrs, entity.Attribute{Name: names[rng.Intn(len(names))], Value: v})
	}
	return attrs
}

// TestMemtableAttrsModel drives seeded insert / delete / flush /
// Save+Load sequences at every memory and disk cell of eachIngestCell,
// at GOMAXPROCS 1 and 4, and holds Get and Snapshot.Attrs of every id
// ever assigned to a map model. The deletes cross the compaction trigger
// and the large values cross arena pages; the test fails if a cell never
// saw either on a memory point.
func TestMemtableAttrsModel(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			eachIngestCell(t, func(t *testing.T, base Config, shards int, disk bool) {
				storage := func() Config {
					if !disk {
						return Config{}
					}
					return diskConfig(Config{}, t.TempDir(), 150)
				}
				cfg := base
				if disk {
					cfg = diskConfig(base, t.TempDir(), 150)
				}
				r := mustOpen(t, cfg, shards)
				defer func() { r.Close() }()
				rng := rand.New(rand.NewSource(int64(34 + shards)))
				model := map[int64][]entity.Attribute{}
				var next int64
				pages, compactions := 0, uint64(0)
				check := func(step string) {
					t.Helper()
					snap := r.Snapshot()
					for id := range next {
						want, live := model[id]
						got, ok := r.Get(id)
						sgot, sok := snap.Attrs(id)
						if ok != live || sok != live || !sameAttrs(got, want) || !sameAttrs(sgot, want) {
							t.Fatalf("%s: id %d reads %v %q / %v %q, want %v %q", step, id, ok, got, sok, sgot, live, want)
						}
					}
					for _, sh := range r.shards {
						sh.mu.Lock()
						pages = max(pages, len(sh.recs.pages))
						sh.mu.Unlock()
					}
					compactions = max(compactions, r.Stats().Compactions)
				}
				insert := func(n int) {
					batch := make([][]entity.Attribute, n)
					for i := range batch {
						batch[i] = modelEntity(rng)
					}
					for i, id := range r.InsertBatch(batch) {
						model[id] = batch[i]
					}
					next += int64(n)
				}
				remove := func(share float64) {
					for id := range next {
						if _, live := model[id]; live && rng.Float64() < share {
							if !r.Delete(id) {
								t.Fatalf("delete %d of a live id", id)
							}
							delete(model, id)
						}
					}
				}
				for round := range 3 {
					for range 40 {
						insert(1 + rng.Intn(12))
					}
					check(fmt.Sprintf("round %d inserts", round))
					remove(0.75)
					check(fmt.Sprintf("round %d deletes", round))
					if round == 1 {
						if err := r.Flush(); err != nil {
							t.Fatal(err)
						}
						check("flush")
					}
					var buf bytes.Buffer
					if err := r.Save(&buf); err != nil {
						t.Fatal(err)
					}
					loaded, err := Load(&buf, storage(), shards)
					if err != nil {
						t.Fatal(err)
					}
					r.Close()
					r = loaded
					check(fmt.Sprintf("round %d Save+Load", round))
				}
				if !disk && (pages < 2 || compactions == 0) {
					t.Fatalf("the sequence reached %d arena pages and %d compactions; want at least 2 and 1", pages, compactions)
				}
			})
		})
	}
}

// TestAttrsReadersRaceWriter runs attribute readers — Snapshot.Attrs of
// random ids and predicate queries, the two ways /v1/query and /v1/match
// reach stored attributes — while one writer inserts, deletes (past the
// compaction trigger) and, on disk, flushes. Every entity's attributes
// are a function of its id, so a reader checks what it decodes; the race
// detector checks the sharing.
func TestAttrsReadersRaceWriter(t *testing.T) {
	attrsOf := func(id int64) []entity.Attribute {
		return []entity.Attribute{
			{Name: "text", Value: fmt.Sprintf("%s item %d", corpus[id%int64(len(corpus))], id)},
			{Name: "lot", Value: strings.Repeat("x", int(id%300))},
		}
	}
	for _, disk := range []bool{false, true} {
		t.Run(fmt.Sprintf("disk=%v", disk), func(t *testing.T) {
			cfg := testConfigs()["knnj"]
			if disk {
				cfg = diskConfig(cfg, t.TempDir(), 200)
			}
			r := mustOpen(t, cfg, 2)
			defer r.Close()
			var stop atomic.Bool
			var high atomic.Int64 // ids below it have been assigned
			var wg sync.WaitGroup
			errs := make(chan error, 4)
			verify := func(a []entity.Attribute, ok bool, id int64) bool {
				if ok && !sameAttrs(a, attrsOf(id)) {
					errs <- fmt.Errorf("id %d decodes to %q", id, a)
					return false
				}
				return true
			}
			for g := range 3 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(g)))
					for !stop.Load() {
						snap := r.Snapshot()
						if n := high.Load(); n > 0 {
							id := rng.Int63n(n)
							if a, ok := snap.Attrs(id); !verify(a, ok, id) {
								return
							}
						}
						pred := func(a []entity.Attribute) bool { return len(a) == 2 && len(a[1].Value)%2 == 0 }
						for _, c := range snap.Query(attrsText(corpus[rng.Intn(len(corpus))]), QueryOptions{K: 5, Predicate: pred}) {
							if a, ok := snap.Attrs(c.ID); !verify(a, ok, c.ID) {
								return
							}
						}
					}
				}()
			}
			rng := rand.New(rand.NewSource(9))
			var live []int64
			for round := range 6 {
				for range 150 {
					want := high.Load()
					if id := r.Insert(attrsOf(want)); id != want {
						t.Fatalf("insert got id %d, want %d", id, want)
					}
					high.Store(want + 1)
					live = append(live, want)
				}
				rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
				for _, id := range live[:len(live)*3/4] {
					r.Delete(id)
				}
				live = live[len(live)*3/4:]
				if disk && round%2 == 1 {
					if err := r.Flush(); err != nil {
						t.Fatal(err)
					}
				}
			}
			stop.Store(true)
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if !disk && r.Stats().Compactions == 0 {
				t.Fatal("the writer never crossed the compaction trigger")
			}
		})
	}
}

// productBatch is n entities of the product corpus the knnj_point
// workload serves, and the bytes of their attribute values.
func productBatch(n int) ([][]entity.Attribute, int) {
	s := datagen.QuickSpec(0, 0, 0, 0)
	s.Name, s.Domain, s.Seed = "perf", "product", 20230403
	s.N1, s.N2, s.Duplicates = n, 10, 5
	batch, values := make([][]entity.Attribute, n), 0
	for i, p := range datagen.Generate(s).E1.Profiles {
		batch[i] = p.Attrs
		for _, a := range p.Attrs {
			values += len(a.Value)
		}
	}
	return batch, values
}

// TestMemtableBytesPerAttrRecord pins what the memtable's attribute
// store costs: 10 000 product entities (mostly four attributes, ≈ 94 B
// of values each) through a shard, then the live heap the store holds
// per entity — measured as what dropping it frees — must stay under the
// value bytes plus 24 B. A map of per-entity []Attribute copies read
// ≈ 280 B here.
func TestMemtableBytesPerAttrRecord(t *testing.T) {
	const n = 10000
	r := mustOpen(t, benchConfigs()["knnj-C3G"], 1)
	values := func() int {
		batch, values := productBatch(n)
		r.InsertBatch(batch)
		return values
	}() // the batch is garbage from here on
	sh := r.shards[0]
	var with, without runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&with)
	sh.mu.Lock()
	sh.recs = arena{}
	sh.mu.Unlock()
	runtime.GC()
	runtime.ReadMemStats(&without)
	perEntity := float64(with.HeapAlloc-without.HeapAlloc) / n
	perValues := float64(values) / n
	t.Logf("%.1f B of heap an entity for %.1f B of values (%+.1f B)", perEntity, perValues, perEntity-perValues)
	if perEntity >= perValues+24 {
		t.Fatalf("%.1f B of heap an entity, want under %.1f (values + 24 B)", perEntity, perValues+24)
	}
	runtime.KeepAlive(r)
}

// TestArenaPageSizes: an arena's page i is 4 KiB doubled i times, at
// most 64 KiB, unless the record that opens it is larger — then the page
// is exactly that record. Checked on 1, 100 and 10 000 product entities
// (≈ 110 B a record: one 4 KiB page; 4 + 8 KiB; 4 + 8 + 16 + 32 KiB and
// then 64 KiB pages), and with a record larger than any page put as the
// 101st.
func TestArenaPageSizes(t *testing.T) {
	batch, _ := productBatch(10000)
	huge := []entity.Attribute{{Name: "title", Value: strings.Repeat("z", pageSize+1)}}
	hugeLen := 1 + 1 + uvarintLen(pageSize+1) + pageSize + 1 // count, name id, length, value
	for _, tc := range []struct {
		n    int
		huge bool
	}{{1, false}, {100, false}, {10000, false}, {10000, true}} {
		var a arena
		const hugeSlot = 100
		for i, attrs := range batch[:tc.n] {
			if tc.huge && i == hugeSlot {
				a.put(int32(len(a.locs)), huge)
			}
			a.put(int32(len(a.locs)), attrs)
		}
		opener := map[uint64]int{} // page → slot of the record at its offset 0
		for slot, loc := range a.locs {
			if uint32(loc) == 0 {
				opener[loc>>32] = slot
			}
		}
		want := 4 << 10
		for i, page := range a.pages {
			w := want
			if tc.huge && opener[uint64(i)] == hugeSlot {
				w = hugeLen
			}
			if len(page) != w {
				t.Fatalf("n=%d huge=%v: page %d of %d is %d bytes, want %d", tc.n, tc.huge, i, len(a.pages), len(page), w)
			}
			want = min(2*want, 64<<10)
		}
		if wantPages := map[int]int{1: 1, 100: 2}[tc.n]; wantPages > 0 && len(a.pages) != wantPages {
			t.Fatalf("n=%d: %d pages, want %d", tc.n, len(a.pages), wantPages)
		}
		if tc.huge && a.locs[hugeSlot]&(1<<32-1) != 0 {
			t.Fatalf("the %d-byte record shares a page", hugeLen)
		}
	}
}
