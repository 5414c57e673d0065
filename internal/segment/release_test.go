package segment

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"erfilter/internal/entity"
	"erfilter/internal/faultfs"
	"erfilter/internal/hit"
	"erfilter/internal/knn"
	"erfilter/internal/sparse"
)

// viewPair is one generation of a real-file tier and of its in-memory
// twin: two views over the same live entities.
type viewPair struct{ disk, twin *View }

// TestTierViewsRaceMergesAndGC probes held and fresh views of a
// real-file tier from several goroutines while a writer flushes it
// through many background merges and another goroutine keeps the
// collector running, so merged-away segments are unmapped by their
// finalizers as the probes run. Every answer must equal the same probe
// on a faultfs.Mem twin fed the same flushes and deletes.
func TestTierViewsRaceMergesAndGC(t *testing.T) {
	t.Run("sparse", func(t *testing.T) { raceViews(t, KindSparse) })
	t.Run("dense", func(t *testing.T) { raceViews(t, KindDense) })
}

func raceViews(t *testing.T, kind Kind) {
	const dim, steps, readers = 8, 60, 3
	opts := Options{Dir: t.TempDir(), Kind: kind, Measure: sparse.Jaccard, MergeFanin: 2}
	if kind == KindDense {
		opts.Dim, opts.Metric = dim, knn.L2Squared
	}
	disk, err := Open(opts) // nil FS selects the OS and mmap
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer disk.Close()
	opts.FS, opts.Dir, opts.SyncMerge = faultfs.NewMem(), "twin", true
	twin, err := Open(opts)
	if err != nil {
		t.Fatalf("Open twin: %v", err)
	}
	defer twin.Close()
	entries := func(ids ...int64) []testEntry {
		if kind == KindDense {
			return denseEntries(dim, ids...)
		}
		return sparseEntries(ids...)
	}

	// held keeps the first generation for the whole run and a window of
	// the latest ones; a generation falling out of the window is dropped
	// while readers may still be probing it. mu orders the writer's
	// steps against readers taking the current pair.
	var (
		mu   sync.RWMutex
		held []viewPair
		next atomic.Int64 // ids below it were flushed
		done atomic.Bool
		wg   sync.WaitGroup
	)
	probe := func(rng *rand.Rand, p viewPair, sc *sparse.Scratch) error {
		q := rng.Int63n(next.Load() + 2)
		ask := map[string]func(v *View) any{
			"get": func(v *View) any {
				attrs, ok := v.Get(q)
				return fmt.Sprint(attrs, ok)
			},
			"each live": func(v *View) any {
				var all []string
				v.EachLive(func(id int64, attrs []entity.Attribute) { all = append(all, fmt.Sprint(id, attrs)) })
				slices.Sort(all)
				return all
			},
		}
		if kind == KindDense {
			vec := denseEntry(q, dim).Vec
			ask["dense search"] = func(v *View) any { return hit.Gather(hit.Top, 3, v.DenseSearch(nil, vec, 3)...) }
		} else {
			toks := sparseEntry(q).Tokens
			ask["sparse range"] = func(v *View) any { return hit.Gather(hit.Union, 0, v.SparseRange(nil, toks, 0.2, sc)...) }
			ask["sparse knn"] = func(v *View) any { return hit.Gather(hit.Distinct, 2, v.SparseKNN(nil, toks, 2, sc)...) }
		}
		for name, fn := range ask {
			if got, want := fn(p.disk), fn(p.twin); !reflect.DeepEqual(got, want) {
				return fmt.Errorf("%s %d: disk tier %v, twin %v", name, q, got, want)
			}
		}
		return nil
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng, sc := rand.New(rand.NewSource(seed)), &sparse.Scratch{}
			for n := 0; n < 20 || !done.Load(); n++ {
				mu.RLock()
				p := viewPair{disk.View(), twin.View()}
				if len(held) > 0 && rng.Intn(2) == 0 {
					p = held[rng.Intn(len(held))]
				}
				mu.RUnlock()
				if err := probe(rng, p, sc); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(r))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !done.Load() {
			runtime.GC()
		}
	}()

	rng := rand.New(rand.NewSource(int64(kind)))
	func() {
		defer done.Store(true)
		for step := 0; step < steps; step++ {
			mu.Lock()
			lo := next.Load()
			for _, tr := range []*Tier{disk, twin} {
				if err := flushEntries(tr, entries(lo, lo+1, lo+2), lo+3); err != nil {
					mu.Unlock()
					t.Errorf("step %d: flush: %v", step, err)
					return
				}
			}
			next.Store(lo + 3)
			if id := rng.Int63n(lo + 3); disk.Delete(id) != twin.Delete(id) {
				mu.Unlock()
				t.Errorf("step %d: delete %d disagrees", step, id)
				return
			}
			held = append(held, viewPair{disk.View(), twin.View()})
			if len(held) > 4 {
				held = slices.Delete(held, 1, 2)
			}
			mu.Unlock()
		}
	}()
	wg.Wait()
	if disk.merges.Load() < steps/2 {
		t.Fatalf("%d merges over %d flushes", disk.merges.Load(), steps)
	}
}
