package segment

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"erfilter/internal/entity"
	"erfilter/internal/faultfs"
	"erfilter/internal/hit"
	"erfilter/internal/knn"
	"erfilter/internal/sparse"
)

// tombModel is a tier beside the map model it must answer like: the
// live entities, and the deletes no manifest has committed yet (a
// reopen brings them back, as the WAL replay that justifies them would
// replay them).
type tombModel struct {
	rng     *rand.Rand
	kind    Kind
	fsys    *faultfs.Mem
	opts    Options
	tr      *Tier
	live    map[int64]testEntry
	pending map[int64]testEntry
	dead    []int64 // every id ever tombstoned
	next    int64   // ids below it were assigned or skipped

	armed    bool // the merge output's sync deletes entities of the merge's inputs
	midMerge int  // deletes that landed on an input between merge start and commit
}

const tombDim = 8

func newTombModel(kind Kind, seed int64) (*tombModel, error) {
	m := &tombModel{
		rng:     rand.New(rand.NewSource(seed)),
		kind:    kind,
		fsys:    faultfs.NewMem(),
		live:    map[int64]testEntry{},
		pending: map[int64]testEntry{},
	}
	m.opts = Options{FS: m.fsys, Dir: "tier", Kind: kind, Measure: sparse.Jaccard, MergeFanin: 2 + m.rng.Intn(2)}
	if kind == KindDense {
		m.opts.Dim, m.opts.Metric = tombDim, knn.L2Squared
	}
	// The merge output is the one segment file synced with the tier lock
	// free: a flush writes its segment, and every commit its manifest,
	// under the lock.
	m.fsys.BeforeSync = func(name string) {
		if !m.armed || !strings.HasSuffix(name, ".seg.tmp") || !m.tr.mu.TryLock() {
			return
		}
		m.tr.mu.Unlock()
		m.deleteFromInputs()
	}
	return m, m.reopen()
}

func (m *tombModel) entry(id int64) testEntry {
	if m.kind == KindDense {
		return denseEntry(id, tombDim)
	}
	return sparseEntry(id)
}

// reopen closes the tier, if open, and opens it with inline or
// background merges at random.
func (m *tombModel) reopen() error {
	if m.tr != nil {
		if err := m.tr.Close(); err != nil {
			return err
		}
	}
	for id, e := range m.pending {
		m.live[id] = e
	}
	clear(m.pending)
	m.opts.SyncMerge = m.rng.Intn(2) == 0
	tr, err := Open(m.opts)
	m.tr = tr
	return err
}

// flush seals up to six new entities, some ids skipped, and waits out
// any merge it starts.
func (m *tombModel) flush() error {
	var ents []testEntry
	for n := m.rng.Intn(7); len(ents) < n; m.next++ {
		if m.rng.Intn(4) > 0 {
			ents = append(ents, m.entry(m.next))
		}
	}
	m.armed = m.rng.Intn(2) == 0
	err := flushEntries(m.tr, ents, m.next)
	m.tr.wg.Wait()
	m.armed = false
	if err != nil {
		return err
	}
	for _, e := range ents {
		m.live[e.ID] = e
	}
	clear(m.pending)
	return nil
}

// deleteFromInputs deletes up to three live entities of the segments the
// running merge folds — the fan-in smallest by count, then name — and
// one of another segment, if any.
func (m *tombModel) deleteFromInputs() {
	segs := slices.Clone(m.tr.View().segs)
	slices.SortFunc(segs, func(a, b *Reader) int {
		return cmp.Or(cmp.Compare(a.count, b.count), strings.Compare(a.name, b.name))
	})
	pick := func(segs []*Reader, n int, inputs bool) {
		var ids []int64
		for _, g := range segs {
			for slot := 0; slot < g.count; slot++ {
				if _, ok := m.live[g.id(slot)]; ok {
					ids = append(ids, g.id(slot))
				}
			}
		}
		m.rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		for _, id := range ids[:min(n, len(ids))] {
			if m.tr.Delete(id) {
				delete(m.live, id)
				m.dead = append(m.dead, id)
				if inputs {
					m.midMerge++
				}
			}
		}
	}
	pick(segs[:m.opts.MergeFanin], 3, true)
	pick(segs[m.opts.MergeFanin:], 1, false)
}

// del deletes a live id, an id never stored, or an id already
// tombstoned, and checks the answer.
func (m *tombModel) del() error {
	var id int64
	want := false
	switch r := m.rng.Intn(4); {
	case r < 2 && len(m.live) > 0:
		ids := make([]int64, 0, len(m.live))
		for id := range m.live {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		id, want = ids[m.rng.Intn(len(ids))], true
	case r == 2 && len(m.dead) > 0:
		id = m.dead[m.rng.Intn(len(m.dead))]
	default:
		id = m.next + int64(m.rng.Intn(3)) // never assigned
	}
	if _, stored := m.live[id]; stored != want {
		return nil // an id that came back live at a reopen
	}
	if got := m.tr.Delete(id); got != want {
		return fmt.Errorf("Delete(%d) = %v, want %v", id, got, want)
	}
	if want {
		m.pending[id] = m.live[id]
		delete(m.live, id)
		m.dead = append(m.dead, id)
	}
	return nil
}

// check holds the view to the model.
func (m *tombModel) check() error {
	v := m.tr.View()
	stored := 0
	for _, g := range v.segs {
		stored += g.count
	}
	if v.Live() != len(m.live) || v.Tombstones() != stored-len(m.live) {
		return fmt.Errorf("Live = %d, Tombstones = %d; the model has %d live of %d stored", v.Live(), v.Tombstones(), len(m.live), stored)
	}
	for id := int64(0); id < m.next+3; id++ {
		e, live := m.live[id]
		attrs, ok := v.Get(id)
		if v.Has(id) != live || ok != live || (live && !reflect.DeepEqual(attrs, e.Attrs)) {
			return fmt.Errorf("id %d: Has = %v, Get = %v %v; the model has %v %v", id, v.Has(id), attrs, ok, live, e.Attrs)
		}
	}
	seen := map[int64]bool{}
	var bad error
	v.EachLive(func(id int64, attrs []entity.Attribute) {
		if e, live := m.live[id]; (!live || seen[id] || !reflect.DeepEqual(attrs, e.Attrs)) && bad == nil {
			bad = fmt.Errorf("EachLive yields %d %v (live %v, seen %v)", id, attrs, live, seen[id])
		}
		seen[id] = true
	})
	if bad != nil || len(seen) != len(m.live) {
		return fmt.Errorf("EachLive: %v, %d ids for %d live", bad, len(seen), len(m.live))
	}
	return m.checkProbes(v)
}

// checkProbes holds the gathered answer of each probe the tier's kind
// serves to the same probe over the model's live entities.
func (m *tombModel) checkProbes(v *View) error {
	var all []hit.Hit
	if m.kind == KindDense {
		q := denseEntry(m.next+100+m.rng.Int63n(50), tombDim).Vec
		for id, e := range m.live {
			all = append(all, hit.Hit{ID: id, Score: -m.opts.Metric.Score(q, e.Vec)})
		}
		hit.Sort(all)
		k := 1 + m.rng.Intn(4)
		return sameHits("DenseSearch", hit.Gather(hit.Top, k, v.DenseSearch(nil, q, k)...), hit.Top.Apply(all, k))
	}
	var query []string
	for range 1 + m.rng.Intn(3) {
		id := m.rng.Int63n(m.next + 2)
		query = append(query, fmt.Sprintf("tok%d", id), fmt.Sprintf("grp%d", id%4))
	}
	slices.Sort(query)
	query = slices.Compact(query)
	for id, e := range m.live {
		ov := 0
		for _, tok := range e.Tokens {
			if slices.Contains(query, tok) {
				ov++
			}
		}
		if s := m.opts.Measure.Sim(ov, len(query), len(e.Tokens)); s > 0 {
			all = append(all, hit.Hit{ID: id, Score: s})
		}
	}
	hit.Sort(all)
	var sc sparse.Scratch
	eps, k := 0.1+0.4*m.rng.Float64(), 1+m.rng.Intn(4)
	var inRange []hit.Hit
	for _, h := range all {
		if h.Score >= eps {
			inRange = append(inRange, h)
		}
	}
	if err := sameHits("SparseRange", hit.Gather(hit.Union, 0, v.SparseRange(nil, query, eps, &sc)...), inRange); err != nil {
		return err
	}
	return sameHits("SparseKNN", hit.Gather(hit.Distinct, k, v.SparseKNN(nil, query, k, &sc)...), hit.Distinct.Apply(all, k))
}

func sameHits(probe string, got, want []hit.Hit) error {
	if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
		return fmt.Errorf("%s = %v, want %v", probe, got, want)
	}
	return nil
}

// run drives steps random operations, checking after each.
func (m *tombModel) run(steps int) error {
	for step := 0; step < steps; step++ {
		var err error
		switch r := m.rng.Intn(10); {
		case r < 4:
			err = m.flush()
		case r < 8:
			err = m.del()
		case r < 9:
			err = flushEntries(m.tr, nil, m.next) // commits the tombstones alone
			m.tr.wg.Wait()
			clear(m.pending)
		default:
			err = m.reopen()
		}
		if err == nil {
			err = m.check()
		}
		if err != nil {
			return fmt.Errorf("step %d: %w", step, err)
		}
	}
	return m.tr.Close()
}

// TestTierTombstoneModel drives seeded sequences of flushes, deletes (of
// stored ids, of ids never stored and of ids already tombstoned), inline
// and background merges, and close + Open against a map model, on sparse
// and dense tiers, and after every step holds Has, Get, EachLive, Live,
// Tombstones and the kind's probes to it. A BeforeSync hook on the merge
// output deletes entities of the merge's inputs while it runs: those
// tombstones land between merge start and commit and must reach the
// output. A failure names its seed.
func TestTierTombstoneModel(t *testing.T) {
	midMerge := 0
	for _, kind := range []Kind{KindSparse, KindDense} {
		for seed := int64(1); seed <= 12; seed++ {
			m, err := newTombModel(kind, seed)
			if err == nil {
				err = m.run(120)
			}
			if err != nil {
				t.Fatalf("kind %d seed %d: %v", kind, seed, err)
			}
			midMerge += m.midMerge
		}
	}
	if midMerge < 10 {
		t.Fatalf("%d deletes landed on a merge's inputs mid-merge, want at least 10", midMerge)
	}
	t.Logf("%d deletes landed on a merge's inputs mid-merge", midMerge)
}
