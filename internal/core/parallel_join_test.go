package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"erfilter/internal/datagen"
	"erfilter/internal/deepblocker"
	"erfilter/internal/entity"
	"erfilter/internal/hit"
	"erfilter/internal/knn"
	"erfilter/internal/lsh"
	"erfilter/internal/sparse"
	"erfilter/internal/text"
	"erfilter/internal/vector"
)

// serialJoin is the loop join ran before its phases went onto workers:
// index one side, then one prober over every query, in order.
func serialJoin[Q, I any](reverse bool, e1, e2 []Q, index func([]Q) I, probe func(I, Q) []hit.Hit) []entity.Pair {
	indexed, queries := Sides(reverse, e1, e2)
	idx := index(indexed)
	var pairs []entity.Pair
	for qi, q := range queries {
		for _, h := range probe(idx, q) {
			pairs = append(pairs, PairOf(reverse, qi, h.ID))
		}
	}
	return pairs
}

// serialTexts represents both sides one text after another.
func serialTexts(in *Input, clean bool) (t1, t2 []string) {
	t1, t2 = in.V1.Texts(), in.V2.Texts()
	if !clean {
		return t1, t2
	}
	cl := func(texts []string) []string {
		out := make([]string, len(texts))
		for i, s := range texts {
			out[i] = text.Clean(s)
		}
		return out
	}
	return cl(t1), cl(t2)
}

// serialEmbeddings embeds both sides through one embedder, in order.
func serialEmbeddings(in *Input, clean bool) (v1, v2 []vector.Vec) {
	t1, t2 := serialTexts(in, clean)
	emb := vector.NewEmbedder(in.embDim)
	return emb.Texts(t1), emb.Texts(t2)
}

// collect gathers what an LSH query reports into hits.
func collect(query func(fn func(e int32))) []hit.Hit {
	var out []hit.Hit
	query(func(e int32) { out = append(out, hit.Hit{ID: int64(e)}) })
	return out
}

// serialSparse is the serial reference of both sparse joins.
func serialSparse(in *Input, clean bool, model text.Model, reverse bool,
	probe func(*sparse.Index, []int32, *sparse.Scratch) []hit.Hit) []entity.Pair {
	t1, t2 := serialTexts(in, clean)
	c := sparse.BuildCorpus(t1, t2, model)
	var sc sparse.Scratch
	return serialJoin(reverse, c.Sets1, c.Sets2,
		func(sets [][]int32) *sparse.Index { return sparse.NewIndex(sets, c.NumTokens) },
		func(idx *sparse.Index, q []int32) []hit.Hit { return probe(idx, q, &sc) })
}

// joinCase is one configured join user and its serial reference.
type joinCase struct {
	f   Filter
	ref func(in *Input) []entity.Pair
}

func joinCases() []joinCase {
	c3g := text.Model{N: 3}
	var cases []joinCase
	cases = append(cases, joinCase{
		&EpsJoinFilter{Clean: true, Model: c3g, Measure: sparse.Cosine, Threshold: 0.3},
		func(in *Input) []entity.Pair {
			return serialSparse(in, true, c3g, false, func(idx *sparse.Index, q []int32, sc *sparse.Scratch) []hit.Hit {
				return idx.RangeQuery(q, sparse.Cosine, 0.3, sc)
			})
		}})
	mh := &MinHashFilter{Clean: true, Bands: 8, Rows: 4, K: 3}
	cases = append(cases, joinCase{mh, func(in *Input) []entity.Pair {
		t1, t2 := serialTexts(in, true)
		m := &lsh.MinHash{Bands: mh.Bands, Rows: mh.Rows, K: mh.K, Seed: in.Seed}
		var sc lsh.Scratch
		return serialJoin(false, t1, t2, m.Build, func(idx *lsh.MinHashIndex, q string) []hit.Hit {
			return collect(func(fn func(int32)) { idx.Query(q, &sc, fn) })
		})
	}})
	hp := &HyperplaneFilter{Tables: 3, Hashes: 4, Probes: 3}
	cases = append(cases, joinCase{hp, func(in *Input) []entity.Pair {
		v1, v2 := serialEmbeddings(in, false)
		h := &lsh.Hyperplane{Tables: hp.Tables, Hashes: hp.Hashes, Probes: hp.Probes, Seed: in.Seed}
		var sc lsh.Scratch
		return serialJoin(false, v1, v2, h.Build, func(idx *lsh.HyperplaneIndex, q vector.Vec) []hit.Hit {
			return collect(func(fn func(int32)) { idx.Query(q, &sc, fn) })
		})
	}})
	cp := &CrossPolytopeFilter{Tables: 2, Hashes: 2, LastCPDim: 8, Probes: 3}
	cases = append(cases, joinCase{cp, func(in *Input) []entity.Pair {
		v1, v2 := serialEmbeddings(in, false)
		c := &lsh.CrossPolytope{Tables: cp.Tables, Hashes: cp.Hashes, LastCPDim: cp.LastCPDim, Probes: cp.Probes, Seed: in.Seed}
		var sc lsh.Scratch
		return serialJoin(false, v1, v2, c.Build, func(idx *lsh.CrossPolytopeIndex, q vector.Vec) []hit.Hit {
			return collect(func(fn func(int32)) { idx.Query(q, &sc, fn) })
		})
	}})
	for _, reverse := range []bool{false, true} {
		cases = append(cases, joinCase{
			&KNNJoinFilter{Clean: true, Model: text.Model{N: 5, Multiset: true}, Measure: sparse.Cosine, K: 3, Reverse: reverse},
			func(in *Input) []entity.Pair {
				return serialSparse(in, true, text.Model{N: 5, Multiset: true}, reverse, func(idx *sparse.Index, q []int32, sc *sparse.Scratch) []hit.Hit {
					return idx.KNNQuery(q, sparse.Cosine, 3, sc)
				})
			}})
		cases = append(cases, joinCase{&FlatKNNFilter{Clean: true, K: 3, Reverse: reverse}, func(in *Input) []entity.Pair {
			v1, v2 := serialEmbeddings(in, true)
			return serialJoin(reverse, v1, v2, flatIndex, func(idx *knn.Flat, q vector.Vec) []hit.Hit { return idx.Search(q, 3) })
		}})
		for _, scoring := range []knn.Scoring{knn.BruteForce, knn.AsymmetricHashing} {
			cases = append(cases, joinCase{&PartitionedKNNFilter{K: 3, Reverse: reverse, Scoring: scoring}, func(in *Input) []entity.Pair {
				v1, v2 := serialEmbeddings(in, false)
				return serialJoin(reverse, v1, v2,
					func(vecs []vector.Vec) *knn.Partitioned {
						return knn.NewPartitioned(vecs, knn.PartitionedConfig{Scoring: scoring, Seed: in.Seed})
					},
					func(idx *knn.Partitioned, q vector.Vec) []hit.Hit { return idx.Search(q, 3) })
			}})
		}
		db := &DeepBlockerFilter{Clean: true, K: 3, Reverse: reverse, Hidden: 8, Epochs: 1}
		cases = append(cases, joinCase{db, func(in *Input) []entity.Pair {
			v1, v2 := serialEmbeddings(in, true)
			ae := deepblocker.Train(slices.Concat(v1, v2), deepblocker.TrainConfig{Hidden: db.Hidden, Epochs: db.Epochs, Seed: in.Seed})
			return serialJoin(reverse, ae.EncodeAll(v1), ae.EncodeAll(v2), flatIndex,
				func(idx *knn.Flat, q vector.Vec) []hit.Hit { return idx.Search(q, 3) })
		}})
	}
	return cases
}

// TestJoinIdenticalAcrossProcs holds every user of join — the eight
// batch NN filters, both RVS directions where a filter has them — to the
// serial loop: on two dataset analogs, Outcome.Pairs is the same slice,
// element for element and in order, at GOMAXPROCS 1 and 4 (each run on a
// fresh input, so cleaning, tokenising and embedding run at that width
// too) and equal to serialJoin over serially represented collections.
func TestJoinIdenticalAcrossProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, task := range []*entity.Task{datagen.ByName("D2", 0.1), datagen.ByName("D4", 0.05)} {
		in := NewInputDim(task, entity.SchemaAgnostic, 32)
		in.Seed = 7
		for _, c := range joinCases() {
			name := fmt.Sprintf("%s/%s", task.Name, c.f.Name())
			runtime.GOMAXPROCS(1)
			want := c.ref(in.Fresh())
			if len(want) == 0 {
				t.Fatalf("%s: the reference found no pairs", name)
			}
			for _, procs := range []int{1, 4} {
				runtime.GOMAXPROCS(procs)
				out, err := c.f.Run(in.Fresh())
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !slices.Equal(out.Pairs, want) {
					t.Errorf("%s at GOMAXPROCS %d: %d pairs differ from the serial loop's %d", name, procs, len(out.Pairs), len(want))
				}
			}
		}
	}
}

// concurrentEqualsSerial asks every query of one immutable batch index
// from 8 goroutines at once, each with a prober (and so a scratch) of its
// own and starting at a different query, and requires each answer to
// equal the serial one.
func concurrentEqualsSerial[Q any](t *testing.T, name string, queries []Q, newProbe func() func(Q) []hit.Hit) {
	t.Helper()
	serial := newProbe()
	want := make([][]hit.Hit, len(queries))
	for i, q := range queries {
		want[i] = slices.Clone(serial(q))
	}
	const goroutines = 8
	var wg sync.WaitGroup
	bad := make([]int, goroutines)
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			probe := newProbe()
			bad[g] = -1
			for j := range queries {
				i := (j + g*len(queries)/goroutines) % len(queries)
				if !slices.Equal(probe(queries[i]), want[i]) {
					bad[g] = i
					return
				}
			}
		}()
	}
	wg.Wait()
	for g, i := range bad {
		if i >= 0 {
			t.Errorf("%s: goroutine %d answered query %d unlike the serial probe", name, g, i)
		}
	}
}

// TestBatchIndexConcurrentQueries is the immutability the parallel query
// phase relies on: sparse.Index, the three LSH indexes, knn.Flat and
// knn.Partitioned answer concurrent queries exactly as serial ones. Under
// -race it also proves no query writes index state.
func TestBatchIndexConcurrentQueries(t *testing.T) {
	task := datagen.ByName("D2", 0.1)
	v1, v2 := entity.TaskViews(task, entity.SchemaAgnostic)
	t1, t2 := v1.Texts(), v2.Texts()
	emb := vector.NewEmbedder(32)
	e1, e2 := emb.Texts(t1), emb.Texts(t2)

	c := sparse.BuildCorpus(t1, t2, text.Model{N: 3})
	sp := sparse.NewIndex(c.Sets1, c.NumTokens)
	concurrentEqualsSerial(t, "sparse kNN", c.Sets2, func() func([]int32) []hit.Hit {
		sc := new(sparse.Scratch)
		return func(q []int32) []hit.Hit { return sp.KNNQuery(q, sparse.Cosine, 3, sc) }
	})
	concurrentEqualsSerial(t, "sparse range", c.Sets2, func() func([]int32) []hit.Hit {
		sc := new(sparse.Scratch)
		return func(q []int32) []hit.Hit { return sp.RangeQuery(q, sparse.Jaccard, 0.2, sc) }
	})

	mh := (&lsh.MinHash{Bands: 8, Rows: 4, K: 3, Seed: 3}).Build(t1)
	concurrentEqualsSerial(t, "MinHash", t2, func() func(string) []hit.Hit {
		p := bucketMates((*lsh.MinHashIndex).Query)()
		return func(q string) []hit.Hit { return p(mh, q) }
	})
	hp := (&lsh.Hyperplane{Tables: 3, Hashes: 4, Probes: 3, Seed: 3}).Build(e1)
	concurrentEqualsSerial(t, "Hyperplane", e2, func() func(vector.Vec) []hit.Hit {
		p := bucketMates((*lsh.HyperplaneIndex).Query)()
		return func(q vector.Vec) []hit.Hit { return p(hp, q) }
	})
	cp := (&lsh.CrossPolytope{Tables: 2, Hashes: 2, LastCPDim: 8, Probes: 3, Seed: 3}).Build(e1)
	concurrentEqualsSerial(t, "CrossPolytope", e2, func() func(vector.Vec) []hit.Hit {
		p := bucketMates((*lsh.CrossPolytopeIndex).Query)()
		return func(q vector.Vec) []hit.Hit { return p(cp, q) }
	})

	flat := knn.NewFlat(e1, knn.L2Squared)
	concurrentEqualsSerial(t, "Flat", e2, func() func(vector.Vec) []hit.Hit {
		return func(q vector.Vec) []hit.Hit { return flat.Search(q, 5) }
	})
	for _, scoring := range []knn.Scoring{knn.BruteForce, knn.AsymmetricHashing} {
		part := knn.NewPartitioned(e1, knn.PartitionedConfig{Scoring: scoring, Seed: 3})
		concurrentEqualsSerial(t, "Partitioned "+scoring.String(), e2, func() func(vector.Vec) []hit.Hit {
			return func(q vector.Vec) []hit.Hit { return part.Search(q, 5) }
		})
	}
}
