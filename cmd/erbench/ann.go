package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"erfilter/internal/hit"
	"erfilter/internal/knn"
	"erfilter/internal/vector"
)

// annExperiment benchmarks the incremental ANN tier against the exact
// baseline it replaces: at each collection size it builds an IncFlat
// and an IncHNSW over the same deterministic vectors, then reports
// build time, query p50 latency, the speedup, and tie-tolerant
// recall@10 of the approximate answers against the flat oracle. The
// acceptance gate for the tier (make bench-ann) is >= 5x query p50 at
// the largest size with recall@10 >= 0.95.
func annExperiment(out io.Writer, maxEntities, queries, dim, ef int) error {
	if maxEntities < 1000 {
		return fmt.Errorf("-ann-entities must be >= 1000, got %d", maxEntities)
	}
	if queries < 1 {
		return fmt.Errorf("-ann-queries must be >= 1, got %d", queries)
	}
	const k = 10
	params := knn.HNSWParams{EfSearch: ef, Seed: 1}.Normalized()

	// Deterministic clustered vectors: 256 centers plus small noise,
	// the shape of embedded-text collections (and of the standard ANN
	// benchmark sets) — graph indexes route along cluster structure, and
	// i.i.d. uniform data in this dimensionality has none to route along
	// (distance concentration makes every index degrade to a scan
	// there). Queries draw from the same distribution.
	const centers = 256
	unit := func(key, seed uint64) float32 {
		return float32(vector.Mix64(key, seed)>>11)/(1<<52) - 1
	}
	centerAt := func(c int, j int) float32 {
		return unit(uint64(c)*uint64(dim)+uint64(j)+1, 5)
	}
	vecAt := func(i int, seed uint64) vector.Vec {
		v := make(vector.Vec, dim)
		c := int(vector.Mix64(uint64(i)+1, seed) % centers)
		for j := range v {
			noise := unit(uint64(i)*uint64(dim)+uint64(j)+1, seed)
			v[j] = centerAt(c, j) + 0.15*noise
		}
		return v
	}

	fmt.Fprintf(out, "incremental ANN: IncFlat vs IncHNSW, dim=%d k=%d m=%d efc=%d ef=%d, %d queries\n\n",
		dim, k, params.M, params.EfConstruction, params.EfSearch, queries)
	fmt.Fprintf(out, "%9s  %12s  %12s  %12s  %12s  %9s  %9s\n",
		"entities", "flat build", "hnsw build", "flat p50", "hnsw p50", "speedup", "recall@10")

	var sizes []int
	for n := maxEntities; n >= 1000; n /= 4 {
		sizes = append([]int{n}, sizes...)
	}
	for _, n := range sizes {
		flat := knn.NewIncFlat(knn.L2Squared)
		begin := time.Now()
		for i := 0; i < n; i++ {
			if err := flat.Add(int64(i), vecAt(i, 11)); err != nil {
				return err
			}
		}
		flatBuild := time.Since(begin)

		hnsw := knn.NewIncHNSW(knn.L2Squared, params)
		begin = time.Now()
		for i := 0; i < n; i++ {
			if err := hnsw.Add(int64(i), vecAt(i, 11)); err != nil {
				return err
			}
		}
		hnswBuild := time.Since(begin)

		probes := make([]vector.Vec, queries)
		for q := range probes {
			probes[q] = vecAt(q, 77)
		}
		fs, hs := flat.Freeze(), hnsw.Freeze()

		flatP50, exact := queryP50(probes, func(q vector.Vec) []hit.Hit {
			return fs.Search(q, k)
		})
		hnswP50, approx := queryP50(probes, func(q vector.Vec) []hit.Hit {
			return hs.Search(q, k)
		})

		var recall, want float64
		for q := range probes {
			if len(exact[q]) == 0 {
				continue
			}
			cutoff := exact[q][len(exact[q])-1].Score
			found := 0
			for _, r := range approx[q] {
				if r.Score >= cutoff {
					found++
				}
			}
			recall += float64(min(found, len(exact[q])))
			want += float64(len(exact[q]))
		}
		recallAt := recall / want

		fmt.Fprintf(out, "%9d  %12s  %12s  %12s  %12s  %8.1fx  %9.4f\n",
			n, round(flatBuild), round(hnswBuild), round(flatP50), round(hnswP50),
			float64(flatP50)/float64(hnswP50), recallAt)
	}
	return nil
}

// queryP50 runs every probe through search, returning the median
// per-query latency and the answers.
func queryP50(probes []vector.Vec, search func(vector.Vec) []hit.Hit) (time.Duration, [][]hit.Hit) {
	lat := make([]time.Duration, len(probes))
	out := make([][]hit.Hit, len(probes))
	for i, q := range probes {
		begin := time.Now()
		out[i] = search(q)
		lat[i] = time.Since(begin)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return lat[len(lat)/2], out
}

func round(d time.Duration) time.Duration { return d.Round(time.Microsecond) }
