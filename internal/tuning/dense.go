package tuning

import (
	"fmt"

	"erfilter/internal/core"
	"erfilter/internal/hit"
	"erfilter/internal/knn"
	"erfilter/internal/parallel"
	"erfilter/internal/vector"
)

// DenseSpace is the configuration space of the dense NN methods (Table V).
type DenseSpace struct {
	CleanOptions []bool
	// Repetitions averages stochastic methods over this many seeds
	// (the paper uses 10).
	Repetitions int

	// MinHash grid.
	MHBandRows [][2]int
	MHShingles []int

	// Hyperplane / Cross-Polytope grids.
	HPTables, HPHashes []int
	CPTables, CPHashes []int
	CPLastDims         []int
	// ProbeLadder is the auto-escalation sequence of multi-probe counts
	// used to reach the target recall (the paper sets probes
	// automatically the same way).
	ProbeLadder []int

	// MaxK bounds the cardinality threshold of FAISS/SCANN/DeepBlocker.
	MaxK int
	// AEHidden/AEEpochs bound the DeepBlocker autoencoder (0 = defaults).
	AEHidden, AEEpochs int

	// Workers bounds the grid-search worker pool (<=0 = NumCPU,
	// 1 = sequential). Results are identical at any worker count.
	Workers int
}

// DefaultDenseSpace returns the Table V grid; full=false thins each axis.
func DefaultDenseSpace(full bool) DenseSpace {
	s := DenseSpace{
		CleanOptions: []bool{false, true},
		Repetitions:  3,
		ProbeLadder:  []int{1, 2, 4, 8, 16, 32, 64, 128},
		MaxK:         1000,
	}
	if full {
		s.Repetitions = 10
		s.MaxK = 5000
		for _, product := range []int{128, 256, 512} {
			for rows := 2; rows <= product/2; rows *= 2 {
				s.MHBandRows = append(s.MHBandRows, [2]int{product / rows, rows})
			}
		}
		s.MHShingles = []int{2, 3, 4, 5}
		s.HPTables = []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}
		s.HPHashes = []int{4, 8, 12, 16, 20}
		s.CPTables = s.HPTables
		s.CPHashes = []int{1, 2, 3}
		s.CPLastDims = []int{1, 4, 16, 64, 256, 512}
	} else {
		s.MHBandRows = [][2]int{{16, 8}, {32, 8}, {32, 16}, {64, 8}, {16, 16}, {64, 4}, {128, 2}, {128, 4}}
		s.MHShingles = []int{2, 3, 5}
		s.HPTables = []int{4, 8, 16}
		s.HPHashes = []int{6, 10, 14}
		s.CPTables = []int{4, 8, 16}
		s.CPHashes = []int{1, 2}
		s.CPLastDims = []int{16, 64, 256}
		s.MaxK = 300
	}
	return s
}

// averageMetrics evaluates a stochastic filter over the repetitions, one
// seed each, and returns the mean PC/PQ/candidate count, as the paper
// does for stochastic methods.
func averageMetrics(in *core.Input, f core.Filter, reps int) (core.Metrics, error) {
	ms := make([]core.Metrics, max(reps, 1))
	for r := range ms {
		out, err := f.Run(in.WithSeed(in.Seed + uint64(r)*0x9e37))
		if err != nil {
			return core.Metrics{}, err
		}
		ms[r] = core.Evaluate(out.Pairs, in.Task.Truth)
	}
	return meanMetrics(ms), nil
}

// meanMetrics averages the repetitions of one configuration, summing in
// repetition order so the result does not depend on the worker count.
func meanMetrics(ms []core.Metrics) core.Metrics {
	var sum core.Metrics
	for _, m := range ms {
		sum.PC += m.PC
		sum.PQ += m.PQ
		sum.Candidates += m.Candidates
		sum.Matches += m.Matches
	}
	n := float64(len(ms))
	return core.Metrics{
		PC: sum.PC / n, PQ: sum.PQ / n,
		Candidates: sum.Candidates / len(ms), Matches: sum.Matches / len(ms),
	}
}

// tuneDenseBranches runs one tracker-feeding closure per independent grid
// branch on the worker pool and reduces the branch trackers in canonical
// order. Unlike the sparse helper, branch closures may fail (filters
// return errors); the error surfaced is the lowest-index one, matching a
// sequential scan.
func tuneDenseBranches(workers, n int, method string, target float64, fn func(tr *tracker, bi int) error) (*Result, error) {
	trackers := make([]*tracker, n)
	err := parallel.ForEach(workers, n, func(bi int) error {
		tr := newTracker(method, target)
		if err := fn(tr, bi); err != nil {
			return err
		}
		trackers[bi] = tr
		return nil
	})
	if err != nil {
		return nil, err
	}
	return mergeTrackers(method, target, trackers), nil
}

// TuneMinHash grid-searches MinHash LSH under Problem 1. Every
// (CL, bands×rows, k) cell is independent and evaluated concurrently.
func TuneMinHash(in *core.Input, space DenseSpace, target float64) (*Result, error) {
	type branch struct {
		clean bool
		br    [2]int
		k     int
	}
	var branches []branch
	for _, clean := range space.CleanOptions {
		for _, br := range space.MHBandRows {
			for _, k := range space.MHShingles {
				branches = append(branches, branch{clean, br, k})
			}
		}
	}
	return tuneDenseBranches(space.Workers, len(branches), "MH-LSH", target, func(tr *tracker, bi int) error {
		b := branches[bi]
		f := &core.MinHashFilter{Clean: b.clean, Bands: b.br[0], Rows: b.br[1], K: b.k}
		m, err := averageMetrics(in, f, space.Repetitions)
		if err != nil {
			return err
		}
		tr.offer(m, f, map[string]string{
			"CL": fmtBool(b.clean), "#bands": fmt.Sprintf("%d", b.br[0]),
			"#rows": fmt.Sprintf("%d", b.br[1]), "k": fmt.Sprintf("%d", b.k),
		})
		return nil
	})
}

// TuneHyperplane grid-searches Hyperplane LSH; for every (CL, tables,
// hashes) cell the probe count escalates along the ladder until the target
// recall is reached, mirroring the paper's automatic multi-probe setting.
// The (CL, tables, hashes) branches fan out; each probe ladder stays
// sequential because its termination depends on the previous rung.
func TuneHyperplane(in *core.Input, space DenseSpace, target float64) (*Result, error) {
	type branch struct {
		clean          bool
		tables, hashes int
	}
	var branches []branch
	for _, clean := range space.CleanOptions {
		for _, tables := range space.HPTables {
			for _, hashes := range space.HPHashes {
				branches = append(branches, branch{clean, tables, hashes})
			}
		}
	}
	return tuneDenseBranches(space.Workers, len(branches), "HP-LSH", target, func(tr *tracker, bi int) error {
		b := branches[bi]
		for _, probes := range space.ProbeLadder {
			f := &core.HyperplaneFilter{Clean: b.clean, Tables: b.tables, Hashes: b.hashes, Probes: probes}
			m, err := averageMetrics(in, f, space.Repetitions)
			if err != nil {
				return err
			}
			tr.offer(m, f, map[string]string{
				"CL": fmtBool(b.clean), "#tables": fmt.Sprintf("%d", b.tables),
				"#hashes": fmt.Sprintf("%d", b.hashes), "#probes": fmt.Sprintf("%d", probes),
			})
			if m.PC >= target {
				break
			}
		}
		return nil
	})
}

// TuneCrossPolytope grid-searches Cross-Polytope LSH with the same
// probe-escalation rule; (CL, tables, hashes, last CP dim) branches fan
// out.
func TuneCrossPolytope(in *core.Input, space DenseSpace, target float64) (*Result, error) {
	type branch struct {
		clean                   bool
		tables, hashes, lastDim int
	}
	var branches []branch
	for _, clean := range space.CleanOptions {
		for _, tables := range space.CPTables {
			for _, hashes := range space.CPHashes {
				for _, lastDim := range space.CPLastDims {
					branches = append(branches, branch{clean, tables, hashes, lastDim})
				}
			}
		}
	}
	return tuneDenseBranches(space.Workers, len(branches), "CP-LSH", target, func(tr *tracker, bi int) error {
		b := branches[bi]
		for _, probes := range space.ProbeLadder {
			f := &core.CrossPolytopeFilter{Clean: b.clean, Tables: b.tables, Hashes: b.hashes, LastCPDim: b.lastDim, Probes: probes}
			m, err := averageMetrics(in, f, space.Repetitions)
			if err != nil {
				return err
			}
			tr.offer(m, f, map[string]string{
				"CL": fmtBool(b.clean), "#tables": fmt.Sprintf("%d", b.tables),
				"#hashes": fmt.Sprintf("%d", b.hashes),
				"cp dim":  fmt.Sprintf("%d", b.lastDim),
				"#probes": fmt.Sprintf("%d", probes),
			})
			if m.PC >= target {
				break
			}
		}
		return nil
	})
}

// sweepDense is the K axis of a dense cardinality method in one
// direction: index one side of the represented collections, search it
// with every vector of the other at the grid's largest K, and read the
// metrics of every K off those answers.
func sweepDense(in *core.Input, reverse bool, e1, e2 []vector.Vec, maxK int, build func(indexed []vector.Vec) knn.Searcher) ([]int, []core.Metrics) {
	indexed, queries := core.Sides(reverse, e1, e2)
	idx := build(indexed)
	grid := kGrid(min(maxK, len(indexed)))
	return grid, sweepK(hit.Top, grid, reverse, in.Task.Truth, len(queries), func(q, k int) []hit.Hit {
		return idx.Search(queries[q], k)
	})
}

// flatL2 is the index of the FAISS and DeepBlocker analogs.
func flatL2(indexed []vector.Vec) knn.Searcher { return knn.NewFlat(indexed, knn.L2Squared) }

// directions is the RVS axis.
var directions = []bool{false, true}

// TuneFlatKNN grid-searches the FAISS analog (CL × RVS × K); the four
// (CL, RVS) branches fan out, the ascending K sweep early-terminates
// inside each.
func TuneFlatKNN(in *core.Input, space DenseSpace, target float64) (*Result, error) {
	type branch struct{ clean, reverse bool }
	var branches []branch
	for _, clean := range space.CleanOptions {
		for _, reverse := range directions {
			branches = append(branches, branch{clean, reverse})
		}
	}
	return tuneDenseBranches(space.Workers, len(branches), "FAISS", target, func(tr *tracker, bi int) error {
		b := branches[bi]
		v1, v2 := in.Embeddings(b.clean)
		grid, ms := sweepDense(in, b.reverse, v1, v2, space.MaxK, flatL2)
		tr.offerAscending(grid, ms, func(k int) (core.Filter, map[string]string) {
			return &core.FlatKNNFilter{Clean: b.clean, K: k, Reverse: b.reverse}, map[string]string{
				"CL": fmtBool(b.clean), "RVS": fmtBool(b.reverse), "K": fmt.Sprintf("%d", k),
			}
		})
		return nil
	})
}

// TunePartitioned grid-searches the SCANN analog
// (CL × RVS × {BF,AH} × {DP,L2²} × K) over 16 independent branches.
func TunePartitioned(in *core.Input, space DenseSpace, target float64) (*Result, error) {
	type branch struct {
		clean, reverse bool
		scoring        knn.Scoring
		metric         knn.Metric
	}
	var branches []branch
	for _, clean := range space.CleanOptions {
		for _, reverse := range directions {
			for _, scoring := range []knn.Scoring{knn.BruteForce, knn.AsymmetricHashing} {
				for _, metric := range []knn.Metric{knn.DotProduct, knn.L2Squared} {
					branches = append(branches, branch{clean, reverse, scoring, metric})
				}
			}
		}
	}
	return tuneDenseBranches(space.Workers, len(branches), "SCANN", target, func(tr *tracker, bi int) error {
		b := branches[bi]
		v1, v2 := in.Embeddings(b.clean)
		grid, ms := sweepDense(in, b.reverse, v1, v2, space.MaxK, func(indexed []vector.Vec) knn.Searcher {
			return knn.NewPartitioned(indexed, knn.PartitionedConfig{Metric: b.metric, Scoring: b.scoring, Seed: in.Seed})
		})
		tr.offerAscending(grid, ms, func(k int) (core.Filter, map[string]string) {
			return &core.PartitionedKNNFilter{Clean: b.clean, K: k, Reverse: b.reverse, Scoring: b.scoring, Metric: b.metric},
				map[string]string{
					"CL": fmtBool(b.clean), "RVS": fmtBool(b.reverse),
					"index": b.scoring.String(), "similarity": b.metric.String(),
					"K": fmt.Sprintf("%d", k),
				}
		})
		return nil
	})
}

// TuneDeepBlocker grid-searches the DeepBlocker analog (CL × RVS × K),
// averaging over the repetitions because training is stochastic. The
// autoencoder is trained once per (CL, seed) and shared across the RVS and
// K axes; the (CL, seed) training branches fan out, each sweeps the whole
// K grid in both directions, and the repetitions of a (CL, RVS, K) cell
// are averaged in repetition order, so the floating-point accumulation
// matches the sequential pass bit for bit. Only the averaged sweep stops
// at the first K reaching the target: a repetition that stopped on its
// own recall would leave the cells beyond it short of a contribution.
func TuneDeepBlocker(in *core.Input, space DenseSpace, target float64) (*Result, error) {
	reps := max(space.Repetitions, 1)
	type branch struct {
		clean bool
		rep   int
	}
	var branches []branch
	for _, clean := range space.CleanOptions {
		for r := 0; r < reps; r++ {
			branches = append(branches, branch{clean, r})
		}
	}
	// Each branch trains one autoencoder and sweeps both directions.
	type swept struct {
		grid []int
		ms   []core.Metrics
	}
	runs, err := parallel.Map(space.Workers, len(branches), func(bi int) (out [2]swept, err error) {
		b := branches[bi]
		f := &core.DeepBlockerFilter{Clean: b.clean, Hidden: space.AEHidden, Epochs: space.AEEpochs}
		e1, e2 := f.Encode(in.WithSeed(in.Seed + uint64(b.rep)*0x51ed))
		for d, reverse := range directions {
			out[d].grid, out[d].ms = sweepDense(in, reverse, e1, e2, space.MaxK, flatL2)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}

	tr := newTracker("DeepBlocker", target)
	cell := make([]core.Metrics, reps)
	for ci, clean := range space.CleanOptions {
		for d, reverse := range directions {
			grid := runs[ci*reps][d].grid // the same in every repetition
			mean := make([]core.Metrics, len(grid))
			for i := range mean {
				for r := range cell {
					cell[r] = runs[ci*reps+r][d].ms[i]
				}
				mean[i] = meanMetrics(cell)
			}
			tr.offerAscending(grid, mean, func(k int) (core.Filter, map[string]string) {
				return &core.DeepBlockerFilter{Clean: clean, K: k, Reverse: reverse, Hidden: space.AEHidden, Epochs: space.AEEpochs},
					map[string]string{"CL": fmtBool(clean), "RVS": fmtBool(reverse), "K": fmt.Sprintf("%d", k)}
			})
		}
	}
	return tr.result(), nil
}
