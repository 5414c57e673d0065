package knn

import (
	"math"
	"sort"

	"erfilter/internal/hit"
	"erfilter/internal/vector"
)

// Scoring selects how the Partitioned index scores candidates within the
// probed partitions, matching SCANN's two modes (Table V).
type Scoring int

// The SCANN scoring modes.
const (
	// BruteForce performs exact score computations within the probed
	// partitions.
	BruteForce Scoring = iota
	// AsymmetricHashing scores through a product-quantization lookup
	// table: faster, slightly less accurate.
	AsymmetricHashing
)

// String implements fmt.Stringer.
func (s Scoring) String() string {
	if s == AsymmetricHashing {
		return "AH"
	}
	return "BF"
}

// PartitionedConfig configures a Partitioned index.
type PartitionedConfig struct {
	// Metric is the similarity: dot product or squared Euclidean.
	Metric Metric
	// Scoring is brute-force or asymmetric hashing.
	Scoring Scoring
	// Partitions is the number of k-means partitions; 0 selects
	// sqrt(n) automatically.
	Partitions int
	// Probe is the number of closest partitions scored per query; 0
	// selects a fraction that keeps recall high (sqrt of partitions,
	// at least 4).
	Probe int
	// Subspaces is the number of product-quantization subspaces for
	// AsymmetricHashing; 0 selects dim/10.
	Subspaces int
	// Seed drives k-means seeding.
	Seed uint64
}

// Partitioned is the SCANN analog: the indexed vectors are split into
// disjoint k-means partitions at training time, and each query is answered
// by scoring only the most relevant partitions with brute-force or
// asymmetric-hashing computations.
type Partitioned struct {
	cfg     PartitionedConfig
	vecs    []vector.Vec
	parts   [][]int32 // vector ids per partition
	centers []vector.Vec
	pq      *productQuantizer
}

// NewPartitioned trains the partitioning (and the PQ codebooks for AH) and
// indexes the vectors.
func NewPartitioned(vecs []vector.Vec, cfg PartitionedConfig) *Partitioned {
	n := len(vecs)
	if n == 0 {
		return &Partitioned{cfg: cfg}
	}
	if cfg.Partitions <= 0 {
		cfg.Partitions = int(math.Max(1, math.Sqrt(float64(n))))
	}
	if cfg.Probe <= 0 {
		cfg.Probe = int(math.Max(4, math.Sqrt(float64(cfg.Partitions))))
	}
	if cfg.Probe > cfg.Partitions {
		cfg.Probe = cfg.Partitions
	}
	p := &Partitioned{cfg: cfg, vecs: vecs}
	km := kmeans(vecs, cfg.Partitions, 10, cfg.Seed+1)
	p.centers = km.centroids
	p.parts = make([][]int32, len(km.centroids))
	for i, c := range km.assign {
		p.parts[c] = append(p.parts[c], int32(i))
	}
	if cfg.Scoring == AsymmetricHashing {
		m := cfg.Subspaces
		if m <= 0 {
			m = len(vecs[0]) / 10
			if m < 1 {
				m = 1
			}
		}
		p.pq = newProductQuantizer(vecs, m, cfg.Seed+2)
	}
	return p
}

// Len returns the number of indexed vectors.
func (p *Partitioned) Len() int { return len(p.vecs) }

// Search implements Searcher: it ranks the partitions by centroid distance,
// scores the vectors of the closest Probe partitions and returns the top k.
func (p *Partitioned) Search(q vector.Vec, k int) []hit.Hit {
	if k <= 0 || len(p.centers) == 0 {
		return nil
	}
	type pd struct {
		part int
		dist float64
	}
	order := make([]pd, len(p.centers))
	for c := range p.centers {
		order[c] = pd{part: c, dist: p.cfg.Metric.Score(q, p.centers[c])}
	}
	sort.Slice(order, func(i, j int) bool { return order[i].dist < order[j].dist })

	var lut [][]float64
	if p.cfg.Scoring == AsymmetricHashing {
		lut = p.pq.lut(q, p.cfg.Metric)
	}
	top := hit.TopK{K: k}
	for _, o := range order[:p.cfg.Probe] {
		for _, id := range p.parts[o.part] {
			var score float64
			if lut != nil {
				score = p.pq.score(lut, id)
			} else {
				score = p.cfg.Metric.Score(q, p.vecs[id])
			}
			top.Offer(hit.Hit{ID: int64(id), Score: -score})
		}
	}
	return top.Sorted()
}
