package core

import (
	"fmt"
	"slices"

	"erfilter/internal/deepblocker"
	"erfilter/internal/hit"
	"erfilter/internal/knn"
	"erfilter/internal/lsh"
	"erfilter/internal/vector"
)

// MinHashFilter is MinHash LSH over character k-shingles (Table V). It is
// the only dense NN method with a syntactic scope (Table I).
type MinHashFilter struct {
	Clean       bool
	Bands, Rows int
	// K is the shingle size.
	K int
}

// Name implements Filter.
func (f *MinHashFilter) Name() string {
	return fmt.Sprintf("mh-lsh[cl=%v,bands=%d,rows=%d,k=%d]", f.Clean, f.Bands, f.Rows, f.K)
}

// Run implements Filter.
func (f *MinHashFilter) Run(in *Input) (*Outcome, error) {
	mh := &lsh.MinHash{Bands: f.Bands, Rows: f.Rows, K: f.K, Seed: in.Seed}
	return join(false,
		func() (t1, t2 []string) { return in.Texts(f.Clean) },
		mh.Build,
		bucketMates((*lsh.MinHashIndex).Query),
	), nil
}

// bucketMates makes probers of an LSH index's Query, which reports the
// entities sharing a bucket with the query one id at a time and has no
// score to give them. Each prober owns its scratch and its answer buffer,
// which it reuses: join is done with one answer before it asks for the
// next.
func bucketMates[I, Q any](query func(I, Q, *lsh.Scratch, func(e int32))) func() func(I, Q) []hit.Hit {
	return func() func(I, Q) []hit.Hit {
		var sc lsh.Scratch
		var buf []hit.Hit
		return func(idx I, q Q) []hit.Hit {
			buf = buf[:0]
			query(idx, q, &sc, func(e int32) { buf = append(buf, hit.Hit{ID: int64(e)}) })
			return buf
		}
	}
}

// HyperplaneFilter is Hyperplane LSH over tuple embeddings (Table V).
type HyperplaneFilter struct {
	Clean          bool
	Tables, Hashes int
	Probes         int
}

// Name implements Filter.
func (f *HyperplaneFilter) Name() string {
	return fmt.Sprintf("hp-lsh[cl=%v,tables=%d,hashes=%d,probes=%d]", f.Clean, f.Tables, f.Hashes, f.Probes)
}

// Run implements Filter.
func (f *HyperplaneFilter) Run(in *Input) (*Outcome, error) {
	hp := &lsh.Hyperplane{Tables: f.Tables, Hashes: f.Hashes, Probes: f.Probes, Seed: in.Seed}
	return join(false,
		func() (v1, v2 []vector.Vec) { return in.Embeddings(f.Clean) },
		hp.Build,
		bucketMates((*lsh.HyperplaneIndex).Query),
	), nil
}

// CrossPolytopeFilter is Cross-Polytope LSH over tuple embeddings.
type CrossPolytopeFilter struct {
	Clean          bool
	Tables, Hashes int
	LastCPDim      int
	Probes         int
}

// Name implements Filter.
func (f *CrossPolytopeFilter) Name() string {
	return fmt.Sprintf("cp-lsh[cl=%v,tables=%d,hashes=%d,cpdim=%d,probes=%d]",
		f.Clean, f.Tables, f.Hashes, f.LastCPDim, f.Probes)
}

// Run implements Filter.
func (f *CrossPolytopeFilter) Run(in *Input) (*Outcome, error) {
	cp := &lsh.CrossPolytope{Tables: f.Tables, Hashes: f.Hashes, LastCPDim: f.LastCPDim, Probes: f.Probes, Seed: in.Seed}
	return join(false,
		func() (v1, v2 []vector.Vec) { return in.Embeddings(f.Clean) },
		cp.Build,
		bucketMates((*lsh.CrossPolytopeIndex).Query),
	), nil
}

// FlatKNNFilter is the FAISS analog: exact (Flat-index) kNN search over
// normalized tuple embeddings with Euclidean distance, the configuration
// the paper settles on for FAISS.
type FlatKNNFilter struct {
	Clean   bool
	K       int
	Reverse bool
}

// Name implements Filter.
func (f *FlatKNNFilter) Name() string {
	return fmt.Sprintf("faiss-flat[cl=%v,k=%d,rvs=%v]", f.Clean, f.K, f.Reverse)
}

// Run implements Filter.
func (f *FlatKNNFilter) Run(in *Input) (*Outcome, error) {
	return join(f.Reverse,
		func() (v1, v2 []vector.Vec) { return in.Embeddings(f.Clean) },
		flatIndex,
		pure(func(idx *knn.Flat, q vector.Vec) []hit.Hit { return idx.Search(q, f.K) }),
	), nil
}

// flatIndex is the index step of FAISS and DeepBlocker: exact search
// under Euclidean distance.
func flatIndex(indexed []vector.Vec) *knn.Flat { return knn.NewFlat(indexed, knn.L2Squared) }

// PartitionedKNNFilter is the SCANN analog: k-means-partitioned kNN search
// with brute-force or asymmetric-hashing scoring.
type PartitionedKNNFilter struct {
	Clean   bool
	K       int
	Reverse bool
	Scoring knn.Scoring
	Metric  knn.Metric
}

// Name implements Filter.
func (f *PartitionedKNNFilter) Name() string {
	return fmt.Sprintf("scann[cl=%v,k=%d,rvs=%v,%s,%s]", f.Clean, f.K, f.Reverse, f.Scoring, f.Metric)
}

// Run implements Filter.
func (f *PartitionedKNNFilter) Run(in *Input) (*Outcome, error) {
	return join(f.Reverse,
		func() (v1, v2 []vector.Vec) { return in.Embeddings(f.Clean) },
		func(indexed []vector.Vec) *knn.Partitioned {
			return knn.NewPartitioned(indexed, knn.PartitionedConfig{Metric: f.Metric, Scoring: f.Scoring, Seed: in.Seed})
		},
		pure(func(idx *knn.Partitioned, q vector.Vec) []hit.Hit { return idx.Search(q, f.K) }),
	), nil
}

// DeepBlockerFilter is the DeepBlocker analog: the Autoencoder
// tuple-embedding module trained self-supervised on the (substituted)
// fastText embeddings, with exact kNN for indexing and querying. Training
// happens in the preprocessing phase, which dominates the run-time, as the
// paper observes.
type DeepBlockerFilter struct {
	Clean   bool
	K       int
	Reverse bool
	// Hidden and Epochs override the autoencoder defaults (0 = default).
	Hidden, Epochs int
}

// Name implements Filter.
func (f *DeepBlockerFilter) Name() string {
	return fmt.Sprintf("deepblocker[cl=%v,k=%d,rvs=%v]", f.Clean, f.K, f.Reverse)
}

// Run implements Filter.
func (f *DeepBlockerFilter) Run(in *Input) (*Outcome, error) {
	return join(f.Reverse,
		func() (e1, e2 []vector.Vec) { return f.Encode(in) },
		flatIndex,
		pure(func(idx *knn.Flat, q vector.Vec) []hit.Hit { return idx.Search(q, f.K) }),
	), nil
}

// Encode is the method's representation step: it trains the autoencoder
// on the tuple embeddings of both collections (self-supervised, under
// in.Seed) and returns their encodings. K and Reverse play no part, which
// is what lets the tuner train once per (CL, seed) and sweep both.
func (f *DeepBlockerFilter) Encode(in *Input) (e1, e2 []vector.Vec) {
	v1, v2 := in.Embeddings(f.Clean)
	ae := deepblocker.Train(slices.Concat(v1, v2), deepblocker.TrainConfig{
		Hidden: f.Hidden,
		Epochs: f.Epochs,
		Seed:   in.Seed,
	})
	return ae.EncodeAll(v1), ae.EncodeAll(v2)
}
