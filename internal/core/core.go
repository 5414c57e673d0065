// Package core assembles the substrates into the 18 filtering methods the
// paper evaluates — five blocking workflows, two sparse NN methods, six
// dense NN methods and the four default-parameter baselines — behind a
// single Filter interface, and provides the Pair Completeness / Pairs
// Quality evaluation of Section III.
package core

import (
	"sync"
	"time"

	"erfilter/internal/entity"
	"erfilter/internal/parallel"
	"erfilter/internal/text"
	"erfilter/internal/vector"
)

// Timing is the per-phase run-time breakdown of one filtering run.
// Blocking workflows fill Build/Purge/Filter/Clean (Figures 7–9, left
// columns); NN methods fill Preprocess/Index/Query (middle and right
// columns). Total is always the end-to-end run-time RT.
type Timing struct {
	Total time.Duration

	// Blocking workflow phases (t_b, t_p, t_f, t_c).
	Build, Purge, Filter, Clean time.Duration

	// NN method phases (t_r, t_i, t_q).
	Preprocess, Index, Query time.Duration
}

// Outcome is the result of one filtering run: the candidate pairs plus the
// phase timings.
type Outcome struct {
	Pairs  []entity.Pair
	Timing Timing
}

// Filter is one configured filtering method.
type Filter interface {
	// Name identifies the method and its configuration.
	Name() string
	// Run produces the candidate pairs of the input task.
	Run(in *Input) (*Outcome, error)
}

// Input bundles a task under one schema setting, with lazily cached
// cleaned texts and embeddings so configuration sweeps do not recompute
// them for every candidate configuration. Use Fresh for timing
// measurements that must include the preprocessing cost.
//
// The caches live behind a mutex so that concurrent grid-search workers
// may share one Input; WithSeed derives per-repetition inputs that share
// the caches without mutating the original.
type Input struct {
	Task    *entity.Task
	Setting entity.SchemaSetting
	V1, V2  *entity.View

	// Seed drives every stochastic component of a run (LSH, DeepBlocker).
	Seed uint64

	embDim int
	caches *inputCaches
}

// inputCaches holds the lazily computed derived data of an Input. It is
// shared (by pointer) between an Input and its WithSeed copies, and all
// access is serialized by mu: the first caller computes, everyone else
// reads the memoized slices, which are treated as immutable thereafter.
type inputCaches struct {
	mu                 sync.Mutex
	cleaned1, cleaned2 []string
	words              vector.Table // every filler of this input's embeddings shares it
	embCache           map[bool][2][]vector.Vec
}

// NewInput materializes the schema views of the task.
func NewInput(task *entity.Task, setting entity.SchemaSetting) *Input {
	v1, v2 := entity.TaskViews(task, setting)
	return &Input{Task: task, Setting: setting, V1: v1, V2: v2, embDim: vector.Dim, caches: &inputCaches{}}
}

// NewInputDim is NewInput with a custom embedding dimensionality, used by
// tests to keep dense methods fast.
func NewInputDim(task *entity.Task, setting entity.SchemaSetting, dim int) *Input {
	in := NewInput(task, setting)
	in.embDim = dim
	return in
}

// Fresh returns an input over the same task and setting with all caches
// dropped, so a subsequent run measures true end-to-end time.
func (in *Input) Fresh() *Input {
	out := NewInputDim(in.Task, in.Setting, in.embDim)
	out.Seed = in.Seed
	return out
}

// WithSeed returns a copy of the input with the given seed. The copy
// shares the task, views and derived-data caches with the receiver, so
// stochastic repetitions reuse cleaned texts and embeddings; unlike
// mutating Seed in place, it is safe while other goroutines use the
// original.
func (in *Input) WithSeed(seed uint64) *Input {
	out := *in
	out.Seed = seed
	return &out
}

// Texts returns the per-entity texts of both collections, cleaned
// (stop-word removal + stemming) or raw. Safe for concurrent use.
func (in *Input) Texts(clean bool) (t1, t2 []string) {
	if !clean {
		return in.V1.Texts(), in.V2.Texts()
	}
	c := in.caches
	c.mu.Lock()
	defer c.mu.Unlock()
	return in.cleanedLocked()
}

// cleanedLocked returns the cleaned texts, computing them on first use.
// Callers must hold caches.mu.
func (in *Input) cleanedLocked() (t1, t2 []string) {
	c := in.caches
	if c.cleaned1 == nil {
		c.cleaned1 = text.CleanAll(in.V1.Texts())
		c.cleaned2 = text.CleanAll(in.V2.Texts())
	}
	return c.cleaned1, c.cleaned2
}

// Embeddings returns the tuple embeddings of both collections over raw or
// cleaned texts, cached per cleanliness. Safe for concurrent use.
//
// Contiguous ranges of texts are embedded on GOMAXPROCS workers, each
// through a filling embedder of its own over the input's one word-vector
// table: a vector is a pure function of its text, so which worker embeds
// a word first changes nothing but who pays for it.
func (in *Input) Embeddings(clean bool) (v1, v2 []vector.Vec) {
	c := in.caches
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.embCache == nil {
		c.embCache = map[bool][2][]vector.Vec{}
	}
	if cached, ok := c.embCache[clean]; ok {
		return cached[0], cached[1]
	}
	t1, t2 := in.V1.Texts(), in.V2.Texts()
	if clean {
		t1, t2 = in.cleanedLocked()
	}
	e1 := in.embedAll(t1)
	e2 := in.embedAll(t2)
	c.embCache[clean] = [2][]vector.Vec{e1, e2}
	return e1, e2
}

// embedAll embeds every text on the workers. Callers must hold caches.mu.
func (in *Input) embedAll(texts []string) []vector.Vec {
	out := make([]vector.Vec, len(texts))
	parallel.Ranges(len(texts), func(lo, hi int) struct{} {
		emb := in.caches.words.Filler(in.embDim)
		for i := lo; i < hi; i++ {
			out[i] = emb.Text(texts[i])
		}
		return struct{}{}
	})
	return out
}

// Metrics are the effectiveness measures of Section III computed over a
// candidate set.
type Metrics struct {
	// PC is Pair Completeness (recall): detected duplicates over all
	// groundtruth duplicates.
	PC float64
	// PQ is Pairs Quality (precision): detected duplicates over all
	// candidates.
	PQ float64
	// Candidates is the number of distinct candidate pairs |C| (Table XI).
	Candidates int
	// Matches is the number of groundtruth duplicates among them.
	Matches int
}

// Evaluate computes PC and PQ of a candidate set against the groundtruth.
// Duplicate pairs in the input are counted once.
func Evaluate(pairs []entity.Pair, truth *entity.GroundTruth) Metrics {
	seen := make(map[entity.Pair]struct{}, len(pairs))
	matches := 0
	for _, p := range pairs {
		if _, ok := seen[p]; ok {
			continue
		}
		seen[p] = struct{}{}
		if truth.Contains(p) {
			matches++
		}
	}
	m := Metrics{Candidates: len(seen), Matches: matches}
	if truth.Size() > 0 {
		m.PC = float64(matches) / float64(truth.Size())
	}
	if len(seen) > 0 {
		m.PQ = float64(matches) / float64(len(seen))
	}
	return m
}

// stopwatch measures consecutive phases.
type stopwatch struct {
	start time.Time
	last  time.Time
}

func newStopwatch() *stopwatch {
	now := time.Now()
	return &stopwatch{start: now, last: now}
}

// lap returns the time since the previous lap (or start).
func (s *stopwatch) lap() time.Duration {
	now := time.Now()
	d := now.Sub(s.last)
	s.last = now
	return d
}

// total returns the time since the stopwatch was created.
func (s *stopwatch) total() time.Duration { return time.Since(s.start) }
