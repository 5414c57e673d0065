package tuning

import (
	"testing"

	"erfilter/internal/blocking"
	"erfilter/internal/core"
	"erfilter/internal/datagen"
	"erfilter/internal/entity"
	"erfilter/internal/metablocking"
)

func testInput(t *testing.T) *core.Input {
	t.Helper()
	task := datagen.Generate(datagen.QuickSpec(50, 120, 35, 77))
	in := core.NewInputDim(task, entity.SchemaAgnostic, 48)
	in.Seed = 5
	return in
}

func TestTrackerProblem1Semantics(t *testing.T) {
	tr := newTracker("x", 0.9)
	// Low recall, high precision: becomes the fallback.
	tr.offer(core.Metrics{PC: 0.5, PQ: 0.9}, nil, map[string]string{"a": "1"})
	// Satisfying recall, low precision: supersedes the fallback.
	tr.offer(core.Metrics{PC: 0.92, PQ: 0.1}, nil, map[string]string{"a": "2"})
	// Satisfying recall, better precision: wins.
	tr.offer(core.Metrics{PC: 0.91, PQ: 0.3}, nil, map[string]string{"a": "3"})
	// Higher recall but worse precision: loses under Problem 1.
	tr.offer(core.Metrics{PC: 0.99, PQ: 0.2}, nil, map[string]string{"a": "4"})
	r := tr.result()
	if !r.Satisfied {
		t.Fatal("target should be satisfied")
	}
	if r.Config["a"] != "3" {
		t.Fatalf("winner = %v", r.Config)
	}
	if r.Evaluated != 4 {
		t.Fatalf("evaluated = %d", r.Evaluated)
	}
}

func TestTrackerFallbackHighestRecall(t *testing.T) {
	tr := newTracker("x", 0.9)
	tr.offer(core.Metrics{PC: 0.4, PQ: 0.9}, nil, map[string]string{"a": "1"})
	tr.offer(core.Metrics{PC: 0.7, PQ: 0.1}, nil, map[string]string{"a": "2"})
	r := tr.result()
	if r.Satisfied {
		t.Fatal("target cannot be satisfied")
	}
	if r.Config["a"] != "2" {
		t.Fatalf("fallback should pick highest recall: %v", r.Config)
	}
}

// TestTrackerComparatorQuadrants walks Problem 1's one comparator over
// the four (incumbent satisfied × challenger satisfied) quadrants: offer
// reports whether the challenger is the best so far, and every tuner —
// the step-by-step one included — decides with it.
func TestTrackerComparatorQuadrants(t *testing.T) {
	for _, c := range []struct {
		name                  string
		incumbent, challenger core.Metrics
		better                bool
	}{
		{"unsatisfied -> satisfied", core.Metrics{PC: 0.8, PQ: 0.9}, core.Metrics{PC: 0.9, PQ: 0.1}, true},
		{"satisfied -> unsatisfied", core.Metrics{PC: 0.9, PQ: 0.1}, core.Metrics{PC: 0.89, PQ: 0.9}, false},
		{"both satisfied, higher PQ", core.Metrics{PC: 0.99, PQ: 0.2}, core.Metrics{PC: 0.9, PQ: 0.3}, true},
		{"both satisfied, lower PQ", core.Metrics{PC: 0.9, PQ: 0.3}, core.Metrics{PC: 0.99, PQ: 0.2}, false},
		{"both satisfied, equal PQ", core.Metrics{PC: 0.9, PQ: 0.3}, core.Metrics{PC: 0.99, PQ: 0.3}, false},
		{"both unsatisfied, higher PC", core.Metrics{PC: 0.5, PQ: 0.9}, core.Metrics{PC: 0.6, PQ: 0.1}, true},
		{"both unsatisfied, lower PC", core.Metrics{PC: 0.6, PQ: 0.1}, core.Metrics{PC: 0.5, PQ: 0.9}, false},
		{"both unsatisfied, equal PC, higher PQ", core.Metrics{PC: 0.6, PQ: 0.1}, core.Metrics{PC: 0.6, PQ: 0.2}, true},
		{"both unsatisfied, equal PC, lower PQ", core.Metrics{PC: 0.6, PQ: 0.2}, core.Metrics{PC: 0.6, PQ: 0.1}, false},
		{"both unsatisfied, equal", core.Metrics{PC: 0.6, PQ: 0.2}, core.Metrics{PC: 0.6, PQ: 0.2}, false},
	} {
		tr := newTracker("x", 0.9)
		if !tr.offer(c.incumbent, nil, nil) {
			t.Errorf("%s: the first configuration offered must be the best so far", c.name)
		}
		if got := tr.offer(c.challenger, nil, nil); got != c.better {
			t.Errorf("%s: challenger better = %v, want %v", c.name, got, c.better)
		}
		want := c.incumbent
		if c.better {
			want = c.challenger
		}
		if r := tr.result(); r.Metrics != want || r.Satisfied != (want.PC >= 0.9) || r.Evaluated != 2 {
			t.Errorf("%s: result %+v, want metrics %+v", c.name, r, want)
		}
	}
}

// TestStepwiseBreaksRecallTiesByPrecision: two builders that both find
// every duplicate under a τ nothing can reach are equal in recall, and
// the step-by-step tuner must then freeze the more precise one, as the
// holistic tuner's tracker would, not the one listed first.
func TestStepwiseBreaksRecallTiesByPrecision(t *testing.T) {
	task := datagen.Generate(datagen.QuickSpec(30, 30, 30, 9))
	for i := range task.E2.Profiles {
		task.E2.Profiles[i] = task.E1.Profiles[i] // exact copies: every builder has PC 1
	}
	pairs := make([]entity.Pair, task.E1.Len())
	for i := range pairs {
		pairs[i] = entity.Pair{Left: int32(i), Right: int32(i)}
	}
	task.Truth = entity.NewGroundTruth(pairs)
	in := core.NewInput(task, entity.SchemaAgnostic)

	space := BlockingSpace{
		Label:        "QBW",
		Builders:     []blocking.Builder{blocking.QGrams{Q: 2}, blocking.Standard{}},
		FilterRatios: []float64{1},
		Cleanings:    []core.ComparisonCleaning{{Propagation: true}},
	}
	const unreachable = 1.5
	r := TuneBlockingStepwise(in, space, unreachable)
	loose := core.Evaluate(metablocking.Propagate(blocking.Build(in.V1, in.V2, space.Builders[0])), task.Truth)
	tight := core.Evaluate(metablocking.Propagate(blocking.Build(in.V1, in.V2, space.Builders[1])), task.Truth)
	if loose.PC != tight.PC || loose.PQ >= tight.PQ {
		t.Fatalf("fixture: want equal PC and a more precise second builder, got %+v then %+v", loose, tight)
	}
	if r.Config["builder"] != space.Builders[1].Name() {
		t.Fatalf("stepwise froze %s (%+v); at equal PC the more precise builder is %s (%+v)",
			r.Config["builder"], r.Metrics, space.Builders[1].Name(), tight)
	}
}

func TestTuneBlockingReachesTarget(t *testing.T) {
	in := testInput(t)
	for _, space := range BlockingSpaces(false)[:2] { // SBW, QBW
		r := TuneBlocking(in, space, DefaultTarget)
		if !r.Satisfied {
			t.Errorf("%s did not reach PC >= 0.9 (best PC %.2f)", space.Label, r.Metrics.PC)
			continue
		}
		if r.Metrics.PQ <= 0 {
			t.Errorf("%s: zero precision", space.Label)
		}
		if r.Filter == nil {
			t.Errorf("%s: no filter returned", space.Label)
			continue
		}
		// The winning filter must reproduce the tuned metrics.
		out, err := r.Filter.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		m := core.Evaluate(out.Pairs, in.Task.Truth)
		if m.PC != r.Metrics.PC || m.Candidates != r.Metrics.Candidates {
			t.Errorf("%s: rerun mismatch: tuned %+v rerun %+v", space.Label, r.Metrics, m)
		}
	}
}

func TestTunedBeatsBaselinePQ(t *testing.T) {
	in := testInput(t)
	sbw := TuneBlocking(in, BlockingSpaces(false)[0], DefaultTarget)
	pbwOut, err := core.NewPBW().Run(in)
	if err != nil {
		t.Fatal(err)
	}
	pbw := core.Evaluate(pbwOut.Pairs, in.Task.Truth)
	if sbw.Satisfied && sbw.Metrics.PQ <= pbw.PQ {
		t.Fatalf("tuned SBW PQ %.3f should beat PBW PQ %.3f", sbw.Metrics.PQ, pbw.PQ)
	}
}

func TestTuneEpsJoin(t *testing.T) {
	in := testInput(t)
	r := TuneEpsJoin(in, DefaultSparseSpace(false), DefaultTarget)
	if !r.Satisfied {
		t.Fatalf("eps-join did not reach target: PC %.2f", r.Metrics.PC)
	}
	// Re-running the winning filter must reproduce the binned metrics.
	out, err := r.Filter.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	m := core.Evaluate(out.Pairs, in.Task.Truth)
	if m.PC < DefaultTarget {
		t.Fatalf("winning eps-join config PC = %.3f on rerun", m.PC)
	}
	if m.Candidates != r.Metrics.Candidates {
		t.Fatalf("rerun candidates %d != tuned %d (config %s)", m.Candidates, r.Metrics.Candidates, r.ConfigString())
	}
}

func TestTuneKNNJoin(t *testing.T) {
	in := testInput(t)
	r := TuneKNNJoin(in, DefaultSparseSpace(false), DefaultTarget)
	if !r.Satisfied {
		t.Fatalf("knn-join did not reach target: PC %.2f", r.Metrics.PC)
	}
	out, err := r.Filter.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	m := core.Evaluate(out.Pairs, in.Task.Truth)
	if m.PC != r.Metrics.PC || m.Candidates != r.Metrics.Candidates {
		t.Fatalf("rerun mismatch: tuned %+v rerun %+v (config %s)", r.Metrics, m, r.ConfigString())
	}
	// kNN-Join's cardinality threshold should be small, as in the paper.
	if r.Config["K"] == "" {
		t.Fatal("missing K in config")
	}
}

func TestKGrid(t *testing.T) {
	g := kGrid(5000)
	if g[0] != 1 || g[99] != 100 {
		t.Fatalf("grid head wrong: %v", g[:3])
	}
	if g[100] != 105 {
		t.Fatalf("grid step-5 region starts at %d", g[100])
	}
	last := g[len(g)-1]
	if last != 5000 {
		t.Fatalf("grid ends at %d", last)
	}
	small := kGrid(7)
	if len(small) != 7 {
		t.Fatalf("capped grid = %v", small)
	}
}

func TestTuneFlatKNN(t *testing.T) {
	in := testInput(t)
	r, err := TuneFlatKNN(in, DefaultDenseSpace(false), DefaultTarget)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Satisfied {
		t.Fatalf("flat kNN did not reach target: PC %.2f", r.Metrics.PC)
	}
	out, err := r.Filter.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	m := core.Evaluate(out.Pairs, in.Task.Truth)
	if m.PC != r.Metrics.PC {
		t.Fatalf("rerun PC %.3f != tuned %.3f", m.PC, r.Metrics.PC)
	}
}

func TestTuneMinHash(t *testing.T) {
	in := testInput(t)
	space := DefaultDenseSpace(false)
	space.Repetitions = 2
	r, err := TuneMinHash(in, space, DefaultTarget)
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics.PC <= 0 {
		t.Fatal("minhash tuning evaluated nothing")
	}
	if r.Evaluated == 0 {
		t.Fatal("no configurations evaluated")
	}
}

func TestTuneHyperplaneEscalatesProbes(t *testing.T) {
	in := testInput(t)
	space := DefaultDenseSpace(false)
	space.Repetitions = 1
	space.HPTables = []int{8}
	space.HPHashes = []int{10}
	r, err := TuneHyperplane(in, space, DefaultTarget)
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics.PC < 0.5 {
		t.Fatalf("hyperplane best PC = %.2f", r.Metrics.PC)
	}
}

func TestTunePartitionedAndDeepBlocker(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	in := testInput(t)
	space := DefaultDenseSpace(false)
	space.Repetitions = 1
	space.AEHidden = 16
	space.AEEpochs = 3
	rs, err := TunePartitioned(in, space, DefaultTarget)
	if err != nil {
		t.Fatal(err)
	}
	if !rs.Satisfied {
		t.Fatalf("SCANN analog did not reach target: PC %.2f", rs.Metrics.PC)
	}
	rd, err := TuneDeepBlocker(in, space, DefaultTarget)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Metrics.PC < 0.5 {
		t.Fatalf("deepblocker best PC = %.2f", rd.Metrics.PC)
	}
}

func TestConfigString(t *testing.T) {
	r := &Result{Config: map[string]string{"b": "2", "a": "1"}}
	if got := r.ConfigString(); got != "a=1 b=2" {
		t.Fatalf("ConfigString = %q", got)
	}
}

func TestTuneCrossPolytope(t *testing.T) {
	in := testInput(t)
	space := DefaultDenseSpace(false)
	space.Repetitions = 1
	space.CPTables = []int{8}
	space.CPHashes = []int{1}
	space.CPLastDims = []int{16}
	r, err := TuneCrossPolytope(in, space, DefaultTarget)
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics.PC < 0.5 {
		t.Fatalf("cross-polytope best PC = %.2f", r.Metrics.PC)
	}
	if r.Evaluated == 0 {
		t.Fatal("no configurations evaluated")
	}
}

func TestBlockingSpacesShape(t *testing.T) {
	reduced := BlockingSpaces(false)
	full := BlockingSpaces(true)
	if len(reduced) != 5 || len(full) != 5 {
		t.Fatalf("space count: %d / %d", len(reduced), len(full))
	}
	labels := []string{"SBW", "QBW", "EQBW", "SABW", "ESABW"}
	for i, s := range reduced {
		if s.Label != labels[i] {
			t.Errorf("space %d = %s", i, s.Label)
		}
		if len(s.Builders) == 0 {
			t.Errorf("%s has no builders", s.Label)
		}
		if len(full[i].Builders) < len(s.Builders) {
			t.Errorf("%s full grid smaller than reduced", s.Label)
		}
	}
	// Proactive families skip block cleaning.
	if !reduced[3].Proactive || !reduced[4].Proactive {
		t.Error("suffix-array families must be proactive")
	}
	if reduced[0].Proactive {
		t.Error("SBW must not be proactive")
	}
	// Full cleaning grid: CP + 6 schemes x 7 algorithms = 43.
	if got := len(FullCleaningGrid()); got != 43 {
		t.Errorf("full cleaning grid = %d, want 43", got)
	}
}

func TestDefaultSparseSpaceShape(t *testing.T) {
	full := DefaultSparseSpace(true)
	if len(full.Models) != 10 {
		t.Errorf("full models = %d", len(full.Models))
	}
	reduced := DefaultSparseSpace(false)
	if len(reduced.Models) >= len(full.Models) {
		t.Error("reduced model axis not thinner")
	}
	if full.MaxK != 100 {
		t.Errorf("full MaxK = %d", full.MaxK)
	}
}

func TestDefaultDenseSpaceShape(t *testing.T) {
	full := DefaultDenseSpace(true)
	if full.Repetitions != 10 {
		t.Errorf("full repetitions = %d, want 10 (as in the paper)", full.Repetitions)
	}
	if full.MaxK != 5000 {
		t.Errorf("full MaxK = %d, want 5000", full.MaxK)
	}
	// Full MinHash banding: products of two powers in {128,256,512}.
	for _, br := range full.MHBandRows {
		p := br[0] * br[1]
		if p != 128 && p != 256 && p != 512 {
			t.Errorf("band/row product %d not in {128,256,512}", p)
		}
	}
}

func TestStepwiseNeverBeatsHolistic(t *testing.T) {
	// The paper's Section II claim: holistic tuning explores a superset of
	// the stepwise search space, so its Problem-1 optimum is at least as
	// good. Verify on several seeds.
	for _, seed := range []uint64{77, 78, 79} {
		task := datagen.Generate(datagen.QuickSpec(50, 120, 35, seed))
		in := core.NewInputDim(task, entity.SchemaAgnostic, 48)
		for _, space := range BlockingSpaces(false)[:2] {
			holistic := TuneBlocking(in, space, DefaultTarget)
			stepwise := TuneBlockingStepwise(in, space, DefaultTarget)
			if stepwise.Satisfied && !holistic.Satisfied {
				t.Errorf("seed %d %s: stepwise satisfied but holistic not", seed, space.Label)
			}
			if holistic.Satisfied && stepwise.Satisfied && stepwise.Metrics.PQ > holistic.Metrics.PQ+1e-9 {
				t.Errorf("seed %d %s: stepwise PQ %.4f beat holistic %.4f", seed, space.Label,
					stepwise.Metrics.PQ, holistic.Metrics.PQ)
			}
			if holistic.Evaluated < stepwise.Evaluated {
				t.Errorf("seed %d %s: holistic explored fewer configs (%d < %d)", seed, space.Label,
					holistic.Evaluated, stepwise.Evaluated)
			}
		}
	}
}

func TestStepwiseReturnsRunnableFilter(t *testing.T) {
	in := testInput(t)
	r := TuneBlockingStepwise(in, BlockingSpaces(false)[0], DefaultTarget)
	if r.Filter == nil {
		t.Fatal("no filter")
	}
	out, err := r.Filter.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	m := core.Evaluate(out.Pairs, in.Task.Truth)
	if m.PC != r.Metrics.PC || m.Candidates != r.Metrics.Candidates {
		t.Fatalf("rerun mismatch: %+v vs %+v", m, r.Metrics)
	}
}
