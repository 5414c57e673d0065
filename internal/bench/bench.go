// Package bench drives the paper's experiments: it tunes every filtering
// method on every dataset analog under Problem 1 and renders the tables
// (VI–XI) and figures (3–9) of the evaluation section as text reports.
package bench

import (
	"bytes"
	"fmt"
	"io"

	"erfilter/internal/core"
	"erfilter/internal/datagen"
	"erfilter/internal/entity"
	"erfilter/internal/parallel"
	"erfilter/internal/tuning"
)

// Options configures an experiment run.
type Options struct {
	// Scale multiplies the paper's dataset sizes (1.0 = full size).
	Scale float64
	// FullGrids enables the complete Table III–V configuration grids
	// instead of the reduced laptop-scale ones.
	FullGrids bool
	// Target is the Problem-1 recall threshold τ (default 0.9).
	Target float64
	// Datasets restricts the run ("D1".."D10"); empty = all.
	Datasets []string
	// Methods restricts the run to the named methods; empty = all.
	Methods []string
	// Seed drives all stochastic components.
	Seed uint64
	// Repetitions for stochastic methods (0 = space default).
	Repetitions int
	// EmbedDim overrides the embedding dimensionality (0 = 300).
	EmbedDim int
	// AEHidden/AEEpochs bound the DeepBlocker autoencoder for the
	// laptop-scale runs (0 = package defaults).
	AEHidden, AEEpochs int
	// Workers bounds the worker pool of the run: dataset×setting cells
	// and the configuration grids inside each tuner fan out onto at most
	// this many goroutines per pool. 0 selects runtime.NumCPU(); 1 forces
	// the legacy sequential path. Reports are byte-identical at any
	// worker count for the same Seed.
	Workers int
}

// WithDefaults fills unset options.
func (o Options) WithDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 0.05
	}
	if o.Target <= 0 {
		o.Target = tuning.DefaultTarget
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.EmbedDim <= 0 {
		o.EmbedDim = 96
	}
	if o.AEHidden <= 0 {
		o.AEHidden = 48
	}
	if o.AEEpochs <= 0 {
		o.AEEpochs = 5
	}
	return o
}

// MethodNames lists every method of Table VII in presentation order.
var MethodNames = []string{
	"SBW", "QBW", "EQBW", "SABW", "ESABW", "PBW", "DBW",
	"eps-Join", "kNNJ", "DkNN",
	"MH-LSH", "CP-LSH", "HP-LSH", "FAISS", "SCANN", "DeepBlocker", "DDB",
}

// MethodResult is the per-cell outcome: the tuned (or baseline)
// configuration, its effectiveness and its phase timings on a fresh run.
type MethodResult struct {
	Method    string
	Config    map[string]string
	Metrics   core.Metrics
	Timing    core.Timing
	Satisfied bool
	Err       error
}

// Cell is one (dataset, schema setting) combination.
type Cell struct {
	Dataset string
	Setting entity.SchemaSetting
	Task    *entity.Task
	Results map[string]*MethodResult
}

// Key renders the paper's cell label, e.g. "Da4" or "Db4".
func (c *Cell) Key() string {
	tag := "a"
	if c.Setting == entity.SchemaBased {
		tag = "b"
	}
	return "D" + tag + c.Dataset[1:]
}

// Report is the outcome of a full experiment run.
type Report struct {
	Options Options
	Cells   []*Cell
}

// wantMethod reports whether the method participates in the run.
func (o Options) wantMethod(name string) bool {
	if len(o.Methods) == 0 {
		return true
	}
	for _, m := range o.Methods {
		if m == name {
			return true
		}
	}
	return false
}

// wantDataset reports whether the dataset participates in the run.
func (o Options) wantDataset(name string) bool {
	if len(o.Datasets) == 0 {
		return true
	}
	for _, d := range o.Datasets {
		if d == name {
			return true
		}
	}
	return false
}

// Run executes tuning and measurement for every requested cell. Progress
// lines go to log (pass io.Discard to silence).
//
// Cells are dispatched onto opts.Workers goroutines (0 = NumCPU, 1 =
// sequential). Each concurrent cell buffers its progress lines and a
// sequencer releases the buffers in canonical cell order, so the log
// stream — like the report — is byte-identical at any worker count.
func Run(opts Options, log io.Writer) (*Report, error) {
	opts = opts.WithDefaults()
	rep := &Report{Options: opts}

	// Plan the cells up front: dataset generation is cheap and sharing
	// one task between the two schema settings of a dataset mirrors the
	// sequential run.
	type plan struct {
		dataset string
		setting entity.SchemaSetting
		task    *entity.Task
	}
	var plans []plan
	for _, spec := range datagen.Specs(opts.Scale) {
		if !opts.wantDataset(spec.Name) {
			continue
		}
		task := datagen.Generate(spec)
		settings := []entity.SchemaSetting{entity.SchemaAgnostic}
		if datagen.SchemaBasedDatasets[spec.Name] {
			settings = append(settings, entity.SchemaBased)
		}
		for _, setting := range settings {
			plans = append(plans, plan{dataset: spec.Name, setting: setting, task: task})
		}
	}

	workers := parallel.Workers(opts.Workers)
	cells := make([]*Cell, len(plans))
	seq := parallel.NewSequencer(log)
	err := parallel.ForEach(workers, len(plans), func(i int) error {
		p := plans[i]
		cell := &Cell{Dataset: p.dataset, Setting: p.setting, Task: p.task, Results: map[string]*MethodResult{}}

		// Sequential runs stream their progress lines directly; parallel
		// runs buffer per cell and release through the sequencer.
		var w io.Writer = log
		var buf *bytes.Buffer
		if workers > 1 {
			buf = &bytes.Buffer{}
			w = buf
		}
		fmt.Fprintf(w, "== %s (%s) |E1|=%d |E2|=%d dup=%d\n",
			cell.Key(), p.setting, p.task.E1.Len(), p.task.E2.Len(), p.task.Truth.Size())
		err := runCell(opts, cell, w)
		if buf != nil {
			seq.Put(i, buf.Bytes())
		}
		if err != nil {
			return err
		}
		cells[i] = cell
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.Cells = cells
	return rep, nil
}

// runCell tunes and measures every method on one cell.
func runCell(opts Options, cell *Cell, log io.Writer) error {
	in := core.NewInputDim(cell.Task, cell.Setting, opts.EmbedDim)
	in.Seed = opts.Seed

	record := func(name string, r *tuning.Result) {
		mr := &MethodResult{Method: name}
		if r != nil {
			mr.Config = r.Config
			mr.Metrics = r.Metrics
			mr.Satisfied = r.Satisfied
			if r.Filter != nil {
				// Measure the winning configuration end-to-end on a fresh
				// input so preprocessing/caching does not distort RT.
				fresh := in.Fresh()
				if out, err := r.Filter.Run(fresh); err == nil {
					mr.Timing = out.Timing
				}
			}
		}
		cell.Results[name] = mr
		progressLine(log, name, mr)
	}

	// Blocking workflows.
	for _, space := range tuning.BlockingSpaces(opts.FullGrids) {
		if !opts.wantMethod(space.Label) {
			continue
		}
		space.Workers = opts.Workers
		record(space.Label, tuning.TuneBlocking(in, space, opts.Target))
	}

	// Baseline blocking workflows.
	for _, b := range []struct {
		name string
		f    core.Filter
	}{
		{"PBW", core.NewPBW()},
		{"DBW", core.NewDBW()},
	} {
		if !opts.wantMethod(b.name) {
			continue
		}
		record(b.name, runBaseline(in, b.f, opts.Target))
	}

	// Sparse NN.
	sparseSpace := tuning.DefaultSparseSpace(opts.FullGrids)
	sparseSpace.Workers = opts.Workers
	if opts.wantMethod("eps-Join") {
		record("eps-Join", tuning.TuneEpsJoin(in, sparseSpace, opts.Target))
	}
	if opts.wantMethod("kNNJ") {
		record("kNNJ", tuning.TuneKNNJoin(in, sparseSpace, opts.Target))
	}
	smallerIsE2 := cell.Task.E2.Len() <= cell.Task.E1.Len()
	if opts.wantMethod("DkNN") {
		record("DkNN", runBaseline(in, core.NewDkNN(smallerIsE2), opts.Target))
	}

	// Dense NN.
	denseSpace := tuning.DefaultDenseSpace(opts.FullGrids)
	denseSpace.Workers = opts.Workers
	if opts.Repetitions > 0 {
		denseSpace.Repetitions = opts.Repetitions
	}
	denseSpace.AEHidden = opts.AEHidden
	denseSpace.AEEpochs = opts.AEEpochs

	type denseTuner struct {
		name string
		run  func() (*tuning.Result, error)
	}
	for _, dt := range []denseTuner{
		{"MH-LSH", func() (*tuning.Result, error) { return tuning.TuneMinHash(in, denseSpace, opts.Target) }},
		{"CP-LSH", func() (*tuning.Result, error) { return tuning.TuneCrossPolytope(in, denseSpace, opts.Target) }},
		{"HP-LSH", func() (*tuning.Result, error) { return tuning.TuneHyperplane(in, denseSpace, opts.Target) }},
		{"FAISS", func() (*tuning.Result, error) { return tuning.TuneFlatKNN(in, denseSpace, opts.Target) }},
		{"SCANN", func() (*tuning.Result, error) { return tuning.TunePartitioned(in, denseSpace, opts.Target) }},
		{"DeepBlocker", func() (*tuning.Result, error) { return tuning.TuneDeepBlocker(in, denseSpace, opts.Target) }},
	} {
		if !opts.wantMethod(dt.name) {
			continue
		}
		r, err := dt.run()
		if err != nil {
			return fmt.Errorf("%s on %s: %w", dt.name, cell.Key(), err)
		}
		record(dt.name, r)
	}
	if opts.wantMethod("DDB") {
		ddb := core.NewDDB(smallerIsE2)
		ddb.Hidden = opts.AEHidden
		ddb.Epochs = opts.AEEpochs
		record("DDB", runBaseline(in, ddb, opts.Target))
	}
	return nil
}

// runBaseline evaluates a fixed-configuration method, wrapping it in the
// tuning result shape; target is the run's τ, the one the tuned rows of
// the same report are judged against.
func runBaseline(in *core.Input, f core.Filter, target float64) *tuning.Result {
	out, err := f.Run(in)
	if err != nil {
		return &tuning.Result{Method: f.Name()}
	}
	m := core.Evaluate(out.Pairs, in.Task.Truth)
	return &tuning.Result{
		Method:    f.Name(),
		Config:    map[string]string{"default": f.Name()},
		Filter:    f,
		Metrics:   m,
		Satisfied: m.PC >= target,
		Evaluated: 1,
	}
}
