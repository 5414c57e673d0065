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
	// this many goroutines per pool. 0 selects runtime.GOMAXPROCS(0); 1
	// runs one cell and one grid branch at a time. It bounds cells and
	// branches, not cores: a filter run inside a cell cleans, embeds and
	// probes on GOMAXPROCS workers whatever it is (GOMAXPROCS=1 gives
	// single-core run-times). Reports are byte-identical at any worker
	// count for the same Seed.
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
// Cells are dispatched onto opts.Workers goroutines (0 = GOMAXPROCS, 1 =
// one cell at a time). Each concurrent cell buffers its progress lines and a
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

// runCell tunes and measures every requested method on one cell, in
// MethodNames order.
func runCell(opts Options, cell *Cell, log io.Writer) error {
	in := core.NewInputDim(cell.Task, cell.Setting, opts.EmbedDim)
	in.Seed = opts.Seed
	for _, name := range MethodNames {
		if !opts.wantMethod(name) {
			continue
		}
		r, err := methods[name](in, opts)
		if err != nil {
			return fmt.Errorf("%s on %s: %w", name, cell.Key(), err)
		}
		mr := &MethodResult{Method: name, Config: r.Config, Metrics: r.Metrics, Satisfied: r.Satisfied}
		if r.Filter != nil {
			// Measure the winning configuration end-to-end on a fresh
			// input so preprocessing/caching does not distort RT.
			if out, err := r.Filter.Run(in.Fresh()); err == nil {
				mr.Timing = out.Timing
			}
		}
		cell.Results[name] = mr
		progressLine(log, name, mr)
	}
	return nil
}

// method runs one method of MethodNames on one input: a tuner under
// Problem 1 over the run's grids, or a baseline's fixed configuration.
type method func(in *core.Input, o Options) (*tuning.Result, error)

var methods = map[string]method{
	"SBW":         blockingTuner(0),
	"QBW":         blockingTuner(1),
	"EQBW":        blockingTuner(2),
	"SABW":        blockingTuner(3),
	"ESABW":       blockingTuner(4),
	"PBW":         baseline(func(*core.Input, Options) core.Filter { return core.NewPBW() }),
	"DBW":         baseline(func(*core.Input, Options) core.Filter { return core.NewDBW() }),
	"eps-Join":    sparseTuner(tuning.TuneEpsJoin),
	"kNNJ":        sparseTuner(tuning.TuneKNNJoin),
	"DkNN":        baseline(func(in *core.Input, _ Options) core.Filter { return core.NewDkNN(in.Task.E2.Len() <= in.Task.E1.Len()) }),
	"MH-LSH":      denseTuner(tuning.TuneMinHash),
	"CP-LSH":      denseTuner(tuning.TuneCrossPolytope),
	"HP-LSH":      denseTuner(tuning.TuneHyperplane),
	"FAISS":       denseTuner(tuning.TuneFlatKNN),
	"SCANN":       denseTuner(tuning.TunePartitioned),
	"DeepBlocker": denseTuner(tuning.TuneDeepBlocker),
	"DDB":         baseline(ddb),
}

// blockingTuner tunes the i-th workflow family of Table III.
func blockingTuner(i int) method {
	return func(in *core.Input, o Options) (*tuning.Result, error) {
		space := tuning.BlockingSpaces(o.FullGrids)[i]
		space.Workers = o.Workers
		return tuning.TuneBlocking(in, space, o.Target), nil
	}
}

// sparseTuner runs a sparse tuner over the run's Table IV grid.
func sparseTuner(tune func(*core.Input, tuning.SparseSpace, float64) *tuning.Result) method {
	return func(in *core.Input, o Options) (*tuning.Result, error) {
		s := tuning.DefaultSparseSpace(o.FullGrids)
		s.Workers = o.Workers
		return tune(in, s, o.Target), nil
	}
}

// denseTuner runs a dense tuner over the run's Table V grid.
func denseTuner(tune func(*core.Input, tuning.DenseSpace, float64) (*tuning.Result, error)) method {
	return func(in *core.Input, o Options) (*tuning.Result, error) {
		s := tuning.DefaultDenseSpace(o.FullGrids)
		s.Workers = o.Workers
		if o.Repetitions > 0 {
			s.Repetitions = o.Repetitions
		}
		s.AEHidden, s.AEEpochs = o.AEHidden, o.AEEpochs
		return tune(in, s, o.Target)
	}
}

// baseline evaluates a method's fixed configuration in the tuning result
// shape, judged against the run's τ like the tuned rows of the same
// report.
func baseline(filter func(*core.Input, Options) core.Filter) method {
	return func(in *core.Input, o Options) (*tuning.Result, error) {
		f := filter(in, o)
		out, err := f.Run(in)
		if err != nil {
			return &tuning.Result{Method: f.Name()}, nil
		}
		m := core.Evaluate(out.Pairs, in.Task.Truth)
		return &tuning.Result{Method: f.Name(), Config: map[string]string{"default": f.Name()},
			Filter: f, Metrics: m, Satisfied: m.PC >= o.Target, Evaluated: 1}, nil
	}
}

func ddb(in *core.Input, o Options) core.Filter {
	f := core.NewDDB(in.Task.E2.Len() <= in.Task.E1.Len())
	f.Hidden, f.Epochs = o.AEHidden, o.AEEpochs
	return f
}
