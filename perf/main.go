// Command perf is the repository's benchmark: four single-client
// closed-loop workloads from the HTTP socket of a real erserve child down
// to the paper's batch pipeline, with per-layer attribution from a
// separate traced run. perf/README.md describes workloads, metrics and
// how they interact; BENCHMARK.json is the driver's view of the same.
//
//	bash perf/run.sh --workload knnj_point --seed 1 --seconds 20 --trace 0
//	bash perf/run.sh -aa 3                       # A/A sets: spread and drift against the bounds
//	bash perf/run.sh -compare a.json b.json      # two -out documents (or directories of them)
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"erfilter/perf/layers"
)

// watchdog bounds one run: a wedged daemon fails the run instead of
// hanging it past the driver's 180 s limit.
const watchdog = 150 * time.Second

func main() {
	// Children are started with Pdeathsig, which follows the OS thread
	// that forked them; pin main to the one thread that lives as long as
	// the process.
	runtime.LockOSThread()

	workload := flag.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames))
	seed := flag.Int64("seed", 1, "permutes query order, write slots and pool order; never the corpus")
	seconds := flag.Float64("seconds", 20, "length of the timed phase")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	out := flag.String("out", "", "also write the run's document (host, every metric, sample counts) to this file")
	root := flag.String("root", ".", "checkout root; temp files go under <root>/.bench_build/tmp")
	erserve := flag.String("erserve", "", "erserve binary (default <root>/.bench_build/bin/erserve)")
	aa := flag.Int("aa", 0, "run N A/A sets of 10 runs per workload and judge spread and drift against the bounds")
	compare := flag.Bool("compare", false, "compare two -out documents or directories of them: perf -compare a b")
	flag.Parse()

	absRoot, err := filepath.Abs(*root)
	if err != nil {
		fatal(nil, err)
	}
	if *erserve == "" {
		*erserve = filepath.Join(absRoot, ".bench_build", "bin", "erserve")
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(nil, fmt.Errorf("-compare takes two documents"))
		}
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1)))
	case *aa > 0:
		os.Exit(runAA(*aa, absRoot, *erserve, *seconds))
	}

	e, err := newEnv(absRoot)
	if err != nil {
		fatal(nil, err)
	}
	time.AfterFunc(watchdog, func() {
		fatal(e, fmt.Errorf("run exceeded the %v watchdog", watchdog))
	})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sig
		fatal(e, fmt.Errorf("interrupted by %v", s))
	}()

	defer func() { // a bug must not leave a daemon or temp files behind either
		if p := recover(); p != nil {
			e.close()
			panic(p)
		}
	}()

	var rep *report
	if w, ok := onlineWorkloads[*workload]; ok {
		rep, err = runOnline(w, e, absRoot, *erserve, *seed, *seconds, *trace != 0)
	} else if *workload == wBatchFilter {
		rep, err = runBatch(e, absRoot, *seed, *seconds, *trace != 0)
	} else {
		err = fmt.Errorf("unknown -workload %q, want one of %v", *workload, workloadNames)
	}
	if err != nil {
		fatal(e, err)
	}
	e.close()
	if *out != "" {
		if err := rep.writeFile(*out); err != nil {
			fatal(nil, err)
		}
	}
	rep.print(os.Stdout)
}

// fatal ends the process without a result line: children reaped, temp
// files removed, non-zero exit.
func fatal(e *env, err error) {
	if e != nil {
		e.close()
	}
	fmt.Fprintln(os.Stderr, "perf:", err)
	os.Exit(1)
}

// directLayers runs the direct per-layer measurements (perf/layers) on
// knnj_point's fixed corpus and match_mixed_durable's predicate, whatever
// workload the traced run is on: they price the packages, not the
// traffic.
func directLayers(tmp string) map[string]layers.Value {
	c := onlineWorkloads[wKNNJPoint].corpus()
	in := layers.Inputs{Where: onlineWorkloads[wMatchDurable].where, Tmp: tmp}
	for _, p := range c.e1 {
		in.E1 = append(in.E1, p.Attrs)
	}
	for _, p := range c.q {
		in.Q = append(in.Q, p.Attrs)
	}
	return layers.All(in)
}
