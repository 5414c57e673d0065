package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"syscall"
	"time"

	"erfilter"
)

// batchScale sizes the D4 (DBLP-ACM) analog so that one pass of the five
// filters takes one to two seconds on the reference 2-vCPU host.
const batchScale = 0.4

// batchFilter names one filter of the pass; key is its place in the
// core.<key>.* metrics.
type batchFilter struct {
	key string
	f   erfilter.Filter
}

// batchFilters are the paper's baselines plus one sparse and one dense NN
// method: between them they run text, sparse, knn, vector, blocking and
// metablocking as build-once joins, with no serving layer.
func batchFilters(task *erfilter.Task) []batchFilter {
	c3g, err := erfilter.ParseModel("C3G")
	if err != nil {
		panic(err)
	}
	return []batchFilter{
		{"pbw", erfilter.NewPBW()},
		{"dbw", erfilter.NewDBW()},
		{"dknn", erfilter.NewDkNN(task.E2.Len() <= task.E1.Len())},
		{"epsjoin", &erfilter.EpsJoinFilter{Model: c3g, Measure: erfilter.Cosine, Threshold: 0.4}},
		{"flat", &erfilter.FlatKNNFilter{K: 5}},
	}
}

// batchSetup is everything before the first timed pass: generate the
// task, take it through the CSV readers a user would load it with, build
// the input, and run every filter once cold. The cold pass also fixes the
// candidate counts, quality and answers hash the timed passes are checked
// against.
type batchSetup struct {
	in      *erfilter.Input
	filters []batchFilter
	cands   []int // candidates per filter, cold pass
	pc, pq  float64
	hash    string
}

func setupBatch() (*batchSetup, error) {
	gen := erfilter.GenerateDataset("D4", batchScale)
	e1, err := csvRoundTrip("e1", gen.E1)
	if err != nil {
		return nil, err
	}
	e2, err := csvRoundTrip("e2", gen.E2)
	if err != nil {
		return nil, err
	}
	var tbuf bytes.Buffer
	tw := csv.NewWriter(&tbuf)
	pairs := gen.Truth.Pairs()
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].Right < pairs[j].Right })
	for _, p := range pairs {
		tw.Write([]string{strconv.Itoa(int(p.Left)), strconv.Itoa(int(p.Right))})
	}
	tw.Flush()
	truth, err := erfilter.ReadGroundTruthCSV(&tbuf, e1.Len(), e2.Len())
	if err != nil {
		return nil, err
	}
	task := &erfilter.Task{Name: "D4", E1: e1, E2: e2, Truth: truth}
	task.BestAttribute = erfilter.BestAttribute(task)

	s := &batchSetup{in: erfilter.NewInput(task, erfilter.SchemaAgnostic), filters: batchFilters(task)}
	h := sha256.New()
	for _, bf := range s.filters {
		out, err := bf.f.Run(s.in.Fresh())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", bf.key, err)
		}
		m := erfilter.Evaluate(out.Pairs, truth)
		s.pc += m.PC / float64(len(s.filters))
		s.pq += m.PQ / float64(len(s.filters))
		s.cands = append(s.cands, len(out.Pairs))
		ps := append([]erfilter.Pair(nil), out.Pairs...)
		sort.Slice(ps, func(i, j int) bool {
			if ps[i].Left != ps[j].Left {
				return ps[i].Left < ps[j].Left
			}
			return ps[i].Right < ps[j].Right
		})
		fmt.Fprintf(h, "%s:", bf.key)
		for _, p := range ps {
			fmt.Fprintf(h, "%d-%d,", p.Left, p.Right)
		}
		h.Write([]byte{'\n'})
	}
	s.hash = hex.EncodeToString(h.Sum(nil))
	return s, nil
}

// csvRoundTrip writes the dataset as CSV (header = sorted attribute
// names, one row per profile) and loads it back through the public
// reader.
func csvRoundTrip(name string, d *erfilter.Dataset) (*erfilter.Dataset, error) {
	header := d.AttributeNames()
	col := map[string]int{}
	for i, h := range header {
		col[h] = i
	}
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	w.Write(header)
	for _, p := range d.Profiles {
		row := make([]string, len(header))
		for _, a := range p.Attrs {
			if c := col[a.Name]; row[c] == "" {
				row[c] = a.Value
			} else {
				row[c] += " " + a.Value
			}
		}
		w.Write(row)
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return nil, err
	}
	return erfilter.ReadDatasetCSV(name, &buf)
}

func selfCPU() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runBatch is the offline workload: the paper's own measurement (Table
// VII run-time, Fig. 7-9 breakdown), in process, through the root
// package only.
func runBatch(e *env, root string, seed int64, seconds float64, trace bool) (*report, error) {
	rep := newReport(wBatchFilter, seed, trace, seconds)
	rep.Host = readHost(root, e.tmp)
	var tr *tracer
	if trace {
		tr = newTracer()
	}

	// Set-up runs three times; the median is setup_s and the last one is
	// kept.
	var s *batchSetup
	var setups []float64
	for i := 0; i < 3; i++ {
		begin := time.Now()
		var err error
		if s, err = setupBatch(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(begin).Seconds())
	}
	rep.set("setup_s", median(setups), len(setups))
	rep.set("pc", s.pc, len(s.filters))
	rep.set("pq", s.pq, len(s.filters))
	rep.Hash = s.hash
	rep.set("proc.rss_after_setup_mb", statusKB(os.Getpid(), "VmRSS")/1024, 0)

	stop, done := make(chan struct{}), make(chan struct{})
	var rss []float64
	go func() {
		defer close(done)
		tick := time.NewTicker(200 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				rss = append(rss, statusKB(os.Getpid(), "VmRSS")/1024)
			}
		}
	}()

	// One pass runs the five filters in seeded order.
	type pass struct {
		wall, cpu      float64 // seconds, of the whole pass
		totalMS, build float64 // the filters' own RTs and build/index phases summed, ms
	}
	rng := rand.New(rand.NewSource(seed))
	phases := map[string][]float64{} // metric name -> seconds per pass
	var passes []pass
	begin := time.Now()
	for deadline := begin.Add(time.Duration(seconds * float64(time.Second))); time.Now().Before(deadline); {
		passStart, cpu0 := time.Now(), selfCPU()
		span := -1
		if tr != nil {
			span = tr.request("pass", passStart, 0)
		}
		var total, build time.Duration
		for _, i := range rng.Perm(len(s.filters)) {
			bf := s.filters[i]
			at := time.Now()
			out, err := bf.f.Run(s.in.Fresh())
			rep.Attempted++
			if err != nil || len(out.Pairs) != s.cands[i] {
				rep.Failed++
				continue
			}
			t := out.Timing
			total += t.Total
			build += t.Build + t.Index
			for name, d := range map[string]time.Duration{
				"build": t.Build, "filter": t.Filter, "clean": t.Clean,
				"preprocess": t.Preprocess, "index": t.Index, "query": t.Query,
			} {
				metric := "core." + bf.key + "." + name + "_s"
				if _, declared := specByName(perLayer, metric); declared {
					phases[metric] = append(phases[metric], d.Seconds())
				}
			}
			if tr != nil {
				traceFilter(tr, span, bf.key, at, out)
			}
		}
		if tr != nil {
			tr.spans[span].End = time.Since(tr.t0).Nanoseconds()
		}
		passes = append(passes, pass{time.Since(passStart).Seconds(), selfCPU() - cpu0, ms(total), ms(build)})
	}
	close(stop)
	<-done

	var wall, cpu float64
	var totalMS, buildMS []float64
	for _, p := range passes {
		wall, cpu = wall+p.wall, cpu+p.cpu
		totalMS, buildMS = append(totalMS, p.totalMS), append(buildMS, p.build)
	}
	ops := len(passes) * len(s.filters) * s.in.Task.E2.Len()
	rep.set("throughput_ops_s", float64(ops)/wall, ops)
	rep.set("read_p50_ms", median(totalMS), len(totalMS))
	rep.set("write_p50_ms", median(buildMS), len(buildMS))
	rep.set("cpu_ms_per_op", 1000*cpu/float64(ops), ops)
	rep.set("rss_mb", median(rss), len(rss))
	rep.set("proc.peak_rss_mb", statusKB(os.Getpid(), "VmHWM")/1024, 0)
	if trace {
		for name, secs := range phases {
			rep.set(name, median(secs), len(secs))
		}
		for i, bf := range s.filters {
			rep.set("core."+bf.key+".candidates", float64(s.cands[i]), 0)
		}
		for name, v := range directLayers(e.tmp) {
			rep.set(name, v.V, v.N)
		}
		hostMetrics(rep)
		path, err := tr.write(root, wBatchFilter)
		if err != nil {
			return nil, err
		}
		fmt.Printf("trace written to %s (%d spans)\n", path, len(tr.spans))
	}
	rep.finish()
	return rep, nil
}

// traceFilter records one filter run under its pass, and the run's
// phases laid end to end in workflow order (Fig. 7-9: build, purge,
// filter, clean for blocking; preprocess, index, query for NN methods).
func traceFilter(tr *tracer, pass int, key string, at time.Time, out *erfilter.Outcome) {
	t := out.Timing
	run := tr.add("core."+key, pass, at, t.Total, false)
	for _, ph := range []struct {
		name string
		d    time.Duration
	}{
		{"build", t.Build}, {"purge", t.Purge}, {"filter", t.Filter}, {"clean", t.Clean},
		{"preprocess", t.Preprocess}, {"index", t.Index}, {"query", t.Query},
	} {
		if ph.d > 0 {
			tr.add("core."+key+"."+ph.name, run, at, ph.d, false)
			at = at.Add(ph.d)
		}
	}
}
