package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// runAA measures the benchmark against itself the way the driver will:
// sets of ten runs per workload, every run a fresh process with another
// seed. Within a set the workloads alternate, so each workload's ten
// runs span the whole set and host drift lands inside the spread. Per
// set it prints each run metric's IQR/median; from the second set on,
// how much worse the set's median is than the first set's. For a metric
// with a bound, a spread beyond half of it (the issue's acceptance
// criterion; the driver itself refuses at the full bound, and exempts
// setup_s, which this does not) or a shift beyond it is a violation. The
// demoted time metrics have no bound and are printed only. Documents are kept under perf/out/aa/set<k>/ for -compare.
func runAA(sets int, root, erserve string, seconds float64) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		return 1
	}
	violations := 0
	first := map[string]map[string]float64{} // workload -> metric -> first set's median
	for set := 1; set <= sets; set++ {
		dir := filepath.Join(root, "perf", "out", "aa", "set"+strconv.Itoa(set))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perf:", err)
			return 1
		}
		docs := map[string][]*report{}
		for run := 1; run <= 10; run++ {
			for _, w := range workloadNames {
				seed := set*100 + run
				doc := filepath.Join(dir, fmt.Sprintf("%s-%d.json", w, seed))
				cmd := exec.Command(self, "-workload", w, "-seed", strconv.Itoa(seed), "-seconds", fmt.Sprint(seconds),
					"-trace", "0", "-root", root, "-erserve", erserve, "-out", doc)
				cmd.Stderr = os.Stderr
				if err := cmd.Run(); err != nil {
					fmt.Fprintf(os.Stderr, "perf: %s seed %d: %v\n", w, seed, err)
					return 1
				}
				got, err := loadDocs(doc)
				if err != nil {
					fmt.Fprintln(os.Stderr, "perf:", err)
					return 1
				}
				r := got[w][0]
				if !r.Correct {
					fmt.Printf("set %d %s seed %d: not correct: %v\n", set, w, seed, r.Checks)
					violations++
				}
				docs[w] = append(docs[w], r)
			}
		}
		for _, w := range workloadNames {
			fmt.Printf("set %d %s\n", set, w)
			if first[w] == nil {
				first[w] = map[string]float64{}
			}
			for _, s := range runMetrics {
				xs := metricValues(docs[w], s.Name)
				med, sp := median(xs), spread(xs)
				line := fmt.Sprintf("  %-18s median %12.6g %-6s IQR/median %6.2f%%", s.Name, med, s.Unit, 100*sp)
				if s.Bound > 0 {
					line += fmt.Sprintf("  bound %3.0f%%", 100*s.Bound)
				}
				if s.Bound > 0 && sp > s.Bound/2 {
					line += "  SPREAD BEYOND HALF THE BOUND"
					violations++
				}
				if base, ok := first[w][s.Name]; ok {
					worse := worsening(s, base, med)
					line += fmt.Sprintf("  vs set 1 (%.6g): %+.2f%% worse", base, 100*worse)
					if s.Bound > 0 && worse > s.Bound {
						line += "  SHIFT BEYOND BOUND"
						violations++
					}
				} else {
					first[w][s.Name] = med
				}
				fmt.Println(line)
			}
		}
	}
	if violations > 0 {
		fmt.Printf("%d violations\n", violations)
		return 2
	}
	return 0
}
