package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// loadDocs reads one -out document, or every *.json document under a
// directory, grouped by workload. Traced documents are skipped: their
// numbers are of the shorter, traced closed loop.
func loadDocs(path string) (map[string][]*report, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		files = nil
		filepath.WalkDir(path, func(p string, d os.DirEntry, err error) error {
			if err == nil && !d.IsDir() && filepath.Ext(p) == ".json" {
				files = append(files, p)
			}
			return nil
		})
		sort.Strings(files)
	}
	out := map[string][]*report{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(b, &r); err != nil || r.Workload == "" {
			continue // not a run document (a trace file, say)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], &r)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no untraced run document", path)
	}
	return out, nil
}

func metricValues(docs []*report, name string) []float64 {
	var xs []float64
	for _, d := range docs {
		if m, ok := d.Metrics[name]; ok {
			xs = append(xs, m.V)
		}
	}
	return xs
}

// worsening is how much b is worse than a, as a share of a: positive is
// worse whichever direction is better for the metric.
func worsening(s metricSpec, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if s.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// verdict classifies one workload x metric. A spread wider than the
// bound on either side means the documents cannot resolve a change of
// the size the bound cares about. A metric without a bound (the demoted
// time metrics) is judged against the spread alone and never regresses
// a comparison: with fewer than two runs a side there is no spread, and
// nothing can be said.
func verdict(s metricSpec, worse, spreadA, spreadB float64, runs int) string {
	noise := max(spreadA, spreadB)
	if s.Bound == 0 {
		switch {
		case runs < 2:
			return "unresolved"
		case worse > noise:
			return "worse than the spread"
		case worse < -noise:
			return "improved"
		}
		return "within the spread"
	}
	switch {
	case noise > s.Bound:
		return "unresolved"
	case worse > s.Bound:
		return "REGRESSED"
	case runs >= 2 && worse < -noise, runs < 2 && worse < -s.Bound:
		return "improved"
	}
	return "unchanged"
}

// runCompare prints, per workload and run metric, both medians,
// the ratio with its base, and the verdict. It refuses documents from
// different hosts or toolchains: their numbers do not compare.
func runCompare(pathA, pathB string) int {
	a, err := loadDocs(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		return 1
	}
	b, err := loadDocs(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		return 1
	}
	anyHost := func(docs map[string][]*report) hostInfo {
		for _, d := range docs {
			return d[0].Host
		}
		return hostInfo{}
	}
	ha, hb := anyHost(a), anyHost(b)
	if ha.NProc != hb.NProc || ha.GOMAXPROCS != hb.GOMAXPROCS || ha.GoVersion != hb.GoVersion {
		fmt.Fprintf(os.Stderr, "perf: refusing to compare across hosts: nproc %d/%d, GOMAXPROCS %d/%d, Go %s/%s\n",
			ha.NProc, hb.NProc, ha.GOMAXPROCS, hb.GOMAXPROCS, ha.GoVersion, hb.GoVersion)
		return 1
	}
	fmt.Printf("a: %s (commit %s)\nb: %s (commit %s)\n", pathA, ha.Commit, pathB, hb.Commit)
	regressed := 0
	for _, w := range workloadNames {
		da, db := a[w], b[w]
		if len(da) == 0 || len(db) == 0 {
			continue
		}
		fmt.Printf("\n%s (a: %d runs, b: %d runs)\n", w, len(da), len(db))
		for _, s := range runMetrics {
			xa, xb := metricValues(da, s.Name), metricValues(db, s.Name)
			ma, mb := median(xa), median(xb)
			worse := worsening(s, ma, mb)
			v := verdict(s, worse, spread(xa), spread(xb), min(len(xa), len(xb)))
			if v == "REGRESSED" {
				regressed++
			}
			ratio := 0.0
			if ma != 0 {
				ratio = mb / ma
			}
			bound := "no bound"
			if s.Bound > 0 {
				bound = fmt.Sprintf("bound %.0f%%", 100*s.Bound)
			}
			fmt.Printf("  %-18s a %12.6g  b %12.6g %-6s b/a %.4f (base a=%.6g)  spread a %.1f%% b %.1f%%  %s  %s\n",
				s.Name, ma, mb, s.Unit, ratio, ma, 100*spread(xa), 100*spread(xb), bound, v)
		}
	}
	if regressed > 0 {
		return 2
	}
	return 0
}
