package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON mirrors the driver's contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json and spec.go must name the same workloads and metrics,
// with the same units, directions and bounds, inside the contract's limits.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, the limit is 64 KiB", len(raw))
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}

	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(b.Workloads), len(workloadNames))
	}
	seen := map[string]bool{}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the code", i, w.Name, workloadNames[i])
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		_, online := onlineWorkloads[w.Name]
		if !online && w.Name != wBatchFilter {
			t.Errorf("workload %s has no runner", w.Name)
		}
		if !nameRE.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload name %q is malformed or used twice", w.Name)
		}
		seen[w.Name] = true
	}

	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the code %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if want := endToEnd[i]; m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better || m.Bound != want.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the code %+v", i, m, want)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if s, ok := specByName(endToEnd, "setup_s"); !ok || s.Unit != "s" || s.Better != "lower" {
		t.Error("the contract requires setup_s in s, lower is better")
	}
	if len(b.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the code %d, the limit is 128", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if want := perLayer[i]; m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the code %+v", i, m, want)
		}
	}
	for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(s.Name) || seen[s.Name] {
			t.Errorf("metric name %q is malformed or used twice", s.Name)
		}
		seen[s.Name] = true
		if !unitRE.MatchString(s.Unit) {
			t.Errorf("%s: unit %q is malformed", s.Name, s.Unit)
		}
		if s.Better != "lower" && s.Better != "higher" {
			t.Errorf("%s: better is %q", s.Name, s.Better)
		}
	}

	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", b.RunSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "perf" {
		t.Errorf("paths = %v, want [perf]", b.Paths)
	}
	for _, arg := range b.Command {
		if strings.HasPrefix(arg, "/") || strings.Contains(arg, "..") {
			t.Errorf("command argument %q leaves the checkout", arg)
		}
	}
}

// The result line of an untraced run carries exactly the end-to-end
// metrics, that of a traced run exactly the per-layer ones — including
// layers that idled on the workload, which read 0.
func TestResultLineCarriesExactlyTheDeclaredMetrics(t *testing.T) {
	for _, trace := range []bool{false, true} {
		rep := newReport(wKNNJPoint, 1, trace, 1)
		rep.Attempted = 1
		for _, s := range runMetrics {
			rep.set(s.Name, 1.5, 3)
		}
		rep.set("sparse.knn_query_us", 2.5, 3)
		rep.finish()
		var buf bytes.Buffer
		rep.print(&buf)
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var line struct {
			Correct   *bool `json:"correct"`
			Attempted *int  `json:"attempted"`
			Failed    *int  `json:"failed"`
			Metrics   map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			} `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("last line is not the result object: %v", err)
		}
		if line.Correct == nil || !*line.Correct || line.Attempted == nil || line.Failed == nil {
			t.Errorf("trace=%v: result line %s", trace, lines[len(lines)-1])
		}
		want := endToEnd
		if trace {
			want = perLayer
		}
		if len(line.Metrics) != len(want) {
			t.Errorf("trace=%v: %d metrics on the result line, want %d", trace, len(line.Metrics), len(want))
		}
		for _, s := range want {
			if m, ok := line.Metrics[s.Name]; !ok || m.Value == nil || m.Unit != s.Unit {
				t.Errorf("trace=%v: %s missing from the result line or without value/unit", trace, s.Name)
			}
		}
	}
}

// A failed operation, a failed check or a zero run metric makes
// the run incorrect; an undeclared metric name is a programming error.
func TestReportCorrectness(t *testing.T) {
	ok := func() *report {
		rep := newReport(wBatchFilter, 1, false, 1)
		rep.Attempted = 10
		for _, s := range runMetrics {
			rep.set(s.Name, 2, 1)
		}
		return rep
	}
	rep := ok()
	if rep.finish(); !rep.Correct {
		t.Errorf("clean run judged incorrect: %v", rep.Checks)
	}
	rep = ok()
	rep.Failed = 1
	if rep.finish(); rep.Correct {
		t.Error("a failed operation left the run correct")
	}
	for _, name := range []string{"rss_mb", "read_p50_ms"} {
		rep = ok()
		rep.set(name, 0, 0)
		if rep.finish(); rep.Correct {
			t.Errorf("a zero %s left the run correct", name)
		}
	}
	rep = ok()
	rep.failCheck("hash differs")
	if rep.finish(); rep.Correct {
		t.Error("a failed check left the run correct")
	}
	defer func() {
		if recover() == nil {
			t.Error("setting an undeclared metric did not panic")
		}
	}()
	ok().set("no.such_metric", 1, 0)
}
