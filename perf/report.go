package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// value is one measured metric; N is the number of samples behind it
// (0 when it is a plain count or ratio).
type value struct {
	V    float64 `json:"value"`
	Unit string  `json:"unit"`
	N    int     `json:"n,omitempty"`
	Note string  `json:"note,omitempty"`
}

// report is the document of one run: what -out writes, what -compare
// reads, and the source of the driver's result line.
type report struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Trace     bool             `json:"trace"`
	Seconds   float64          `json:"seconds"`
	Host      hostInfo         `json:"host"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Hash      string           `json:"answers_sha256"`
	Checks    []string         `json:"failed_checks,omitempty"`
	Findings  []string         `json:"findings,omitempty"`
	Metrics   map[string]value `json:"metrics"`
}

func newReport(workload string, seed int64, trace bool, seconds float64) *report {
	return &report{Workload: workload, Seed: seed, Trace: trace, Seconds: seconds, Metrics: map[string]value{}}
}

// set records a metric. Its name must be declared in spec.go, which is
// where the unit comes from; a typo is a programming error.
func (r *report) set(name string, v float64, n int) {
	s, ok := specByName(endToEnd, name)
	if !ok {
		if s, ok = specByName(perLayer, name); !ok {
			panic("perf: metric not declared in spec.go: " + name)
		}
	}
	r.Metrics[name] = value{V: v, Unit: s.Unit, N: n}
}

func (r *report) note(name, note string) {
	if m, ok := r.Metrics[name]; ok {
		m.Note = note
		r.Metrics[name] = m
	}
}

// failCheck records an output check that did not hold; the run is then
// not correct.
func (r *report) failCheck(format string, a ...any) {
	r.Checks = append(r.Checks, fmt.Sprintf(format, a...))
}

// finding records something a reader should know that is not a failure.
func (r *report) finding(format string, a ...any) {
	r.Findings = append(r.Findings, fmt.Sprintf(format, a...))
}

// emitted is the metric list of the run's mode: end-to-end with tracing
// off, per-layer with tracing on.
func (r *report) emitted() []metricSpec {
	if r.Trace {
		return perLayer
	}
	return endToEnd
}

// finish settles correctness: no failed op, no failed check, and every
// run metric (end-to-end and demoted timing) present and non-zero on an
// untraced run.
func (r *report) finish() {
	if r.Failed > 0 {
		r.failCheck("%d of %d operations failed", r.Failed, r.Attempted)
	}
	if r.Attempted < 1 {
		r.failCheck("no operation was attempted")
	}
	if !r.Trace {
		for _, s := range runMetrics {
			if m, ok := r.Metrics[s.Name]; !ok || m.V == 0 {
				r.failCheck("metric %s is missing or zero", s.Name)
			}
		}
	}
	r.Correct = len(r.Checks) == 0
}

// print writes every metric by name with unit and sample count, then the
// driver's one-line result as the last line.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s seed %d trace %v seconds %g\n", r.Workload, r.Seed, r.Trace, r.Seconds)
	h := r.Host
	fmt.Fprintf(w, "host nproc=%d gomaxprocs=%d go=%s commit=%s spin_ms=%.1f memwalk_ms=%.1f fsync_us=%.0f\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit, h.SpinMS, h.MemwalkMS, h.FsyncUS)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		line := fmt.Sprintf("%-36s %14.6g %-6s", name, m.V, m.Unit)
		if m.N > 0 {
			line += fmt.Sprintf(" n=%d", m.N)
		}
		if m.Note != "" {
			line += "  (" + m.Note + ")"
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "answers sha256 %s\n", r.Hash)
	for _, f := range r.Findings {
		fmt.Fprintln(w, "finding:", f)
	}
	for _, c := range r.Checks {
		fmt.Fprintln(w, "FAILED CHECK:", c)
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]mv{}}
	for _, s := range r.emitted() {
		line.Metrics[s.Name] = mv{r.Metrics[s.Name].V, s.Unit}
	}
	b, _ := json.Marshal(line)
	fmt.Fprintln(w, string(b))
}

func (r *report) writeFile(path string) error {
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
