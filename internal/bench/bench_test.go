package bench

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"erfilter/internal/datagen"
	"erfilter/internal/entity"
)

// tinyOptions keeps the full pipeline fast enough for unit tests.
func tinyOptions() Options {
	return Options{
		Scale:       0.012,
		Datasets:    []string{"D2"},
		Seed:        3,
		Repetitions: 1,
		EmbedDim:    48,
		AEHidden:    16,
		AEEpochs:    2,
	}
}

func TestRunAllMethodsOneDataset(t *testing.T) {
	rep, err := Run(tinyOptions(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 2 { // D2 has both schema settings
		t.Fatalf("cells = %d", len(rep.Cells))
	}
	for _, c := range rep.Cells {
		for _, m := range MethodNames {
			mr := c.Results[m]
			if mr == nil {
				t.Errorf("%s: method %s missing", c.Key(), m)
				continue
			}
			if mr.Metrics.Candidates == 0 && mr.Metrics.PC > 0 {
				t.Errorf("%s/%s: inconsistent metrics %+v", c.Key(), m, mr.Metrics)
			}
		}
		// Shape check: every fine-tuned method reaches the target on the
		// schema-agnostic setting of this clean product dataset.
		if c.Setting == entity.SchemaAgnostic {
			for _, m := range []string{"SBW", "QBW", "eps-Join", "kNNJ", "FAISS"} {
				if !c.Results[m].Satisfied {
					t.Errorf("%s/%s did not reach target PC (%.3f)", c.Key(), m, c.Results[m].Metrics.PC)
				}
			}
		}
	}
}

// TestBaselinesJudgedAgainstRunTarget: a baseline row is satisfied when it
// reaches the run's τ — the one the tuned rows beside it are held to and
// WriteJSON prints as target_pc — not the paper's default 0.9. On D2 the
// schema-based PBW, DkNN and DDB sit at PC 0.917: satisfied at 0.9, not
// at 0.95.
func TestBaselinesJudgedAgainstRunTarget(t *testing.T) {
	opts := tinyOptions()
	opts.Target = 0.95
	opts.Methods = []string{"PBW", "DBW", "DkNN", "DDB"}
	rep, err := Run(opts, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	between := 0
	for _, c := range rep.Cells {
		for _, name := range opts.Methods {
			mr := c.Results[name]
			if want := mr.Metrics.PC >= opts.Target; mr.Satisfied != want {
				t.Errorf("%s/%s: PC %.3f reported satisfied=%v at τ=%.2f", c.Key(), name, mr.Metrics.PC, mr.Satisfied, opts.Target)
			}
			if mr.Metrics.PC >= 0.9 && mr.Metrics.PC < opts.Target {
				between++
			}
		}
	}
	if between == 0 {
		t.Fatal("fixture: no baseline between the default τ and the run's, nothing was tested")
	}
}

func TestTableRenderers(t *testing.T) {
	rep, err := Run(tinyOptions(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	TableVII(&buf, rep)
	out := buf.String()
	for _, want := range []string{"Table VII(a)", "Table VII(b)", "Table VII(c)", "SBW", "kNNJ", "DeepBlocker", "Da2", "Db2"} {
		if !strings.Contains(out, want) {
			t.Errorf("TableVII output missing %q", want)
		}
	}
	buf.Reset()
	TableVIII(&buf, rep)
	TableIX(&buf, rep)
	TableX(&buf, rep)
	out = buf.String()
	for _, want := range []string{"Table VIII", "Table IX", "Table X", "BFr", "RM=", "K="} {
		if !strings.Contains(out, want) {
			t.Errorf("config tables missing %q", want)
		}
	}
	buf.Reset()
	TableXI(&buf, rep)
	if !strings.Contains(buf.String(), "Table XI") {
		t.Error("TableXI header missing")
	}
	buf.Reset()
	Fig7(&buf, rep)
	out = buf.String()
	if !strings.Contains(out, "preprocess") || !strings.Contains(out, "build") {
		t.Errorf("Fig7 breakdown missing phases:\n%s", out)
	}
	buf.Reset()
	Reduction(&buf, rep)
	if !strings.Contains(buf.String(), "eps-Join") {
		t.Error("Reduction table missing eps-Join")
	}
}

func TestTableVIAndFig3(t *testing.T) {
	var buf bytes.Buffer
	TableVI(&buf, 0.012)
	out := buf.String()
	for _, want := range []string{"D1", "D10", "best attribute", "title"} {
		if !strings.Contains(out, want) {
			t.Errorf("TableVI missing %q", want)
		}
	}
	buf.Reset()
	Fig3(&buf, 0.012)
	out = buf.String()
	if !strings.Contains(out, "coverage") || !strings.Contains(out, "vocab") {
		t.Errorf("Fig3 output incomplete:\n%s", out)
	}
}

func TestRankFigure(t *testing.T) {
	task := datagen.ByName("D2", 0.02)
	var buf bytes.Buffer
	RankFigure(&buf, task, entity.SchemaAgnostic, false, 48)
	out := buf.String()
	if !strings.Contains(out, "syntactic") || !strings.Contains(out, "semantic") {
		t.Fatalf("rank figure incomplete:\n%s", out)
	}
	// The syntactic histogram must concentrate mass at rank 0 (paper's
	// core observation in Figures 4-6).
	if !strings.Contains(out, "#") {
		t.Fatal("histogram bars missing")
	}
}

func TestBucketOf(t *testing.T) {
	cases := map[int]int{-1: len(rankBuckets) - 1, 0: 0, 1: 1, 2: 2, 3: 2, 4: 3, 7: 3, 8: 4, 255: 8, 256: 9, 100000: 9}
	for rank, want := range cases {
		if got := bucketOf(rank); got != want {
			t.Errorf("bucketOf(%d) = %d, want %d", rank, got, want)
		}
	}
}

func TestMethodFiltering(t *testing.T) {
	opts := tinyOptions()
	opts.Methods = []string{"SBW", "kNNJ"}
	opts.Datasets = []string{"D1"}
	rep, err := Run(opts, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rep.Cells {
		if len(c.Results) != 2 {
			t.Fatalf("expected 2 methods, got %d", len(c.Results))
		}
	}
}

func TestAblation(t *testing.T) {
	task := datagen.ByName("D2", 0.05)
	var buf bytes.Buffer
	Ablation(&buf, task)
	out := buf.String()
	for _, want := range []string{
		"1. Contribution", "2. Block Purging", "3. Block Filtering",
		"4. Meta-blocking weighting", "5. Meta-blocking pruning",
		"6. kNN-Join representation", "7. Stop-word",
		"8. Sorted Neighborhood", "9. FAISS index types", "10. Holistic vs step-by-step",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("ablation output missing %q", want)
		}
	}
}

func TestConclusions(t *testing.T) {
	rep, err := Run(tinyOptions(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	Conclusions(&buf, rep)
	out := buf.String()
	for i := 1; i <= 6; i++ {
		if !strings.Contains(out, fmt.Sprintf("%d. ", i)) {
			t.Errorf("conclusion %d missing", i)
		}
	}
	if !strings.Contains(out, "REPRODUCED") {
		t.Error("no verdicts printed")
	}
}

func TestWriteJSON(t *testing.T) {
	opts := tinyOptions()
	opts.Methods = []string{"SBW", "kNNJ", "FAISS"}
	rep, err := Run(opts, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	parsed, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cells, ok := parsed["cells"].([]interface{})
	if !ok || len(cells) == 0 {
		t.Fatalf("no cells in JSON: %v", parsed)
	}
	first := cells[0].(map[string]interface{})
	methods := first["methods"].([]interface{})
	if len(methods) != 3 {
		t.Fatalf("methods = %d", len(methods))
	}
	m0 := methods[0].(map[string]interface{})
	for _, key := range []string{"method", "pc", "pq", "candidates", "rt_ms"} {
		if _, ok := m0[key]; !ok {
			t.Errorf("JSON method missing key %q", key)
		}
	}
}
