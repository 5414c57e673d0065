package bench

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"testing"
)

var updateTuned = flag.Bool("update-tuned", false,
	"rewrite testdata/tuned.golden; only for a change that is meant to move a tuned row")

// TestTunedRowsGolden pins every tuned row — configuration, PC, PQ, |C|
// (Table XI), whether τ was reached — to testdata/tuned.golden, which
// was recorded at PR 19, the commit before the NN workflow was written
// once: all 17 methods on D2 in both settings, and the seven non-LSH NN
// methods on D3 and D8 at scale 0.03, where K climbs to 75, RVS wins
// both ways, AH wins a cell and eleven rows miss τ (the LSH grids take
// minutes there). It is the A/B for any change under core or tuning: a
// refactor leaves it green, and a red line names the row that moved.
func TestTunedRowsGolden(t *testing.T) {
	wide := tinyOptions()
	wide.Scale = 0.03
	wide.Datasets = []string{"D3", "D8"}
	wide.Methods = []string{"eps-Join", "kNNJ", "DkNN", "FAISS", "SCANN", "DeepBlocker", "DDB"}

	var got bytes.Buffer
	for _, opts := range []Options{tinyOptions(), wide} {
		var log bytes.Buffer
		rep, err := Run(opts, &log)
		if err != nil {
			t.Fatal(err)
		}
		got.Write(rtPattern.ReplaceAll(log.Bytes(), []byte("rt=X")))
		for _, c := range rep.Cells {
			for _, name := range MethodNames {
				if mr := c.Results[name]; mr != nil {
					fmt.Fprintf(&got, "%s %s satisfied=%v matches=%d\n", c.Key(), name, mr.Satisfied, mr.Metrics.Matches)
				}
			}
		}
	}

	const path = "testdata/tuned.golden"
	if *updateTuned {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w []byte
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if !bytes.Equal(g, w) {
			t.Errorf("line %d:\n  got  %s\n  want %s", i+1, g, w)
		}
	}
}
