package main

import "testing"

func TestWorseningAndVerdict(t *testing.T) {
	lower := metricSpec{Name: "setup_s", Better: "lower", Bound: 0.25}
	higher := metricSpec{Name: "throughput_ops_s", Better: "higher"}
	if got := worsening(lower, 2, 3); got != 0.5 {
		t.Errorf("latency 2 -> 3 worsens by %v, want 0.5", got)
	}
	if got := worsening(higher, 100, 80); got != 0.2 {
		t.Errorf("throughput 100 -> 80 worsens by %v, want 0.2", got)
	}
	for _, c := range []struct {
		worse, spreadA, spreadB float64
		runs                    int
		want                    string
	}{
		{0.30, 0.05, 0.05, 10, "REGRESSED"},
		{0.10, 0.05, 0.05, 10, "unchanged"},
		{-0.10, 0.05, 0.05, 10, "improved"},
		{-0.03, 0.05, 0.05, 10, "unchanged"}, // inside the spread
		{0.30, 0.05, 0.40, 10, "unresolved"}, // spread beyond the bound hides any verdict
		{-0.10, 0, 0, 1, "unchanged"},        // single documents: only a gain beyond the bound counts
		{-0.30, 0, 0, 1, "improved"},
	} {
		if got := verdict(lower, c.worse, c.spreadA, c.spreadB, c.runs); got != c.want {
			t.Errorf("verdict(worse %v, spreads %v/%v, %d runs) = %s, want %s", c.worse, c.spreadA, c.spreadB, c.runs, got, c.want)
		}
	}
	// A metric without a bound is judged against the spread alone.
	for _, c := range []struct {
		worse, spreadA, spreadB float64
		runs                    int
		want                    string
	}{
		{0.30, 0.05, 0.20, 10, "worse than the spread"},
		{0.10, 0.05, 0.20, 10, "within the spread"},
		{-0.30, 0.05, 0.20, 10, "improved"},
		{-0.30, 0, 0, 1, "unresolved"},
	} {
		if got := verdict(higher, c.worse, c.spreadA, c.spreadB, c.runs); got != c.want {
			t.Errorf("unbounded verdict(worse %v, spreads %v/%v, %d runs) = %s, want %s", c.worse, c.spreadA, c.spreadB, c.runs, got, c.want)
		}
	}
}
