package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{0, 10}, {20, 10}, {21, 20}, {50, 30}, {80, 40}, {81, 50}, {99, 50}, {100, 50},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// Even count: nearest rank takes the lower middle, never interpolates.
	if got := percentile([]float64{1, 2, 3, 4}, 50); got != 2 {
		t.Errorf("p50 of 4 samples = %v, want 2", got)
	}
}

// A tail percentile is reported only with ten samples beyond it: p99
// needs 1000 samples.
func TestTailRankNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5000, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 75}, {40, 75}, {39, 50}, {3, 50},
	} {
		if got := tailRank(c.n); got != c.want {
			t.Errorf("tailRank(%d) = p%v, want p%v", c.n, got, c.want)
		}
		if p := tailRank(c.n); p > 50 {
			if beyond := c.n - int(math.Ceil(p*float64(c.n)/100)); beyond < 10 {
				t.Errorf("tailRank(%d) = p%v leaves only %d samples beyond", c.n, p, beyond)
			}
		}
	}
	d := summarize(seqFloats(1000))
	if d.TailP != 99 || d.Tail != 990 || d.P50 != 500 || d.N != 1000 {
		t.Errorf("summarize(1..1000) = %+v", d)
	}
	if d := summarize(seqFloats(120)); d.TailP != 90 || d.Tail != 108 {
		t.Errorf("summarize(1..120) = %+v, want p90 = 108", d)
	}
}

func seqFloats(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: summarize must sort
	}
	return xs
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), which
// is what the driver judges spread with.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([3.1, 2.9, 3.4, 3.0, 3.3, 2.8, 3.2], n=4) == [2.9, 3.1, 3.3]
	q1, q3 = quartiles([]float64{3.1, 2.9, 3.4, 3.0, 3.3, 2.8, 3.2})
	if math.Abs(q1-2.9) > 1e-12 || math.Abs(q3-3.3) > 1e-12 {
		t.Errorf("quartiles = %v, %v; Python gives 2.9, 3.3", q1, q3)
	}
	if got, want := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 5.5/5.5; got != want {
		t.Errorf("spread(1..10) = %v, want %v", got, want)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}
