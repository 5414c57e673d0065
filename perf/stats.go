package main

import (
	"math"
	"sort"
)

// percentile is the nearest-rank percentile of an ascending slice: the
// smallest sample with at least p percent of all samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted)) / 100))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tailRank picks the percentile a tail metric may honestly report for n
// samples: the highest of 99, 95, 90, 75 with at least ten samples
// beyond it, 50 when even p75 has fewer.
func tailRank(n int) float64 {
	for _, p := range []float64{99, 95, 90, 75} {
		if n-int(math.Ceil(p*float64(n)/100)) >= 10 {
			return p
		}
	}
	return 50
}

// dist summarises latency samples (any unit).
type dist struct {
	N     int
	P50   float64
	Tail  float64 // value at percentile TailP
	TailP float64 // 99 when N >= 1000, lower otherwise (tailRank)
	Mean  float64
}

func summarize(xs []float64) dist {
	if len(xs) == 0 {
		return dist{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	p := tailRank(len(s))
	return dist{N: len(s), P50: percentile(s, 50), Tail: percentile(s, p), TailP: p, Mean: sum / float64(len(s))}
}

// median is the interpolated median, as statistics.median gives it.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns Q1 and Q3 the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), so -aa judges
// spread exactly as the driver will.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 { // i-th of 4 cut points
		j, delta := i*(n+1)/4, i*(n+1)%4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}
