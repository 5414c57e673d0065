package sparse

import "math"

// KNNFloor is the selection step of a kNN-Join probe, whose k counts
// distinct similarity values, not candidates: given the similarity of
// every candidate of one probe (zero for a candidate that is not to be
// counted, such as a deleted one) it returns the lowest value within the
// k highest distinct positive ones. The probe then keeps the candidates
// with sim >= KNNFloor and sorts only those; the full candidate list,
// thousands per query at ER's low similarities, is never built or sorted.
//
// With fewer than k distinct positive values — always the case for no
// more than k candidates, which are not even looked at — every positive
// similarity is within them and the result is the smallest positive
// float64, so the one comparison is the whole cut, positivity included.
func KNNFloor(sims []float64, k int) float64 {
	if len(sims) <= k {
		return math.SmallestNonzeroFloat64
	}
	// top holds the highest distinct values seen so far, descending. It
	// grows by append and is never sized by k, which arrives from the
	// network: it holds at most as many values as there are candidates.
	var buf [8]float64
	top := buf[:0]
	for _, sim := range sims {
		n := len(top)
		if sim <= 0 || (n == k && sim <= top[n-1]) {
			continue
		}
		i := n
		for i > 0 && top[i-1] < sim {
			i--
		}
		if i > 0 && top[i-1] == sim {
			continue
		}
		if n < k {
			top = append(top, 0)
		}
		copy(top[i+1:], top[i:]) // at k values this drops the lowest
		top[i] = sim
	}
	if len(top) < k {
		return math.SmallestNonzeroFloat64
	}
	return top[len(top)-1]
}
