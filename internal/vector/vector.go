// Package vector provides the dense-vector substrate of the dense NN
// methods: fixed-dimensional float32 vectors, the usual inner-product and
// Euclidean operations, and a deterministic hashed-subword embedder that
// substitutes the paper's pre-trained fastText model (see DESIGN.md).
package vector

import "math"

// Dim is the embedding dimensionality used throughout the benchmark,
// matching the 300-dimensional fastText vectors of the paper.
const Dim = 300

// Vec is a dense vector.
type Vec []float32

// dotGo is the definition of Dot: the inner product of two equal-length
// vectors, accumulated in float64. Four independent partial sums hide the
// latency of the floating-point add, which a single running sum
// serializes on; the summation order is fixed, and every term is a
// commutative product, so Dot(a, b) == Dot(b, a) bit for bit.
//
// It is also the implementation wherever the AVX2 kernel is not
// (kernel_amd64.go says when), and the kernel is held to it bit for bit:
// partial sum s_i is lane i of one accumulator there, so a change to the
// order of the adds here is a change to the kernel too.
func dotGo(a, b Vec) float64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		x, y := a[i:i+4:i+4], b[i:i+4:i+4] // one window check, then no bounds check per element
		s0 += float64(x[0]) * float64(y[0])
		s1 += float64(x[1]) * float64(y[1])
		s2 += float64(x[2]) * float64(y[2])
		s3 += float64(x[3]) * float64(y[3])
	}
	s := (s0 + s1) + (s2 + s3)
	for ; i < len(a); i++ {
		s += float64(a[i]) * float64(b[i])
	}
	return s
}

// Norm returns the Euclidean norm of v.
func Norm(v Vec) float64 {
	return math.Sqrt(Dot(v, v))
}

// Normalize scales v to unit norm in place and returns it. The zero vector
// is left unchanged.
func Normalize(v Vec) Vec {
	Scale(v, unitScale(v))
	return v
}

// unitScale is the factor Normalize scales v by: float32(1/‖v‖), or 1 for
// the zero vector.
func unitScale(v Vec) float32 {
	if n := Norm(v); n != 0 {
		return float32(1 / n)
	}
	return 1
}

// l2SqGo is the definition of L2Sq: the squared Euclidean distance
// between two equal-length vectors, accumulated like dotGo; a difference
// and its negation square to the same value, so L2Sq(a, b) == L2Sq(b, a)
// bit for bit.
func l2SqGo(a, b Vec) float64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		x, y := a[i:i+4:i+4], b[i:i+4:i+4]
		d0 := float64(x[0]) - float64(y[0])
		d1 := float64(x[1]) - float64(y[1])
		d2 := float64(x[2]) - float64(y[2])
		d3 := float64(x[3]) - float64(y[3])
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	s := (s0 + s1) + (s2 + s3)
	for ; i < len(a); i++ {
		d := float64(a[i]) - float64(b[i])
		s += d * d
	}
	return s
}

// Add accumulates b into a.
func Add(a, b Vec) {
	for i := range a {
		a[i] += b[i]
	}
}

// Scale multiplies every component of v by x.
func Scale(v Vec, x float32) {
	for i := range v {
		v[i] *= x
	}
}

// Clone returns a copy of v.
func Clone(v Vec) Vec {
	out := make(Vec, len(v))
	copy(out, v)
	return out
}
