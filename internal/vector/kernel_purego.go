//go:build !amd64 || purego

package vector

// Dot returns the inner product of two equal-length vectors, accumulated
// in float64 in the fixed order dotGo defines.
func Dot(a, b Vec) float64 { return dotGo(a, b) }

// L2Sq returns the squared Euclidean distance between two equal-length
// vectors, accumulated in float64 in the fixed order l2SqGo defines.
func L2Sq(a, b Vec) float64 { return l2SqGo(a, b) }
