//go:build amd64 && !purego

package vector

// useKernel reports whether Dot and L2Sq run the AVX2 kernels of
// kernel_amd64.s: the CPU has AVX2 and the OS saves the ymm registers.
// Otherwise, and on every other GOARCH or under the purego build tag
// (kernel_purego.go), they run their Go definitions, dotGo and l2SqGo.
var useKernel = cpuHasAVX2()

func cpuHasAVX2() bool {
	const osxsave, avx, xcr0XMMYMM, avx2 = 1 << 27, 1 << 28, 0b110, 1 << 5
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&xcr0XMMYMM != xcr0XMMYMM {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0; only valid with OSXSAVE set.
func xgetbv() (eax, edx uint32)

// dotLanes and l2SqLanes run the four-element windows of dotGo and
// l2SqGo over a[:len(a)&^3] and the same prefix of b, one float64 lane of
// a ymm accumulator per partial sum, and store lane i — s_i — in lanes[i].
// len(b) must be at least len(a).
//
//go:noescape
func dotLanes(a, b Vec, lanes *[4]float64)

//go:noescape
func l2SqLanes(a, b Vec, lanes *[4]float64)

// Dot returns the inner product of two equal-length vectors, accumulated
// in float64 in the fixed order dotGo defines.
func Dot(a, b Vec) float64 {
	b = b[:len(a)]
	if !useKernel {
		return dotGo(a, b)
	}
	var l [4]float64
	dotLanes(a, b, &l)
	s := (l[0] + l[1]) + (l[2] + l[3])
	for i := len(a) &^ 3; i < len(a); i++ {
		s += float64(a[i]) * float64(b[i])
	}
	return s
}

// L2Sq returns the squared Euclidean distance between two equal-length
// vectors, accumulated in float64 in the fixed order l2SqGo defines.
func L2Sq(a, b Vec) float64 {
	b = b[:len(a)]
	if !useKernel {
		return l2SqGo(a, b)
	}
	var l [4]float64
	l2SqLanes(a, b, &l)
	s := (l[0] + l[1]) + (l[2] + l[3])
	for i := len(a) &^ 3; i < len(a); i++ {
		d := float64(a[i]) - float64(b[i])
		s += d * d
	}
	return s
}
