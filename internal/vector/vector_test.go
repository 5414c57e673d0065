package vector

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDotAndNorm(t *testing.T) {
	a := Vec{1, 2, 3}
	b := Vec{4, 5, 6}
	if got := Dot(a, b); got != 32 {
		t.Fatalf("dot = %v", got)
	}
	if got := Norm(Vec{3, 4}); got != 5 {
		t.Fatalf("norm = %v", got)
	}
	if got := L2Sq(a, b); got != 27 {
		t.Fatalf("l2sq = %v", got)
	}
}

func TestNormalize(t *testing.T) {
	v := Normalize(Vec{3, 4})
	if math.Abs(Norm(v)-1) > 1e-6 {
		t.Fatalf("normalized norm = %v", Norm(v))
	}
	z := Normalize(Vec{0, 0})
	if z[0] != 0 || z[1] != 0 {
		t.Fatal("zero vector must stay zero")
	}
}

func TestEmbedderDeterministic(t *testing.T) {
	e1 := NewEmbedder(64)
	e2 := NewEmbedder(64)
	a := e1.Text("canon powershot camera")
	b := e2.Text("canon powershot camera")
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("embedding not deterministic across embedders")
		}
	}
}

func TestEmbedderUnitNorm(t *testing.T) {
	e := NewEmbedder(64)
	for _, s := range []string{"a", "canon camera", "the quick brown fox"} {
		if n := Norm(e.Text(s)); math.Abs(n-1) > 1e-5 {
			t.Fatalf("Text(%q) norm = %v", s, n)
		}
	}
	if n := Norm(e.Text("")); n != 0 {
		t.Fatalf("empty text should embed to zero, norm = %v", n)
	}
}

func TestEmbedderSubwordRobustness(t *testing.T) {
	// A typo'd word must stay far closer to the original than an unrelated
	// word, because they share most subword grams (the fastText property
	// the substitution must preserve).
	e := NewEmbedder(Dim)
	orig := e.Word("powershot")
	typo := e.Word("powershut")
	other := e.Word("bibliography")
	simTypo := Dot(orig, typo)
	simOther := Dot(orig, other)
	if simTypo <= simOther+0.2 {
		t.Fatalf("typo similarity %.3f not well above unrelated %.3f", simTypo, simOther)
	}
}

func TestEmbedderWordOrderInsensitive(t *testing.T) {
	e := NewEmbedder(Dim)
	a := e.Text("canon camera black")
	b := e.Text("black canon camera")
	if Dot(a, b) < 0.999 {
		t.Fatalf("tuple embedding should be order-insensitive, sim = %v", Dot(a, b))
	}
}

func TestGaussianMoments(t *testing.T) {
	out := make([]float64, 100000)
	Gaussian(out, 42)
	var mean, varSum float64
	for _, x := range out {
		mean += x
	}
	mean /= float64(len(out))
	for _, x := range out {
		varSum += (x - mean) * (x - mean)
	}
	variance := varSum / float64(len(out))
	if math.Abs(mean) > 0.02 {
		t.Fatalf("gaussian mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("gaussian variance = %v", variance)
	}
}

func TestNormalizeProperty(t *testing.T) {
	f := func(xs []float32) bool {
		if len(xs) == 0 {
			return true
		}
		v := make(Vec, len(xs))
		allZero := true
		for i, x := range xs {
			if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
				return true
			}
			// Keep magnitudes sane to avoid float32 overflow artifacts.
			v[i] = x / 1e10
			if v[i] != 0 {
				allZero = false
			}
		}
		n := Norm(Normalize(v))
		if allZero || n == 0 {
			return true
		}
		return math.Abs(n-1) < 1e-3
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestKernelsSymmetricAndExactEnough pins what the dense indexes lean
// on: Dot and L2Sq are symmetric bit for bit (a link's distance is
// stored once and read from both ends), bitwise-equal inputs score
// bitwise-equal (every (score, id) tie-break), and the multi-accumulator
// sum stays within rounding of the sequential float64 sum, at lengths on
// both sides of the unroll and at the benchmark's 300.
func TestKernelsSymmetricAndExactEnough(t *testing.T) {
	lengths := []int{300}
	for n := 0; n <= 17; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		a, b := make(Vec, n), make(Vec, n)
		state := uint64(n) + 1
		for i := range a {
			a[i] = float32(int64(splitmix64(&state)>>40)-(1<<23)) / 4096
			b[i] = float32(int64(splitmix64(&state)>>40)-(1<<23)) / 8192
		}
		var dot, l2, dotMag float64
		for i := range a {
			p := float64(a[i]) * float64(b[i])
			dot += p
			dotMag += math.Abs(p)
			d := float64(a[i]) - float64(b[i])
			l2 += d * d
		}
		if got, rev := Dot(a, b), Dot(b, a); math.Float64bits(got) != math.Float64bits(rev) {
			t.Fatalf("n=%d: Dot(a,b)=%v but Dot(b,a)=%v", n, got, rev)
		} else if math.Abs(got-dot) > 1e-12*dotMag {
			t.Fatalf("n=%d: Dot=%v, sequential sum %v", n, got, dot)
		}
		if got, rev := L2Sq(a, b), L2Sq(b, a); math.Float64bits(got) != math.Float64bits(rev) {
			t.Fatalf("n=%d: L2Sq(a,b)=%v but L2Sq(b,a)=%v", n, got, rev)
		} else if math.Abs(got-l2) > 1e-12*l2 {
			t.Fatalf("n=%d: L2Sq=%v, sequential sum %v", n, got, l2)
		}
		a2, b2 := Clone(a), Clone(b)
		if math.Float64bits(Dot(a, b)) != math.Float64bits(Dot(a2, b2)) ||
			math.Float64bits(L2Sq(a, b)) != math.Float64bits(L2Sq(a2, b2)) {
			t.Fatalf("n=%d: bitwise-equal vectors scored differently", n)
		}
		if L2Sq(a, a2) != 0 {
			t.Fatalf("n=%d: L2Sq of a vector with its copy = %v", n, L2Sq(a, a2))
		}
	}
}

var kernelSink float64

func BenchmarkDot300(b *testing.B) {
	x, y := make(Vec, Dim), make(Vec, Dim)
	for i := range x {
		x[i], y[i] = float32(i%7)-3, float32(i%5)-2
	}
	for i := 0; i < b.N; i++ {
		kernelSink += Dot(x, y)
	}
}

func BenchmarkL2Sq300(b *testing.B) {
	x, y := make(Vec, Dim), make(Vec, Dim)
	for i := range x {
		x[i], y[i] = float32(i%7)-3, float32(i%5)-2
	}
	for i := 0; i < b.N; i++ {
		kernelSink += L2Sq(x, y)
	}
}
