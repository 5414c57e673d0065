package vector

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// sameFloat is bit equality, except that any NaN equals any NaN: which
// payload an add of two NaNs keeps is the one thing the kernel and the
// compiler's scalar code may disagree on.
func sameFloat(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
}

// checkKernels compares Dot and L2Sq with their Go definitions on
// a[offA:offA+n] and b[offB:offB+n].
func checkKernels(t *testing.T, a, b Vec, offA, offB, n int) bool {
	t.Helper()
	x, y := a[offA:offA+n:offA+n], b[offB:offB+n:offB+n]
	ok := true
	if got, want := Dot(x, y), dotGo(x, y); !sameFloat(got, want) {
		t.Errorf("n=%d offsets %d,%d: Dot = %x (%v), definition %x (%v)", n, offA, offB,
			math.Float64bits(got), got, math.Float64bits(want), want)
		ok = false
	}
	if got, want := L2Sq(x, y), l2SqGo(x, y); !sameFloat(got, want) {
		t.Errorf("n=%d offsets %d,%d: L2Sq = %x (%v), definition %x (%v)", n, offA, offB,
			math.Float64bits(got), got, math.Float64bits(want), want)
		ok = false
	}
	return ok
}

// TestKernelsMatchReference holds the AVX2 kernels to dotGo and l2SqGo
// bit for bit: every length around the four-element window and the
// benchmark's 300, both operands at every float32 offset inside a 32-byte
// line, ordinary values and the ones where a reordered or fused sum would
// show (signed zeros, denormals, near-overflow magnitudes, infinities),
// then random bit patterns. Where the kernel is not in use (purego, no
// AVX2, another GOARCH) both sides are the same function and it passes
// trivially; on amd64 TestKernelSelected logs which ran.
func TestKernelsMatchReference(t *testing.T) {
	lengths := []int{300}
	for n := 0; n <= 67; n++ {
		lengths = append(lengths, n)
	}
	const maxOff = 8
	denormal := math.Float32frombits(1)
	inf := float32(math.Inf(1))
	pools := map[string][]float32{
		"finite": {0, float32(math.Copysign(0, -1)), denormal, -denormal, 1e-39, -1e-39,
			3e38, -3e38, 1, -1, 0.1, -1e-20, 12345.678},
		"infinite": {inf, -inf, 0, float32(math.Copysign(0, -1)), 3e38, -3e38, 1, -2.5, denormal},
	}
	state := uint64(21)
	for _, n := range lengths {
		a, b := make(Vec, n+maxOff), make(Vec, n+maxOff)
		for i := range a {
			// full 24-bit mantissas over 32 binades: sums and squared
			// differences that do not fit a float64 and must round
			ra, rb := splitmix64(&state), splitmix64(&state)
			a[i] = float32(math.Ldexp(float64(int64(ra>>40)-(1<<23)), int(ra&31)-28))
			b[i] = float32(math.Ldexp(float64(int64(rb>>40)-(1<<23)), int(rb&31)-28))
		}
		for offA := 0; offA < maxOff; offA++ {
			for offB := 0; offB < maxOff; offB++ {
				checkKernels(t, a, b, offA, offB, n)
			}
		}
		for name, pool := range pools {
			for round := 0; round < 8; round++ {
				for i := range a {
					a[i] = pool[splitmix64(&state)%uint64(len(pool))]
					b[i] = pool[splitmix64(&state)%uint64(len(pool))]
				}
				if !checkKernels(t, a, b, round%maxOff, (round/2)%maxOff, n) {
					t.Fatalf("pool %q, n=%d, round %d", name, n, round)
				}
			}
		}
	}

	seed := time.Now().UnixNano()
	t.Logf("seed %d", seed)
	prop := func(seed int64, n uint16, offA, offB uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		size := int(n % 512)
		a, b := make(Vec, size+maxOff), make(Vec, size+maxOff)
		for i := range a {
			a[i], b[i] = math.Float32frombits(rng.Uint32()), math.Float32frombits(rng.Uint32())
		}
		return checkKernels(t, a, b, int(offA%maxOff), int(offB%maxOff), size)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(seed))}); err != nil {
		t.Fatal(err)
	}
}

// TestKernelsPanicOnShortOperand: a second operand shorter than the first
// is a caller bug, and stays the slice-bounds panic it was on both paths,
// raised before the kernel reads anything.
func TestKernelsPanicOnShortOperand(t *testing.T) {
	for name, f := range map[string]func(a, b Vec) float64{
		"Dot": Dot, "L2Sq": L2Sq, "dotGo": dotGo, "l2SqGo": l2SqGo,
	} {
		for _, n := range []int{1, 4, 9, 300} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: len(a)=%d, len(b)=%d did not panic", name, n, n-1)
					}
				}()
				f(make(Vec, n), make(Vec, n-1))
			}()
		}
	}
}
