package eft

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

// exactSum64 reports whether s + e == x + y exactly, using math/big.
func exactSum64(x, y, s, e float64) bool {
	lhs := new(big.Float).SetPrec(300).SetFloat64(s)
	lhs.Add(lhs, new(big.Float).SetPrec(300).SetFloat64(e))
	rhs := new(big.Float).SetPrec(300).SetFloat64(x)
	rhs.Add(rhs, new(big.Float).SetPrec(300).SetFloat64(y))
	return lhs.Cmp(rhs) == 0
}

func exactProd64(x, y, p, e float64) bool {
	lhs := new(big.Float).SetPrec(300).SetFloat64(p)
	lhs.Add(lhs, new(big.Float).SetPrec(300).SetFloat64(e))
	rhs := new(big.Float).SetPrec(300).SetFloat64(x)
	rhs.Mul(rhs, new(big.Float).SetPrec(300).SetFloat64(y))
	return lhs.Cmp(rhs) == 0
}

func randFloat64(rng *rand.Rand) float64 {
	// Random sign, mantissa, and a wide but overflow-safe exponent range.
	f := rng.Float64() + 0.5 // [0.5, 1.5)
	e := rng.Intn(600) - 300
	if rng.Intn(2) == 0 {
		f = -f
	}
	return math.Ldexp(f, e)
}

func TestTwoSumExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		x, y := randFloat64(rng), randFloat64(rng)
		// Bias toward near-cancellation half the time.
		if i%2 == 0 {
			y = -x * (1 + float64(rng.Intn(8))*0x1p-52)
		}
		s, e := TwoSum(x, y)
		if s != x+y {
			t.Fatalf("TwoSum(%g,%g): s=%g want %g", x, y, s, x+y)
		}
		if !exactSum64(x, y, s, e) {
			t.Fatalf("TwoSum(%g,%g): s+e != x+y (s=%g e=%g)", x, y, s, e)
		}
	}
}

func TestTwoSumSpecialCases(t *testing.T) {
	cases := [][2]float64{
		{0, 0}, {1, 0}, {0, 1}, {-1, 1}, {1, -1},
		{1, 0x1p-53}, {1, 0x1p-54}, {1, 3 * 0x1p-54},
		{0x1p1023, -0x1p1023}, {0x1p-1022, 0x1p-1074},
		{math.MaxFloat64, -math.MaxFloat64},
	}
	for _, c := range cases {
		s, e := TwoSum(c[0], c[1])
		if !exactSum64(c[0], c[1], s, e) {
			t.Errorf("TwoSum(%g,%g) = (%g,%g): not exact", c[0], c[1], s, e)
		}
	}
}

func TestFastTwoSumExactWhenOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200000; i++ {
		x, y := randFloat64(rng), randFloat64(rng)
		// Enforce the exponent precondition.
		if math.Abs(x) < math.Abs(y) {
			x, y = y, x
		}
		s, e := FastTwoSum(x, y)
		if s != x+y {
			t.Fatalf("FastTwoSum(%g,%g): s=%g want %g", x, y, s, x+y)
		}
		if !exactSum64(x, y, s, e) {
			t.Fatalf("FastTwoSum(%g,%g): s+e != x+y (s=%g e=%g)", x, y, s, e)
		}
	}
}

func TestFastTwoSumZeroInputs(t *testing.T) {
	// Precondition allows x = ±0 or y = ±0 regardless of magnitudes.
	for _, y := range []float64{0, 1, -1, 0x1p300, 0x1p-300} {
		s, e := FastTwoSum(0, y)
		if s != y || e != 0 {
			t.Errorf("FastTwoSum(0,%g) = (%g,%g), want (%g,0)", y, s, e, y)
		}
	}
	for _, x := range []float64{1, -1, 0x1p300} {
		s, e := FastTwoSum(x, 0)
		if s != x || e != 0 {
			t.Errorf("FastTwoSum(%g,0) = (%g,%g), want (%g,0)", x, s, e, x)
		}
	}
}

func TestTwoProdExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200000; i++ {
		// Keep exponents small enough that the error term is representable.
		x := math.Ldexp(rng.Float64()+0.5, rng.Intn(300)-150)
		y := math.Ldexp(rng.Float64()+0.5, rng.Intn(300)-150)
		if rng.Intn(2) == 0 {
			x = -x
		}
		p, e := TwoProd(x, y)
		if p != x*y {
			t.Fatalf("TwoProd(%g,%g): p=%g want %g", x, y, p, x*y)
		}
		if !exactProd64(x, y, p, e) {
			t.Fatalf("TwoProd(%g,%g): p+e != x*y (p=%g e=%g)", x, y, p, e)
		}
	}
}

func TestTwoProdDekkerMatchesFMA(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 100000; i++ {
		x := math.Ldexp(rng.Float64()+0.5, rng.Intn(200)-100)
		y := math.Ldexp(rng.Float64()+0.5, rng.Intn(200)-100)
		p1, e1 := TwoProd(x, y)
		p2, e2 := TwoProdDekker(x, y)
		if p1 != p2 || e1 != e2 {
			t.Fatalf("TwoProdDekker(%g,%g) = (%g,%g), FMA form gives (%g,%g)",
				x, y, p2, e2, p1, e1)
		}
	}
}

func TestSplitProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100000; i++ {
		x := math.Ldexp(rng.Float64()+0.5, rng.Intn(200)-100)
		hi, lo := Split(x)
		if hi+lo != x {
			t.Fatalf("Split(%g): hi+lo = %g != x", x, hi+lo)
		}
		// hi has at most 26 significand bits: hi * 2^26 must round-trip.
		m, e := math.Frexp(hi)
		scaled := math.Ldexp(m, 26)
		if scaled != math.Trunc(scaled) {
			t.Fatalf("Split(%g): hi=%g has more than 26 bits (exp %d)", x, hi, e)
		}
	}
}

// refFMA32 computes the correctly rounded float32 FMA via math/big.
func refFMA32(x, y, z float32) float32 {
	bx := new(big.Float).SetPrec(200).SetFloat64(float64(x))
	by := new(big.Float).SetPrec(200).SetFloat64(float64(y))
	bz := new(big.Float).SetPrec(200).SetFloat64(float64(z))
	bx.Mul(bx, by)
	bx.Add(bx, bz)
	f, _ := bx.Float32()
	return f
}

func randFloat32(rng *rand.Rand) float32 {
	f := float64(rng.Float64() + 0.5)
	e := rng.Intn(120) - 60
	if rng.Intn(2) == 0 {
		f = -f
	}
	return float32(math.Ldexp(f, e))
}

func TestFMA32MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300000; i++ {
		x, y := randFloat32(rng), randFloat32(rng)
		var z float32
		switch i % 3 {
		case 0:
			z = randFloat32(rng)
		case 1:
			z = -x * y // near-total cancellation
		case 2:
			// Cancellation plus a tiny perturbation: the double-rounding trap.
			z = -x * y * (1 + float32(rng.Intn(4))*0x1p-23)
		}
		got := FMA32(x, y, z)
		want := refFMA32(x, y, z)
		if got != want && !(math.IsNaN(float64(got)) && math.IsNaN(float64(want))) {
			t.Fatalf("FMA32(%g,%g,%g) = %g, want %g", x, y, z, got, want)
		}
	}
}

func TestFMA32SubnormalResults(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 100000; i++ {
		// Products that land near or inside the float32 subnormal range.
		x := float32(math.Ldexp(rng.Float64()+0.5, -60-rng.Intn(30)))
		y := float32(math.Ldexp(rng.Float64()+0.5, -60-rng.Intn(30)))
		z := float32(math.Ldexp(rng.Float64()+0.5, -126-rng.Intn(20)))
		if rng.Intn(2) == 0 {
			z = -z
		}
		got := FMA32(x, y, z)
		want := refFMA32(x, y, z)
		if got != want {
			t.Fatalf("FMA32(%g,%g,%g) = %g, want %g (subnormal case)", x, y, z, got, want)
		}
	}
}

// Generic instantiations compile and behave for float32.
func TestGenericFloat32(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	randNarrow := func() float32 {
		// Exponents in [-30, 30] so that TwoProd error terms stay normalized.
		f := float64(rng.Float64() + 0.5)
		e := rng.Intn(60) - 30
		if rng.Intn(2) == 0 {
			f = -f
		}
		return float32(math.Ldexp(f, e))
	}
	for i := 0; i < 100000; i++ {
		x, y := randNarrow(), randNarrow()
		s, e := TwoSum(x, y)
		bs := new(big.Float).SetPrec(120).SetFloat64(float64(s))
		bs.Add(bs, new(big.Float).SetPrec(120).SetFloat64(float64(e)))
		bx := new(big.Float).SetPrec(120).SetFloat64(float64(x))
		bx.Add(bx, new(big.Float).SetPrec(120).SetFloat64(float64(y)))
		if bs.Cmp(bx) != 0 {
			t.Fatalf("TwoSum[float32](%g,%g): not exact", x, y)
		}
		p, pe := TwoProd(x, y)
		bp := new(big.Float).SetPrec(120).SetFloat64(float64(p))
		bp.Add(bp, new(big.Float).SetPrec(120).SetFloat64(float64(pe)))
		bm := new(big.Float).SetPrec(120).SetFloat64(float64(x))
		bm.Mul(bm, new(big.Float).SetPrec(120).SetFloat64(float64(y)))
		if bp.Cmp(bm) != 0 {
			t.Fatalf("TwoProd[float32](%g,%g): not exact (p=%g e=%g)", x, y, p, pe)
		}
	}
}

func TestQuickTwoSumCommutative(t *testing.T) {
	f := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x+y, 0) {
			return true
		}
		s1, e1 := TwoSum(x, y)
		s2, e2 := TwoSum(y, x)
		return s1 == s2 && e1 == e2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}

func TestQuickTwoProdCommutative(t *testing.T) {
	f := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
			return true
		}
		p1, e1 := TwoProd(x, y)
		p2, e2 := TwoProd(y, x)
		return p1 == p2 && (e1 == e2 || (math.IsNaN(e1) && math.IsNaN(e2)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}

func TestTwoSumNonOverlap(t *testing.T) {
	// The error term never overlaps the sum: |e| ≤ ulp(s)/2.
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 100000; i++ {
		x, y := randFloat64(rng), randFloat64(rng)
		s, e := TwoSum(x, y)
		if s == 0 {
			if e != 0 {
				t.Fatalf("TwoSum(%g,%g): s=0 but e=%g", x, y, e)
			}
			continue
		}
		if math.Abs(e) > Ulp64(s)/2 {
			t.Fatalf("TwoSum(%g,%g): |e|=%g > ulp(s)/2=%g", x, y, e, Ulp64(s)/2)
		}
	}
}

func BenchmarkTwoSum(b *testing.B) {
	x, y := 1.0, 0x1p-30
	var s, e float64
	for i := 0; i < b.N; i++ {
		s, e = TwoSum(x, y)
		x = s + 0x1p-60
	}
	_, _ = s, e
}

func BenchmarkFastTwoSum(b *testing.B) {
	x, y := 1.0, 0x1p-30
	var s, e float64
	for i := 0; i < b.N; i++ {
		s, e = FastTwoSum(x, y)
		x = s + 0x1p-60
	}
	_, _ = s, e
}

func BenchmarkTwoProd(b *testing.B) {
	x, y := 1.000000001, 0.999999999
	var p, e float64
	for i := 0; i < b.N; i++ {
		p, e = TwoProd(x, y)
		x = p
	}
	_, _ = p, e
}

func BenchmarkFMA32(b *testing.B) {
	x, y, z := float32(1.0000001), float32(0.9999999), float32(-1.0)
	var r float32
	for i := 0; i < b.N; i++ {
		r = FMA32(x, y, z)
	}
	_ = r
}
