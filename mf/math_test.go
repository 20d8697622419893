package mf

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// ---- 400-bit reference implementations (test oracles) ----

const refPrec = 420

func bigExp(x *big.Float) *big.Float {
	// Scale down by 2^20, Taylor, square back up.
	r := new(big.Float).SetPrec(refPrec).Set(x)
	e := r.MantExp(r) // r ← mantissa ∈ [0.5, 1)
	r.SetMantExp(r, e-20)
	sum := big.NewFloat(1).SetPrec(refPrec)
	term := big.NewFloat(1).SetPrec(refPrec)
	for i := 1; i < 60; i++ {
		term.Mul(term, r)
		term.Quo(term, big.NewFloat(float64(i)))
		sum.Add(sum, term)
	}
	for i := 0; i < 20; i++ {
		sum.Mul(sum, sum)
	}
	return sum
}

func bigLog(x *big.Float) *big.Float {
	f, _ := x.Float64()
	y := new(big.Float).SetPrec(refPrec).SetFloat64(math.Log(f))
	one := big.NewFloat(1)
	for i := 0; i < 6; i++ {
		ey := bigExp(new(big.Float).SetPrec(refPrec).Neg(y))
		t := new(big.Float).SetPrec(refPrec).Mul(x, ey)
		t.Sub(t, one)
		y.Add(y, t)
	}
	return y
}

func bigSinCos(x *big.Float) (*big.Float, *big.Float) {
	// Plain Taylor: test arguments stay below |x| ≤ 30, so 420 bits leave
	// ample headroom over the ≤ e^30 intermediate terms.
	x2 := new(big.Float).SetPrec(refPrec).Mul(x, x)
	sin := new(big.Float).SetPrec(refPrec).Set(x)
	term := new(big.Float).SetPrec(refPrec).Set(x)
	for i := 3; i < 220; i += 2 {
		term.Mul(term, x2)
		term.Quo(term, big.NewFloat(float64((i-1)*i)))
		term.Neg(term)
		sin.Add(sin, term)
	}
	cos := big.NewFloat(1).SetPrec(refPrec)
	term = big.NewFloat(1).SetPrec(refPrec)
	for i := 2; i < 220; i += 2 {
		term.Mul(term, x2)
		term.Quo(term, big.NewFloat(float64((i-1)*i)))
		term.Neg(term)
		cos.Add(cos, term)
	}
	return sin, cos
}

func relBitsBig(want, got *big.Float) float64 {
	diff := new(big.Float).SetPrec(refPrec).Sub(want, got)
	if diff.Sign() == 0 {
		return math.Inf(1)
	}
	if want.Sign() == 0 {
		return math.Inf(-1)
	}
	rel := new(big.Float).Quo(diff.Abs(diff), new(big.Float).Abs(want))
	f, _ := rel.Float64()
	return -math.Log2(f)
}

// target accuracy in bits per format (a few ulps of margin).
var fnBits = map[int]float64{2: 92, 3: 144, 4: 196}

func TestExpAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		xf := rng.Float64()*40 - 20
		xb := new(big.Float).SetPrec(refPrec).SetFloat64(xf)
		want := bigExp(xb)
		if b := relBitsBig(want, New2(xf).Exp().Big()); b < fnBits[2] {
			t.Fatalf("F2 Exp(%g): 2^-%.1f", xf, b)
		}
		if b := relBitsBig(want, New3(xf).Exp().Big()); b < fnBits[3] {
			t.Fatalf("F3 Exp(%g): 2^-%.1f", xf, b)
		}
		if b := relBitsBig(want, New4(xf).Exp().Big()); b < fnBits[4] {
			t.Fatalf("F4 Exp(%g): 2^-%.1f", xf, b)
		}
	}
}

func TestExpSpecials(t *testing.T) {
	if got := New4(0.0).Exp(); !got.Eq(New4(1.0)) {
		t.Errorf("exp(0) = %v", got)
	}
	if got := New2(1000.0).Exp().Float(); !math.IsInf(got, 1) {
		t.Errorf("exp(1000) = %g", got)
	}
	if got := New2(-1000.0).Exp(); !got.IsZero() {
		t.Errorf("exp(-1000) = %v", got)
	}
	if got := New3(math.NaN()).Exp().Float(); !math.IsNaN(got) {
		t.Errorf("exp(NaN) = %g", got)
	}
	// e^1 must match the E constant.
	d := New4(1.0).Exp().Sub(E4)
	if f, _ := d.Big().Float64(); math.Abs(f) > 0x1p-200 {
		t.Errorf("exp(1) - e = %g", f)
	}
}

func TestLogAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 300; i++ {
		xf := math.Exp(rng.Float64()*40 - 20)
		xb := new(big.Float).SetPrec(refPrec).SetFloat64(xf)
		want := bigLog(xb)
		if b := relBitsBig(want, New2(xf).Log().Big()); b < fnBits[2] {
			t.Fatalf("F2 Log(%g): 2^-%.1f", xf, b)
		}
		if b := relBitsBig(want, New4(xf).Log().Big()); b < fnBits[4] {
			t.Fatalf("F4 Log(%g): 2^-%.1f", xf, b)
		}
	}
}

func TestLogExpRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		x := New4(rng.Float64()*10 + 0.1)
		back := x.Log().Exp()
		d := back.Sub(x).Div(x)
		if f, _ := d.Big().Float64(); math.Abs(f) > 0x1p-196 {
			t.Fatalf("exp(log(%v)) relative error %g", x.Float(), f)
		}
	}
	if !math.IsNaN(New2(-1.0).Log().Float()) {
		t.Error("log(-1) should be NaN")
	}
}

func TestSinCosAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 300; i++ {
		xf := rng.Float64()*40 - 20
		xb := new(big.Float).SetPrec(refPrec).SetFloat64(xf)
		ws, wc := bigSinCos(xb)
		s4, c4 := New4(xf).SinCos()
		// Absolute tolerance relative to 1 (sin/cos near zeros have huge
		// relative error for any fixed-precision format).
		ds := new(big.Float).Sub(ws, s4.Big())
		dc := new(big.Float).Sub(wc, c4.Big())
		fs, _ := ds.Float64()
		fc, _ := dc.Float64()
		if math.Abs(fs) > 0x1p-196*40 || math.Abs(fc) > 0x1p-196*40 {
			t.Fatalf("F4 SinCos(%g): ds=%g dc=%g", xf, fs, fc)
		}
		s2, c2 := New2(xf).SinCos()
		ds2 := new(big.Float).Sub(ws, s2.Big())
		dc2 := new(big.Float).Sub(wc, c2.Big())
		fs2, _ := ds2.Float64()
		fc2, _ := dc2.Float64()
		if math.Abs(fs2) > 0x1p-92*40 || math.Abs(fc2) > 0x1p-92*40 {
			t.Fatalf("F2 SinCos(%g): ds=%g dc=%g", xf, fs2, fc2)
		}
	}
}

func TestPythagoreanIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		x := New3(rng.Float64()*200 - 100)
		s, c := x.SinCos()
		d := s.Mul(s).Add(c.Mul(c)).AddFloat(-1)
		if f, _ := d.Big().Float64(); math.Abs(f) > 0x1p-144 {
			t.Fatalf("sin²+cos²-1 = %g at x=%v", f, x.Float())
		}
	}
}

func TestInverseTrig(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 200; i++ {
		// asin(sin x) = x on the principal branch.
		xf := (rng.Float64()*2 - 1) * 1.5
		x := New4(xf)
		back := x.Sin().Asin()
		if f, _ := back.Sub(x).Big().Float64(); math.Abs(f) > 0x1p-190 {
			t.Fatalf("asin(sin(%g)) error %g", xf, f)
		}
		// atan(tan x) = x for |x| < π/2.
		xf = (rng.Float64()*2 - 1) * 1.4
		x = New4(xf)
		back = x.Tan().Atan()
		if f, _ := back.Sub(x).Big().Float64(); math.Abs(f) > 0x1p-190 {
			t.Fatalf("atan(tan(%g)) error %g", xf, f)
		}
	}
	// Edge values.
	if f, _ := New4(1.0).Asin().Sub(Pi4.MulPow2(-1)).Big().Float64(); math.Abs(f) > 0x1p-200 {
		t.Errorf("asin(1) != π/2: %g", f)
	}
	if got := New2(1.5).Asin().Float(); !math.IsNaN(got) {
		t.Error("asin(1.5) should be NaN")
	}
	if f, _ := New4(1.0).Atan().MulFloat(4).Sub(Pi4).Big().Float64(); math.Abs(f) > 0x1p-190 {
		t.Errorf("4·atan(1) != π: %g", f)
	}
	if f, _ := New4(0.0).Acos().Sub(Pi4.MulPow2(-1)).Big().Float64(); math.Abs(f) > 0x1p-200 {
		t.Errorf("acos(0) != π/2: %g", f)
	}
}

func TestAtan2Quadrants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 400; i++ {
		yf := rng.NormFloat64()
		xf := rng.NormFloat64()
		got := Atan2F3(New3(yf), New3(xf)).Float()
		want := math.Atan2(yf, xf)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("Atan2(%g,%g) = %g, want %g", yf, xf, got, want)
		}
	}
	if Atan2F2(New2(0.0), New2(0.0)).Float() != 0 {
		t.Error("atan2(0,0) != 0")
	}
	if f, _ := Atan2F4(New4(0.0), New4(-2.0)).Sub(Pi4).Big().Float64(); math.Abs(f) > 0x1p-200 {
		t.Errorf("atan2(0,-2) != π: %g", f)
	}
}

func TestPow(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 200; i++ {
		x := New4(rng.Float64()*5 + 0.1)
		// x^2 via Pow matches x·x.
		viaPow := x.Pow(New4(2.0))
		direct := x.Mul(x)
		d := viaPow.Sub(direct).Div(direct)
		if f, _ := d.Big().Float64(); math.Abs(f) > 0x1p-190 {
			t.Fatalf("Pow(%v, 2) relative error %g", x.Float(), f)
		}
	}
	// PowInt by repeated multiplication.
	x := MustParse3[float64]("1.0000000000000000000001")
	byMul := New3(1.0)
	for i := 0; i < 13; i++ {
		byMul = byMul.Mul(x)
	}
	d := x.PowInt(13).Sub(byMul)
	if f, _ := d.Big().Float64(); math.Abs(f) > 0x1p-145 {
		t.Errorf("PowInt(13) vs repeated mul: %g", f)
	}
	// Negative exponent.
	inv := x.PowInt(-3)
	want := New3(1.0).Div(x.Mul(x).Mul(x))
	if f, _ := inv.Sub(want).Big().Float64(); math.Abs(f) > 0x1p-145 {
		t.Errorf("PowInt(-3): %g", f)
	}
	// Specials.
	if !New2(3.0).Pow(New2(0.0)).Eq(New2(1.0)) {
		t.Error("x^0 != 1")
	}
	if got := New2(-2.0).Pow(New2(0.5)).Float(); !math.IsNaN(got) {
		t.Error("(-2)^0.5 should be NaN")
	}
}

func TestHyperbolic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		xf := rng.Float64()*20 - 10
		x := New3(xf)
		s, c := x.Sinh(), x.Cosh()
		// cosh² - sinh² = 1, with the absolute tolerance scaled by cosh²
		// (the identity subtracts two numbers of that magnitude).
		d := c.Mul(c).Sub(s.Mul(s)).AddFloat(-1)
		coshSq := math.Cosh(xf) * math.Cosh(xf)
		if f, _ := d.Big().Float64(); math.Abs(f) > 0x1p-140*math.Max(1, coshSq) {
			t.Fatalf("cosh²-sinh²-1 = %g at x=%g", f, xf)
		}
		// tanh = sinh/cosh and |tanh| < 1.
		th := x.Tanh()
		if math.Abs(th.Float()) > 1 {
			t.Fatalf("|tanh| > 1 at x=%g", xf)
		}
	}
	// Small-argument sinh keeps full relative precision (Taylor branch).
	x := New4(1e-8)
	s := x.Sinh()
	// sinh(x) ≈ x + x³/6: relative deviation from x is ~1.7e-17.
	rel := s.Sub(x).Div(x)
	f, _ := rel.Big().Float64()
	if math.Abs(f-1.0/6e16) > 1e-20 {
		t.Errorf("sinh(1e-8) Taylor branch off: rel = %g", f)
	}
}

// TestLogExtremes pins the exponent-splitting log path: subnormal and
// near-max arguments (where Newton directly on x would overflow the exp
// kernel) and arguments within a hair of 1 (where the log1p route keeps
// relative accuracy through the cancellation).
func TestLogExtremes(t *testing.T) {
	check := func(name string, got, want *big.Float, bits float64) {
		t.Helper()
		if b := relBitsBig(want, got); b < bits {
			t.Errorf("%s: 2^-%.1f, want ≥ 2^-%.0f (got %s want %s)",
				name, b, bits, got.Text('g', 25), want.Text('g', 25))
		}
	}
	// Subnormal argument: ln(2^-1074) = -744.44…; the old Newton form
	// returned +Inf here because exp(+744) overflows.
	sub := math.Ldexp(1, -1074)
	wantSub := refLog(new(big.Float).SetPrec(refPrec).SetFloat64(sub))
	check("Log2(2^-1074)", New2(sub).Log().Big(), wantSub, fnBits[2])
	check("Log4(2^-1074)", New4(sub).Log().Big(), wantSub, fnBits[4])
	// Near-max argument.
	wantMax := refLog(new(big.Float).SetPrec(refPrec).SetFloat64(math.MaxFloat64))
	check("Log3(max)", New3(math.MaxFloat64).Log().Big(), wantMax, fnBits[3])
	// log(1+δ) for tiny δ must be relative-accurate, not absolute.
	for _, d := range []float64{1e-25, -3e-28, 0x1p-90} {
		x2 := New2(1.0).Add(New2(d))
		want := refLog(new(big.Float).SetPrec(refPrec).Add(
			big.NewFloat(1), new(big.Float).SetFloat64(d)))
		check("Log2(1+δ)", x2.Log().Big(), want, fnBits[2])
		x4 := New4(1.0).Add(New4(d))
		check("Log4(1+δ)", x4.Log().Big(), want, fnBits[4])
	}
	if got := New2(1.0).Log(); !got.IsZero() {
		t.Errorf("log(1) = %v, want exact 0", got)
	}
}

// refLog is bigLog without the float64-seed restriction (bigLog seeds
// Newton from math.Log of the argument, which flushes subnormal inputs'
// precision; this seeds from the exponent split instead).
func refLog(x *big.Float) *big.Float {
	mant := new(big.Float)
	e := x.MantExp(mant) // x = mant·2^e, mant ∈ [0.5, 1)
	mf, _ := mant.Float64()
	y := new(big.Float).SetPrec(refPrec).SetFloat64(math.Log(mf))
	one := big.NewFloat(1)
	for i := 0; i < 6; i++ {
		ey := bigExp(new(big.Float).SetPrec(refPrec).Neg(y))
		t := new(big.Float).SetPrec(refPrec).Mul(mant, ey)
		t.Sub(t, one)
		y.Add(y, t)
	}
	// ln2 to full reference precision by the same Newton (2·e^-l − 1 → 0
	// at l = ln 2); each iteration doubles the accurate bits from the
	// 53-bit float64 seed.
	ln2 := new(big.Float).SetPrec(refPrec).SetFloat64(math.Ln2)
	for i := 0; i < 6; i++ {
		eln := bigExp(new(big.Float).SetPrec(refPrec).Neg(ln2))
		c := new(big.Float).SetPrec(refPrec).Add(eln, eln)
		c.Sub(c, one)
		ln2.Add(ln2, c)
	}
	return y.Add(y, ln2.Mul(ln2, big.NewFloat(float64(e))))
}

// TestAsinNearOne pins the factored (1-x)(1+x) complement: x within a
// few ulps of ±1 must keep full relative accuracy in both asin and acos.
func TestAsinNearOne(t *testing.T) {
	for _, d := range []float64{0x1p-60, 0x1p-80, 1e-20} {
		x := New4(1.0).Sub(New4(d))
		// acos(1-δ) ≈ √(2δ): relative check against the identity
		// cos(acos x) = x, which is exact in the oracle sense.
		ac := x.Acos()
		_, c := ac.SinCos()
		if f, _ := c.Sub(x).Div(x).Big().Float64(); math.Abs(f) > 0x1p-180 {
			t.Errorf("cos(acos(1-%g)) relative error %g", d, f)
		}
		as := x.Asin()
		s, _ := as.SinCos()
		if f, _ := s.Sub(x).Div(x).Big().Float64(); math.Abs(f) > 0x1p-180 {
			t.Errorf("sin(asin(1-%g)) relative error %g", d, f)
		}
		// Odd symmetry at -1+δ.
		neg := x.Neg().Asin()
		if f, _ := neg.Add(as).Big().Float64(); f != 0 {
			t.Errorf("asin(-(1-%g)) + asin(1-%g) = %g, want 0", d, d, f)
		}
	}
}

// TestHyperbolicExtremes pins the overflow/underflow contracts: the old
// kernels NaN-collapsed cosh/sinh of large negative arguments through a
// Recip of an underflowed exp.
func TestHyperbolicExtremes(t *testing.T) {
	if got := New2(-800.0).Sinh().Float(); !math.IsInf(got, -1) {
		t.Errorf("sinh(-800) = %g, want -Inf", got)
	}
	if got := New3(-800.0).Cosh().Float(); !math.IsInf(got, 1) {
		t.Errorf("cosh(-800) = %g, want +Inf", got)
	}
	if got := New4(800.0).Sinh().Float(); !math.IsInf(got, 1) {
		t.Errorf("sinh(800) = %g, want +Inf", got)
	}
	if got := New2(math.NaN()).Tanh().Float(); !math.IsNaN(got) {
		t.Errorf("tanh(NaN) = %g, want NaN", got)
	}
	if got := New3(math.Inf(1)).Tanh(); !got.Eq(New3(1.0)) {
		t.Errorf("tanh(+Inf) = %v, want 1", got)
	}
	// tanh(50) = 1 - 2e^-100 + O(e^-200): width 4 (~210 bits) resolves the
	// gap below 1, so the clamp must not trigger there.
	th := New4(50.0).Tanh()
	gap := New4(1.0).Sub(th)
	if gap.IsZero() {
		t.Error("tanh(50) clamped to 1 at width 4; the gap 2e^-100 is representable")
	}
	wantGap := 2 * math.Exp(-100)
	if f, _ := gap.Big().Float64(); math.Abs(f-wantGap) > wantGap*1e-9 {
		t.Errorf("1 - tanh(50) = %g, want ≈ %g", f, wantGap)
	}
	// Width 2 (~104 bits) cannot represent the gap: exactly 1 is correct.
	if got := New2(50.0).Tanh(); !got.Eq(New2(1.0)) {
		t.Errorf("tanh(50) at width 2 = %v, want exactly 1", got)
	}
}

func TestLogBases(t *testing.T) {
	// log2(2^k) = k, log10(10^k) = k.
	for _, k := range []int{1, 2, 10, -7} {
		x := New4(1.0).MulPow2(k)
		d := x.Log2().Sub(New4(float64(k)))
		if f, _ := d.Big().Float64(); math.Abs(f) > 0x1p-190 {
			t.Errorf("log2(2^%d): %g", k, f)
		}
	}
	ten := New3(10.0)
	d := ten.PowInt(5).Log10().Sub(New3(5.0))
	if f, _ := d.Big().Float64(); math.Abs(f) > 0x1p-140 {
		t.Errorf("log10(10^5): %g", f)
	}
	// 2^x via Exp2.
	d2 := New2(0.5).Exp2().Sub(Sqrt22)
	if f, _ := d2.Big().Float64(); math.Abs(f) > 0x1p-95 {
		t.Errorf("2^0.5 != √2: %g", f)
	}
}

func TestFloat32Math(t *testing.T) {
	// The same engine runs on the float32 base (GPU configuration).
	x := New4(float32(1.5))
	e := x.Exp()
	// Compare against the 420-bit reference (math.Exp itself is only
	// 2^-53 accurate, far below this format's ~2^-92).
	want := bigExp(new(big.Float).SetPrec(refPrec).SetFloat64(1.5))
	if b := relBitsBig(want, e.Big()); b < 85 {
		t.Errorf("float32 F4 exp(1.5): only 2^-%.1f accurate", b)
	}
	s, c := New3(float32(1.0)).SinCos()
	if math.Abs(float64(s.Float())-math.Sin(1)) > 1e-6 ||
		math.Abs(float64(c.Float())-math.Cos(1)) > 1e-6 {
		t.Error("float32 sincos leading term off")
	}
	d := s.Mul(s).Add(c.Mul(c)).AddFloat(1).AddFloat(-2)
	if f, _ := d.Big().Float64(); math.Abs(f) > 0x1p-60 {
		t.Errorf("float32 pythagorean: %g", f)
	}
}

// TestMathCtxCounts checks each context's loop counts against the bound
// they serve, so an undersized loop fails here instead of waiting for a
// campaign seed to find it: the Newton steps before the guard step carry
// the machine seed past the format (seedBits·2^n ≥ bits), the first
// omitted exp, expm1 and sinh terms at their kernels' largest arguments
// are ≤ 2^-(bits+16), no count is larger than that needs, and every 1/n!
// entry is 1/n! to the format's precision.
func TestMathCtxCounts(t *testing.T) {
	checkCtxCounts(t, "F2/float64", ctx2[float64](), 53)
	checkCtxCounts(t, "F3/float64", ctx3[float64](), 53)
	checkCtxCounts(t, "F4/float64", ctx4[float64](), 53)
	checkCtxCounts(t, "F2/float32", ctx2[float32](), 24)
	checkCtxCounts(t, "F3/float32", ctx3[float32](), 24)
	checkCtxCounts(t, "F4/float32", ctx4[float32](), 24)
}

func checkCtxCounts[E expLike[E, T], T Float](t *testing.T, name string, c *mathCtx[E, T], seedBits int) {
	t.Run(name, func(t *testing.T) {
		if n := c.newtIter - 1; n < 0 || seedBits<<n < c.bits || (n > 0 && seedBits<<(n-1) >= c.bits) {
			t.Errorf("newtIter = %d: %d guard-free steps from a %d-bit seed do not just cover %d bits",
				c.newtIter, n, seedBits, c.bits)
		}

		eps := new(big.Float).SetMantExp(big.NewFloat(1), -(c.bits + 16))
		ln2, _ := new(big.Float).SetPrec(refPrec).SetString(ln2Str)
		// term returns rⁿ/n! from a fresh power and factorial.
		term := func(r *big.Float, n int) *big.Float {
			p := new(big.Float).SetPrec(refPrec).SetInt64(1)
			fact := big.NewInt(1)
			for i := 1; i <= n; i++ {
				p.Mul(p, r)
				fact.Mul(fact, big.NewInt(int64(i)))
			}
			return p.Quo(p, new(big.Float).SetInt(fact))
		}
		for _, k := range []struct {
			name      string
			r         *big.Float
			deg, step int
		}{
			{"exp", new(big.Float).SetMantExp(ln2, -10), c.expTerms, 1},
			{"expm1", big.NewFloat(0.5), c.expm1Terms, 1},
			{"sinh", big.NewFloat(0.5), c.sinhTerms, 2},
		} {
			if k.step == 2 && k.deg%2 == 0 {
				t.Errorf("%s degree %d is even; the series is odd", k.name, k.deg)
			}
			if omitted := term(k.r, k.deg+k.step); omitted.Cmp(eps) > 0 {
				t.Errorf("%s degree %d: first omitted term %.3g > 2^-%d", k.name, k.deg, omitted, c.bits+16)
			}
			if kept := term(k.r, k.deg); k.deg > 1 && kept.Cmp(eps) <= 0 {
				t.Errorf("%s degree %d: last kept term %.3g ≤ 2^-%d, one term fewer suffices", k.name, k.deg, kept, c.bits+16)
			}
		}

		if want := max(c.expTerms, c.expm1Terms, c.sinhTerms) + 1; len(c.invFact) != want {
			t.Fatalf("len(invFact) = %d, want %d", len(c.invFact), want)
		}
		// An entry is held to 2^-bits relative, or, where 1/n! sits so low
		// that the base type's subnormal floor cuts the expansion short
		// (float32 from n ≈ 20 at width 4), to that floor.
		floor := new(big.Float).SetFloat64(math.SmallestNonzeroFloat64)
		if _, ok := any(T(0)).(float32); ok {
			floor.SetFloat64(math.SmallestNonzeroFloat32)
		}
		one := big.NewFloat(1)
		for n, e := range c.invFact {
			want := term(one, n)
			tol := new(big.Float).SetMantExp(want, -c.bits)
			if tol.Cmp(floor) < 0 {
				tol = floor
			}
			diff := new(big.Float).SetPrec(refPrec).Sub(toBig(e.comps64()), want)
			if diff.Abs(diff).Cmp(tol) > 0 {
				t.Errorf("invFact[%d] is off 1/%d! by %.3g (allowed %.3g)", n, n, diff, tol)
			}
		}
	})
}

func BenchmarkExpF4(b *testing.B) {
	x := New4(1.2345)
	var z Float64x4
	for i := 0; i < b.N; i++ {
		z = x.Exp()
	}
	_ = z
}

func BenchmarkSinF2(b *testing.B) {
	x := New2(1.2345)
	var z Float64x2
	for i := 0; i < b.N; i++ {
		z = x.Sin()
	}
	_ = z
}
