package mf

import (
	"math"
	"math/big"
	"sync"
)

// Elementary functions for all expansion types, in the tradition of the QD
// library: range reduction against full-precision constants, short Taylor
// kernels, and Newton inversion for the inverse functions. One generic
// engine serves every (term count, base type) combination; the public
// surface is the methods on F2/F3/F4.
//
// The Newton and series loops are sized from the bound they serve, once
// per context in buildCtx:
//
//   - Newton (log, log1p, asin, cbrt) doubles the correct bits per step
//     (paper §4.3: Recip4 is Recip2 plus one step), so from a seedBits-bit
//     machine seed (53 on float64, 24 on float32) it runs
//     ⌈log₂⌈bits/seedBits⌉⌉ steps plus one guard step.
//   - exp, expm1 and sinh's small-argument branch evaluate their series
//     in Horner form on the context's table of 1/n! expansions (built
//     from big.Float, like ln 2 and π), so a term costs one Mul and one
//     Add and no expansion division. Each keeps the fewest terms whose
//     first omitted term is ≤ 2^-(bits+16) at the kernel's largest
//     argument: |r| ≤ 2⁻¹⁰·ln 2 after exp's reduction and 2⁻⁹ scaling,
//     |x| < ½ for expm1 and sinh.
//
// sin and cos keep their fused term recurrence (each term divides the
// previous one by (i−1)·i) and its bits/6 + 8 term count: the golden
// vectors of TestGoldenTrigBits pin their output bits at every width, so
// another evaluation order or count would change those committed values
// too, and they stay as they are here.
//
// Accuracy contract: every public function stays within the measured
// per-(op, width) bounds recorded in TESTING.md ("Elementary functions"),
// enforced continuously by the internal/diffuzz math tier against a
// big.Float oracle — e.g. ≤ 2⁻⁹⁶ relative at width 2 and ≤ 2⁻¹⁹⁶ at
// width 4 on float64 for the forward functions. Trigonometric argument
// reduction is extended-precision Payne–Hanek against a stored 1664-bit
// 2/π table (payne_hanek.go), so Sin/Cos/Tan hold their bound for any
// finite argument, including |x| ≈ 1e300 and the classic near-worst-case
// reduction points.

// expLike is the operation set the generic engine needs; all three
// expansion types satisfy it.
type expLike[E any, T Float] interface {
	Add(E) E
	Sub(E) E
	Mul(E) E
	Div(E) E
	Neg() E
	Abs() E
	AddFloat(T) E
	MulFloat(T) E
	DivFloat(T) E
	MulPow2(int) E
	Sqrt() E
	Sqr() E
	Recip() E
	Float() T
	IsZero() bool
	Sign() int
	comps64() []float64
}

// mathCtx carries the per-format constants and iteration counts.
type mathCtx[E expLike[E, T], T Float] struct {
	new     func(T) E
	fromBig func(*big.Float) E
	bits    int // target precision in bits

	ln2, pi, piOver2 E
	invLn2f          float64 // 1/ln2 as float64, for reduction estimates
	maxExpArg        float64 // exp overflow threshold for the base type
	minExpArg        float64

	expTerms   int // Horner degree for exp on |r| ≤ 2⁻¹⁰·ln 2
	expm1Terms int // Horner degree for expm1 on |x| < ½
	sinhTerms  int // Horner degree (odd) for sinh on |x| < ½
	invFact    []E // invFact[n] = 1/n!, n ≤ max(expTerms, expm1Terms, sinhTerms)
	sinTerms   int // Taylor terms for sin/cos on |r| ≤ π/4
	newtIter   int // Newton steps from the machine seed, guard step included

	once sync.Once
	ln10 E // filled lazily via the engine itself
}

// buildCtx computes the constants from the package's decimal literals via
// big.Float, so no new literal can silently disagree with Pi2/Pi3/Pi4.
func buildCtx[E expLike[E, T], T Float](newE func(T) E, fromBig func(*big.Float) E, bits int) *mathCtx[E, T] {
	pi, _ := new(big.Float).SetPrec(bigPrec).SetString(piStr)
	ln2, _ := new(big.Float).SetPrec(bigPrec).SetString(ln2Str)
	half := new(big.Float).SetPrec(bigPrec).Quo(pi, big.NewFloat(2))

	var maxArg, minArg float64
	seedBits := 53
	switch any(T(0)).(type) {
	case float64:
		maxArg, minArg = 709.78, -745.0 //mf:allow exactconst -- overflow guard just below ln(MaxFloat64)≈709.7827; exactness is irrelevant to a threshold
	case float32:
		maxArg, minArg = 88.72, -103.0 //mf:allow exactconst -- overflow guard just below ln(MaxFloat32)≈88.7228; exactness is irrelevant to a threshold
		seedBits = 24
	}

	expR := new(big.Float).SetMantExp(ln2, -10)
	halfR := big.NewFloat(0.5)
	expTerms := seriesDegree(expR, 1, bits)
	expm1Terms := seriesDegree(halfR, 1, bits)
	sinhTerms := seriesDegree(halfR, 2, bits)
	invFact := make([]E, max(expTerms, expm1Terms, sinhTerms)+1)
	f := new(big.Float).SetPrec(bigPrec).SetInt64(1)
	for n := range invFact {
		if n > 1 {
			f.Quo(f, new(big.Float).SetInt64(int64(n)))
		}
		invFact[n] = fromBig(f)
	}

	return &mathCtx[E, T]{
		new:        newE,
		fromBig:    fromBig,
		bits:       bits,
		ln2:        fromBig(ln2),
		pi:         fromBig(pi),
		piOver2:    fromBig(half),
		invLn2f:    1 / math.Ln2,
		maxExpArg:  maxArg,
		minExpArg:  minArg,
		expTerms:   expTerms,
		expm1Terms: expm1Terms,
		sinhTerms:  sinhTerms,
		invFact:    invFact,
		sinTerms:   bits/6 + 8,
		newtIter:   intLog2Ceil((bits+seedBits-1)/seedBits) + 1,
	}
}

// seriesDegree returns the degree N of the shortest truncation of
// Σ rⁿ/n! (n = 1, 1+step, 1+2·step, …) whose first omitted term,
// r^(N+step)/(N+step)!, is at most 2^-(bits+16): 16 bits of margin
// below the format at the kernel's largest argument r. The walk is in
// big.Float, so no float64 product enters the count.
func seriesDegree(r *big.Float, step, bits int) int {
	eps := new(big.Float).SetMantExp(big.NewFloat(1), -(bits + 16))
	term := new(big.Float).SetPrec(bigPrec).Set(r)
	n := 1
	for term.Cmp(eps) > 0 {
		for range step {
			n++
			term.Mul(term, r)
			term.Quo(term, new(big.Float).SetInt64(int64(n)))
		}
	}
	return n - step
}

func intLog2Ceil(x int) int {
	k := 0
	for v := 1; v < x; v *= 2 {
		k++
	}
	return k
}

// Context registry: one per (terms, base type), built on first use.
var (
	ctx2f64Once, ctx3f64Once, ctx4f64Once sync.Once
	ctx2f32Once, ctx3f32Once, ctx4f32Once sync.Once
	ctx2f64v                              *mathCtx[F2[float64], float64]
	ctx3f64v                              *mathCtx[F3[float64], float64]
	ctx4f64v                              *mathCtx[F4[float64], float64]
	ctx2f32v                              *mathCtx[F2[float32], float32]
	ctx3f32v                              *mathCtx[F3[float32], float32]
	ctx4f32v                              *mathCtx[F4[float32], float32]
)

func ctx2[T Float]() *mathCtx[F2[T], T] {
	switch any(T(0)).(type) {
	case float64:
		ctx2f64Once.Do(func() {
			ctx2f64v = buildCtx[F2[float64], float64](New2[float64], FromBig2[float64], 104)
		})
		return any(ctx2f64v).(*mathCtx[F2[T], T])
	default:
		ctx2f32Once.Do(func() {
			ctx2f32v = buildCtx[F2[float32], float32](New2[float32], FromBig2[float32], 46)
		})
		return any(ctx2f32v).(*mathCtx[F2[T], T])
	}
}

func ctx3[T Float]() *mathCtx[F3[T], T] {
	switch any(T(0)).(type) {
	case float64:
		ctx3f64Once.Do(func() {
			ctx3f64v = buildCtx[F3[float64], float64](New3[float64], FromBig3[float64], 157)
		})
		return any(ctx3f64v).(*mathCtx[F3[T], T])
	default:
		ctx3f32Once.Do(func() {
			ctx3f32v = buildCtx[F3[float32], float32](New3[float32], FromBig3[float32], 69)
		})
		return any(ctx3f32v).(*mathCtx[F3[T], T])
	}
}

func ctx4[T Float]() *mathCtx[F4[T], T] {
	switch any(T(0)).(type) {
	case float64:
		ctx4f64Once.Do(func() {
			ctx4f64v = buildCtx[F4[float64], float64](New4[float64], FromBig4[float64], 210)
		})
		return any(ctx4f64v).(*mathCtx[F4[T], T])
	default:
		ctx4f32Once.Do(func() {
			ctx4f32v = buildCtx[F4[float32], float32](New4[float32], FromBig4[float32], 92)
		})
		return any(ctx4f32v).(*mathCtx[F4[T], T])
	}
}

// ------------------------------------------------------------- engine ----

// expE computes e^x: reduce x = k·ln2 + r, scale r by 2^-9, Horner on the
// 1/n! table, square nine times, scale by 2^k.
func expE[E expLike[E, T], T Float](c *mathCtx[E, T], x E) E {
	xf := float64(x.Float())
	switch {
	case math.IsNaN(xf):
		return c.new(T(math.NaN()))
	case xf > c.maxExpArg:
		return c.new(T(math.Inf(1)))
	case xf < c.minExpArg:
		return c.new(0)
	case x.IsZero():
		return c.new(1)
	}
	k := math.Round(xf * c.invLn2f)
	r := x.Sub(c.ln2.MulFloat(T(k)))
	const m = 9
	r = r.MulPow2(-m)
	// Horner: e^r = 1 + r(1 + r(1/2! + r(1/3! + …)))
	sum := c.invFact[c.expTerms]
	for n := c.expTerms - 1; n >= 0; n-- {
		sum = sum.Mul(r).Add(c.invFact[n])
	}
	for i := 0; i < m; i++ {
		sum = sum.Mul(sum)
	}
	return sum.MulPow2(int(k))
}

// logE computes ln x. The exponent is split off first — x = m·2^k with
// m ∈ [1/2, 1) — so Newton's method on exp (y ← y + m·e^(-y) - 1) only
// ever sees |y| ≤ ln 2 and cannot overflow the exp kernel even for
// subnormal or near-max arguments; ln x = ln m + k·ln 2 then has
// relative error O(2^-bits) because |ln x| ≥ ln(4/3) on this path.
// Arguments with |x−1| ≤ 1/3 route through log1pE instead: x−1 is an
// exact expansion subtraction there, keeping ln x relative-accurate
// arbitrarily close to 1 (the adversarial "log near 1" regime).
func logE[E expLike[E, T], T Float](c *mathCtx[E, T], x E) E {
	xf := float64(x.Float())
	switch {
	case math.IsNaN(xf) || xf < 0:
		return c.new(T(math.NaN()))
	case x.IsZero():
		return c.new(T(math.Inf(-1)))
	case math.IsInf(xf, 1):
		return c.new(T(math.Inf(1)))
	}
	if math.Abs(xf-1) <= 1.0/3 {
		return log1pE(c, x.AddFloat(-1))
	}
	fr, k := math.Frexp(xf)
	xm := x.MulPow2(-k) // ∈ [1/2, 1), exactly
	y := c.new(T(math.Log(fr)))
	for i := 0; i < c.newtIter; i++ {
		y = y.Add(xm.Mul(expE(c, y.Neg())).AddFloat(-1))
	}
	if k == 0 {
		return y
	}
	return y.Add(c.ln2.MulFloat(T(k)))
}

// trigReduce is the single Payne–Hanek reduction shared by every trig
// entry point (Sin, Cos, SinCos, Tan): it reduces x against π/2 and
// returns the reduced argument with its quadrant. Arguments already
// within [−π/4, π/4] skip the reduction entirely. ok is false for
// NaN/Inf inputs.
func trigReduce[E expLike[E, T], T Float](c *mathCtx[E, T], x E) (r E, q int, ok bool) {
	xf := float64(x.Float())
	if math.IsNaN(xf) || math.IsInf(xf, 0) {
		return r, 0, false
	}
	if math.Abs(xf) <= math.Pi/4 {
		return x, 0, true
	}
	var rbig *big.Float
	q, rbig = phReduce(x.comps64(), c.bits)
	return c.fromBig(rbig), q, true
}

// sincosKernel evaluates the sin and cos Taylor kernels on one reduced
// argument |r| ≤ π/4 + ε in a single fused pass. The two term chains
// are independent, so interleaving them is bit-identical to running the
// loops separately while sharing r² and the loop control.
func sincosKernel[E expLike[E, T], T Float](c *mathCtx[E, T], r E) (s, co E) {
	r2 := r.Mul(r)
	s = r
	sterm := r
	co = c.new(1)
	cterm := c.new(1)
	for i := 2; i <= c.sinTerms; i++ {
		if i&1 == 0 {
			cterm = cterm.Mul(r2).DivFloat(T((i - 1) * i)).Neg()
			co = co.Add(cterm)
		} else {
			sterm = sterm.Mul(r2).DivFloat(T((i - 1) * i)).Neg()
			s = s.Add(sterm)
		}
	}
	return s, co
}

// quadrantSwap maps kernel values on the reduced argument to the
// requested quadrant (sin and cos trade places and signs).
func quadrantSwap[E expLike[E, T], T Float](q int, s, co E) (sin, cos E) {
	switch q {
	case 0:
		return s, co
	case 1:
		return co, s.Neg()
	case 2:
		return s.Neg(), co.Neg()
	default:
		return co.Neg(), s
	}
}

// sincosE is one reduction + one fused kernel pass + the quadrant swap.
func sincosE[E expLike[E, T], T Float](c *mathCtx[E, T], x E) (sin, cos E) {
	r, q, ok := trigReduce(c, x)
	if !ok {
		nan := c.new(T(math.NaN()))
		return nan, nan
	}
	s, co := sincosKernel(c, r)
	return quadrantSwap(q, s, co)
}

// tanE shares the same single reduction and fused kernel pass as
// sincosE and only then divides — structurally one Payne–Hanek
// reduction per Tan call, bit-identical to Sin(x)/Cos(x).
func tanE[E expLike[E, T], T Float](c *mathCtx[E, T], x E) E {
	r, q, ok := trigReduce(c, x)
	if !ok {
		return c.new(T(math.NaN()))
	}
	s, co := sincosKernel(c, r)
	sin, cos := quadrantSwap(q, s, co)
	return sin.Div(cos)
}

// asinE solves sin z = x by Newton from the machine seed.
func asinE[E expLike[E, T], T Float](c *mathCtx[E, T], x E) E {
	xf := float64(x.Float())
	if math.IsNaN(xf) || xf > 1 || xf < -1 {
		return c.new(T(math.NaN()))
	}
	ax := math.Abs(xf)
	if ax > 0.9 { //mf:allow exactconst -- identity-switch cutoff near ±1; any value in (0.8, 1) works equally well
		// Near ±1 the Newton step divides by cos z → use the
		// complementary identity asin(x) = ±(π/2 - asin(√(1-x²))).
		// 1-x² is computed factored as (1-|x|)(1+|x|): both factors are
		// exact expansion sums, so the complement keeps full relative
		// accuracy even for x within one ulp of ±1 (the squared form
		// cancels catastrophically there).
		one := c.new(1)
		xa := x.Abs()
		comp := asinE(c, one.Sub(xa).Mul(one.Add(xa)).Sqrt())
		res := c.piOver2.Sub(comp)
		if xf < 0 {
			res = res.Neg()
		}
		return res
	}
	z := c.new(T(math.Asin(xf)))
	for i := 0; i < c.newtIter; i++ {
		s, co := sincosE(c, z)
		z = z.Add(x.Sub(s).Div(co))
	}
	return z
}

// atanE computes arctangent via the asin identity, with the reciprocal
// reduction for |x| > 1 to keep the kernel well-conditioned.
func atanE[E expLike[E, T], T Float](c *mathCtx[E, T], x E) E {
	xf := float64(x.Float())
	if math.IsNaN(xf) {
		return c.new(T(math.NaN()))
	}
	if math.IsInf(xf, 1) {
		return c.piOver2
	}
	if math.IsInf(xf, -1) {
		return c.piOver2.Neg()
	}
	if math.Abs(xf) > 1 {
		inner := atanE(c, x.Recip())
		if xf > 0 {
			return c.piOver2.Sub(inner)
		}
		return c.piOver2.Neg().Sub(inner)
	}
	// |x| ≤ 1: t = x/√(1+x²) has |t| ≤ 1/√2.
	t := x.Div(x.Mul(x).AddFloat(1).Sqrt())
	return asinE(c, t)
}

// acosE computes arccos x. Near +1 the naive π/2 − asin x cancels down
// to the absolute error of the stored π/2 — catastrophic relative to
// the tiny result ≈ √(2(1−x)) — so |x| > 0.5 routes through the
// complementary identity acos x = asin √((1−x)(1+x)) (x > 0) or
// π − asin √((1−x)(1+x)) (x < 0), where both factors of the complement
// are exact expansion sums and the π addition is benign.
func acosE[E expLike[E, T], T Float](c *mathCtx[E, T], x E) E {
	xf := float64(x.Float())
	if math.IsNaN(xf) || xf > 1 || xf < -1 {
		return c.new(T(math.NaN()))
	}
	if math.Abs(xf) <= 0.5 {
		return c.piOver2.Sub(asinE(c, x))
	}
	one := c.new(1)
	xa := x.Abs()
	comp := asinE(c, one.Sub(xa).Mul(one.Add(xa)).Sqrt())
	if xf > 0 {
		return comp
	}
	return c.pi.Sub(comp)
}

// atan2E implements the full-quadrant arctangent.
func atan2E[E expLike[E, T], T Float](c *mathCtx[E, T], y, x E) E {
	yf, xf := float64(y.Float()), float64(x.Float())
	switch {
	case math.IsNaN(yf) || math.IsNaN(xf):
		return c.new(T(math.NaN()))
	case x.IsZero() && y.IsZero():
		return c.new(0)
	case x.IsZero():
		if y.Sign() > 0 {
			return c.piOver2
		}
		return c.piOver2.Neg()
	case y.IsZero():
		if x.Sign() > 0 {
			return c.new(0)
		}
		return c.pi
	}
	// |y| > |x|: atan2(y, x) = ±π/2 − atan(x/y), so the quotient stays
	// in [−1, 1] and never overflows, however far apart the operand
	// magnitudes are (|y/x| can exceed 2^1024 for legal finite inputs).
	// The residual atan is at most π/4, so the subtraction is benign.
	if math.Abs(yf) > math.Abs(xf) {
		inner := atanE(c, x.Div(y))
		if y.Sign() > 0 {
			return c.piOver2.Sub(inner)
		}
		return c.piOver2.Neg().Sub(inner)
	}
	base := atanE(c, y.Div(x))
	if x.Sign() > 0 {
		return base
	}
	if y.Sign() > 0 {
		return base.Add(c.pi)
	}
	return base.Sub(c.pi)
}

// powE computes x^y = e^(y·ln x) with the usual special cases. x^0 = 1
// for every x (including NaN, per IEEE 754 pow); any other non-finite
// operand, or a negative base, yields NaN (the §4.4 collapse — x = ±Inf
// and y = ±Inf would otherwise produce sign-dependent garbage through
// the Inf·ln x product anyway).
func powE[E expLike[E, T], T Float](c *mathCtx[E, T], x, y E) E {
	if y.IsZero() {
		return c.new(1)
	}
	xf, yf := float64(x.Float()), float64(y.Float())
	if math.IsNaN(xf) || math.IsNaN(yf) || math.IsInf(xf, 0) || math.IsInf(yf, 0) {
		return c.new(T(math.NaN()))
	}
	if x.IsZero() {
		if y.Sign() > 0 {
			return c.new(0)
		}
		return c.new(T(math.Inf(1)))
	}
	if x.Sign() < 0 {
		return c.new(T(math.NaN()))
	}
	return expE(c, y.Mul(logE(c, x)))
}

// powIntE computes x^k by binary exponentiation (exact-operation count
// O(log k); valid for negative x, unlike powE).
func powIntE[E expLike[E, T], T Float](c *mathCtx[E, T], x E, k int) E {
	if k == 0 {
		return c.new(1)
	}
	neg := k < 0
	if neg {
		k = -k
	}
	acc := c.new(1)
	base := x
	for k > 0 {
		if k&1 == 1 {
			acc = acc.Mul(base)
		}
		base = base.Mul(base)
		k >>= 1
	}
	if neg {
		return acc.Recip()
	}
	return acc
}

// sinhE/coshE/tanhE. sinh uses a Horner kernel for small arguments, where
// (e^x - e^-x)/2 cancels catastrophically. Both sinh and cosh evaluate
// exp on |x| only — exp(x) underflows to an exact zero for large
// negative x, and a Recip of that zero would NaN-collapse instead of
// overflowing the way the true result does.
func sinhE[E expLike[E, T], T Float](c *mathCtx[E, T], x E) E {
	xf := float64(x.Float())
	switch {
	case math.IsNaN(xf):
		return c.new(T(math.NaN()))
	case xf > c.maxExpArg:
		return c.new(T(math.Inf(1)))
	case xf < -c.maxExpArg:
		return c.new(T(math.Inf(-1)))
	}
	if math.Abs(xf) > 0.5 {
		e := expE(c, x.Abs())
		s := e.Sub(e.Recip()).MulPow2(-1)
		if xf < 0 {
			return s.Neg()
		}
		return s
	}
	// Horner in x²: sinh x = x(1 + x²(1/3! + x²(1/5! + …)))
	x2 := x.Mul(x)
	s := c.invFact[c.sinhTerms]
	for n := c.sinhTerms - 2; n >= 1; n -= 2 {
		s = s.Mul(x2).Add(c.invFact[n])
	}
	return s.Mul(x)
}

func coshE[E expLike[E, T], T Float](c *mathCtx[E, T], x E) E {
	xf := float64(x.Float())
	switch {
	case math.IsNaN(xf):
		return c.new(T(math.NaN()))
	case math.Abs(xf) > c.maxExpArg:
		return c.new(T(math.Inf(1)))
	}
	e := expE(c, x.Abs())
	return e.Add(e.Recip()).MulPow2(-1)
}

func tanhE[E expLike[E, T], T Float](c *mathCtx[E, T], x E) E {
	xf := float64(x.Float())
	if math.IsNaN(xf) {
		return c.new(T(math.NaN()))
	}
	// Beyond the clamp, |tanh x| differs from 1 by 2e^-2|x| <
	// 2^-(bits+16): returning ±1 exactly is below every format bound.
	if math.Abs(xf) > float64(c.bits+16)*math.Ln2/2 {
		if xf > 0 {
			return c.new(1)
		}
		return c.new(-1)
	}
	return sinhE(c, x).Div(coshE(c, x))
}

// logScaledSpecial reproduces logE's special-value contract for the
// rescaled logarithms: the base change divides by ln 10 (or ln 2), and
// an expansion Div on a NaN/±Inf logE result would collapse the correct
// special to NaN (§4.4), so the special is returned before the scaling.
func logScaledSpecial[E expLike[E, T], T Float](c *mathCtx[E, T], x E) (E, bool) {
	xf := float64(x.Float())
	switch {
	case math.IsNaN(xf) || xf < 0:
		return c.new(T(math.NaN())), true
	case x.IsZero():
		return c.new(T(math.Inf(-1))), true
	case math.IsInf(xf, 1):
		return c.new(T(math.Inf(1))), true
	}
	var zero E
	return zero, false
}

func log10E[E expLike[E, T], T Float](c *mathCtx[E, T], x E) E {
	if s, ok := logScaledSpecial(c, x); ok {
		return s
	}
	c.once.Do(func() { c.ln10 = logE(c, c.new(10)) })
	return logE(c, x).Div(c.ln10)
}

func log2E[E expLike[E, T], T Float](c *mathCtx[E, T], x E) E {
	if s, ok := logScaledSpecial(c, x); ok {
		return s
	}
	return logE(c, x).Div(c.ln2)
}

// exp2E computes 2^x = e^(x·ln 2), screening non-finite and
// out-of-range arguments first: the x·ln2 product would collapse ±Inf
// to NaN, and the float64 2^x range differs from e^x's.
func exp2E[E expLike[E, T], T Float](c *mathCtx[E, T], x E) E {
	xf := float64(x.Float())
	switch {
	case math.IsNaN(xf):
		return c.new(T(math.NaN()))
	case xf > c.maxExpArg*(1/math.Ln2):
		return c.new(T(math.Inf(1)))
	case xf < c.minExpArg*(1/math.Ln2):
		return c.new(0)
	}
	return expE(c, x.Mul(c.ln2))
}

// expm1E computes e^x − 1 without cancellation: for |x| < 1/2 the Taylor
// series Σ_{n≥1} xⁿ/n! is evaluated as x times a Horner polynomial near 1
// (no subtraction of nearby quantities ever happens); beyond that e^x − 1
// loses no significance because |e^x − 1| ≥ 0.39.
func expm1E[E expLike[E, T], T Float](c *mathCtx[E, T], x E) E {
	xf := float64(x.Float())
	switch {
	case math.IsNaN(xf):
		return c.new(T(math.NaN()))
	case xf > c.maxExpArg:
		return c.new(T(math.Inf(1)))
	case xf < c.minExpArg:
		return c.new(-1)
	case x.IsZero():
		return x
	}
	if math.Abs(xf) >= 0.5 {
		return expE(c, x).AddFloat(-1)
	}
	// Horner: e^x − 1 = x(1 + x(1/2! + x(1/3! + …)))
	sum := c.invFact[c.expm1Terms]
	for n := c.expm1Terms - 1; n >= 1; n-- {
		sum = sum.Mul(x).Add(c.invFact[n])
	}
	return sum.Mul(x)
}

// log1pE computes ln(1+x) without cancellation, by Newton on expm1:
// y ← y + (x − expm1(y))/(1 + expm1(y)). The residual x − expm1(y) is a
// subtraction of expansions agreeing to the current iterate's accuracy,
// which is exactly the cancellation Newton feeds on — the final y is
// accurate relative to y itself, even for x down to the last bit of the
// format.
func log1pE[E expLike[E, T], T Float](c *mathCtx[E, T], x E) E {
	xf := float64(x.Float())
	onePlus := x.AddFloat(1)
	switch {
	case math.IsNaN(xf):
		return c.new(T(math.NaN()))
	case onePlus.Sign() < 0: // x < −1
		return c.new(T(math.NaN()))
	case onePlus.IsZero(): // x = −1
		return c.new(T(math.Inf(-1)))
	case math.IsInf(xf, 1):
		return c.new(T(math.Inf(1)))
	case x.IsZero():
		return x
	}
	if math.Abs(xf) >= 0.5 {
		return logE(c, onePlus)
	}
	y := c.new(T(math.Log1p(xf)))
	for i := 0; i < c.newtIter; i++ {
		u := expm1E(c, y)
		y = y.Add(x.Sub(u).Div(u.AddFloat(1)))
	}
	return y
}

// cbrtE computes the real cube root by Newton, y ← (2y + x/y²)/3, from
// the machine seed; odd symmetry handles negative arguments exactly.
func cbrtE[E expLike[E, T], T Float](c *mathCtx[E, T], x E) E {
	xf := float64(x.Float())
	switch {
	case math.IsNaN(xf) || math.IsInf(xf, 0):
		return c.new(T(math.NaN())) // ±Inf collapses like every kernel (§4.4)
	case x.IsZero():
		return x
	}
	ax := x
	neg := x.Sign() < 0
	if neg {
		ax = x.Neg()
	}
	// Scale to m·8^j with m ∈ [1/8, 4) before iterating: the Newton
	// residuals m − y³ are then formed near magnitude 1, far from the
	// subnormal floor that would otherwise quantize the correction for
	// |x| ≲ 2^-900. Both scalings are exact powers of two.
	_, e := math.Frexp(float64(ax.Float()))
	j := e / 3
	m := ax.MulPow2(-3 * j)
	y := c.new(T(math.Cbrt(float64(m.Float()))))
	for i := 0; i < c.newtIter; i++ {
		y = y.MulPow2(1).Add(m.Div(y.Sqr())).DivFloat(3)
	}
	y = y.MulPow2(j)
	if neg {
		y = y.Neg()
	}
	return y
}

// hypotE computes √(x²+y²) without overflow or underflow in the squares:
// both operands are scaled by an exact power of two chosen from the
// larger leading exponent, squared, and scaled back.
func hypotE[E expLike[E, T], T Float](c *mathCtx[E, T], x, y E) E {
	xf, yf := float64(x.Float()), float64(y.Float())
	switch {
	case math.IsInf(xf, 0) || math.IsInf(yf, 0):
		// IEEE hypot: +Inf even when the other operand is NaN.
		return c.new(T(math.Inf(1)))
	case math.IsNaN(xf) || math.IsNaN(yf):
		return c.new(T(math.NaN()))
	case x.IsZero():
		return y.Abs()
	case y.IsZero():
		return x.Abs()
	}
	_, ex := math.Frexp(xf)
	_, ey := math.Frexp(yf)
	k := ex
	if ey > k {
		k = ey
	}
	xs := x.MulPow2(-k)
	ys := y.MulPow2(-k)
	return xs.Sqr().Add(ys.Sqr()).Sqrt().MulPow2(k)
}

// ------------------------------------------------------------ methods ----

// Exp returns e^x.
func (x F2[T]) Exp() F2[T] { return expE(ctx2[T](), x) }

// Log returns ln x.
func (x F2[T]) Log() F2[T] { return logE(ctx2[T](), x) }

// Log2 returns log₂ x.
func (x F2[T]) Log2() F2[T] { return log2E(ctx2[T](), x) }

// Log10 returns log₁₀ x.
func (x F2[T]) Log10() F2[T] { return log10E(ctx2[T](), x) }

// Exp2 returns 2^x.
func (x F2[T]) Exp2() F2[T] { return exp2E(ctx2[T](), x) }

// Pow returns x^y (NaN for negative x).
func (x F2[T]) Pow(y F2[T]) F2[T] { return powE(ctx2[T](), x, y) }

// PowInt returns x^k by binary exponentiation.
func (x F2[T]) PowInt(k int) F2[T] { return powIntE(ctx2[T](), x, k) }

// SinCos returns (sin x, cos x).
func (x F2[T]) SinCos() (F2[T], F2[T]) { return sincosE(ctx2[T](), x) }

// Sin returns sin x.
func (x F2[T]) Sin() F2[T] { s, _ := sincosE(ctx2[T](), x); return s }

// Cos returns cos x.
func (x F2[T]) Cos() F2[T] { _, c := sincosE(ctx2[T](), x); return c }

// Tan returns tan x.
func (x F2[T]) Tan() F2[T] { return tanE(ctx2[T](), x) }

// Asin returns arcsin x.
func (x F2[T]) Asin() F2[T] { return asinE(ctx2[T](), x) }

// Acos returns arccos x.
func (x F2[T]) Acos() F2[T] { return acosE(ctx2[T](), x) }

// Atan returns arctan x.
func (x F2[T]) Atan() F2[T] { return atanE(ctx2[T](), x) }

// Atan2 returns the full-quadrant arctangent of y/x.
func Atan2F2[T Float](y, x F2[T]) F2[T] { return atan2E(ctx2[T](), y, x) }

// Sinh returns sinh x.
func (x F2[T]) Sinh() F2[T] { return sinhE(ctx2[T](), x) }

// Cosh returns cosh x.
func (x F2[T]) Cosh() F2[T] { return coshE(ctx2[T](), x) }

// Tanh returns tanh x.
func (x F2[T]) Tanh() F2[T] { return tanhE(ctx2[T](), x) }

// Expm1 returns e^x − 1, accurate even for tiny x.
func (x F2[T]) Expm1() F2[T] { return expm1E(ctx2[T](), x) }

// Log1p returns ln(1+x), accurate even for tiny x.
func (x F2[T]) Log1p() F2[T] { return log1pE(ctx2[T](), x) }

// Cbrt returns the real cube root of x (odd symmetry for negative x).
func (x F2[T]) Cbrt() F2[T] { return cbrtE(ctx2[T](), x) }

// Hypot returns √(x²+y²) without overflow in the squares.
func (x F2[T]) Hypot(y F2[T]) F2[T] { return hypotE(ctx2[T](), x, y) }

// Exp returns e^x.
func (x F3[T]) Exp() F3[T] { return expE(ctx3[T](), x) }

// Log returns ln x.
func (x F3[T]) Log() F3[T] { return logE(ctx3[T](), x) }

// Log2 returns log₂ x.
func (x F3[T]) Log2() F3[T] { return log2E(ctx3[T](), x) }

// Log10 returns log₁₀ x.
func (x F3[T]) Log10() F3[T] { return log10E(ctx3[T](), x) }

// Exp2 returns 2^x.
func (x F3[T]) Exp2() F3[T] { return exp2E(ctx3[T](), x) }

// Pow returns x^y (NaN for negative x).
func (x F3[T]) Pow(y F3[T]) F3[T] { return powE(ctx3[T](), x, y) }

// PowInt returns x^k by binary exponentiation.
func (x F3[T]) PowInt(k int) F3[T] { return powIntE(ctx3[T](), x, k) }

// SinCos returns (sin x, cos x).
func (x F3[T]) SinCos() (F3[T], F3[T]) { return sincosE(ctx3[T](), x) }

// Sin returns sin x.
func (x F3[T]) Sin() F3[T] { s, _ := sincosE(ctx3[T](), x); return s }

// Cos returns cos x.
func (x F3[T]) Cos() F3[T] { _, c := sincosE(ctx3[T](), x); return c }

// Tan returns tan x.
func (x F3[T]) Tan() F3[T] { return tanE(ctx3[T](), x) }

// Asin returns arcsin x.
func (x F3[T]) Asin() F3[T] { return asinE(ctx3[T](), x) }

// Acos returns arccos x.
func (x F3[T]) Acos() F3[T] { return acosE(ctx3[T](), x) }

// Atan returns arctan x.
func (x F3[T]) Atan() F3[T] { return atanE(ctx3[T](), x) }

// Atan2F3 returns the full-quadrant arctangent of y/x.
func Atan2F3[T Float](y, x F3[T]) F3[T] { return atan2E(ctx3[T](), y, x) }

// Sinh returns sinh x.
func (x F3[T]) Sinh() F3[T] { return sinhE(ctx3[T](), x) }

// Cosh returns cosh x.
func (x F3[T]) Cosh() F3[T] { return coshE(ctx3[T](), x) }

// Tanh returns tanh x.
func (x F3[T]) Tanh() F3[T] { return tanhE(ctx3[T](), x) }

// Expm1 returns e^x − 1, accurate even for tiny x.
func (x F3[T]) Expm1() F3[T] { return expm1E(ctx3[T](), x) }

// Log1p returns ln(1+x), accurate even for tiny x.
func (x F3[T]) Log1p() F3[T] { return log1pE(ctx3[T](), x) }

// Cbrt returns the real cube root of x (odd symmetry for negative x).
func (x F3[T]) Cbrt() F3[T] { return cbrtE(ctx3[T](), x) }

// Hypot returns √(x²+y²) without overflow in the squares.
func (x F3[T]) Hypot(y F3[T]) F3[T] { return hypotE(ctx3[T](), x, y) }

// Exp returns e^x.
func (x F4[T]) Exp() F4[T] { return expE(ctx4[T](), x) }

// Log returns ln x.
func (x F4[T]) Log() F4[T] { return logE(ctx4[T](), x) }

// Log2 returns log₂ x.
func (x F4[T]) Log2() F4[T] { return log2E(ctx4[T](), x) }

// Log10 returns log₁₀ x.
func (x F4[T]) Log10() F4[T] { return log10E(ctx4[T](), x) }

// Exp2 returns 2^x.
func (x F4[T]) Exp2() F4[T] { return exp2E(ctx4[T](), x) }

// Pow returns x^y (NaN for negative x).
func (x F4[T]) Pow(y F4[T]) F4[T] { return powE(ctx4[T](), x, y) }

// PowInt returns x^k by binary exponentiation.
func (x F4[T]) PowInt(k int) F4[T] { return powIntE(ctx4[T](), x, k) }

// SinCos returns (sin x, cos x).
func (x F4[T]) SinCos() (F4[T], F4[T]) { return sincosE(ctx4[T](), x) }

// Sin returns sin x.
func (x F4[T]) Sin() F4[T] { s, _ := sincosE(ctx4[T](), x); return s }

// Cos returns cos x.
func (x F4[T]) Cos() F4[T] { _, c := sincosE(ctx4[T](), x); return c }

// Tan returns tan x.
func (x F4[T]) Tan() F4[T] { return tanE(ctx4[T](), x) }

// Asin returns arcsin x.
func (x F4[T]) Asin() F4[T] { return asinE(ctx4[T](), x) }

// Acos returns arccos x.
func (x F4[T]) Acos() F4[T] { return acosE(ctx4[T](), x) }

// Atan returns arctan x.
func (x F4[T]) Atan() F4[T] { return atanE(ctx4[T](), x) }

// Atan2F4 returns the full-quadrant arctangent of y/x.
func Atan2F4[T Float](y, x F4[T]) F4[T] { return atan2E(ctx4[T](), y, x) }

// Sinh returns sinh x.
func (x F4[T]) Sinh() F4[T] { return sinhE(ctx4[T](), x) }

// Cosh returns cosh x.
func (x F4[T]) Cosh() F4[T] { return coshE(ctx4[T](), x) }

// Tanh returns tanh x.
func (x F4[T]) Tanh() F4[T] { return tanhE(ctx4[T](), x) }

// Expm1 returns e^x − 1, accurate even for tiny x.
func (x F4[T]) Expm1() F4[T] { return expm1E(ctx4[T](), x) }

// Log1p returns ln(1+x), accurate even for tiny x.
func (x F4[T]) Log1p() F4[T] { return log1pE(ctx4[T](), x) }

// Cbrt returns the real cube root of x (odd symmetry for negative x).
func (x F4[T]) Cbrt() F4[T] { return cbrtE(ctx4[T](), x) }

// Hypot returns √(x²+y²) without overflow in the squares.
func (x F4[T]) Hypot(y F4[T]) F4[T] { return hypotE(ctx4[T](), x, y) }
