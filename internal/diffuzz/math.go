package diffuzz

// Differential tier for the elementary functions (mf/math.go): every
// public transcendental is cross-checked against internal/refmath — the
// big.Float reference library whose π/ln2 evaluations are themselves
// pinned by independent identities — on the same three input regimes as
// the arithmetic tier:
//
//  1. in-threshold adversarial arguments (huge trig inputs near
//     multiples of π·2^k, exp/log arguments at the overflow and
//     cancellation corners, pow exponents a hair off integers, asin
//     within ulps of ±1) where the measured per-(op, width) bound of
//     TESTING.md's "Elementary functions" table is *enforced*;
//  2. edge-of-format inputs (subnormal leads, results whose expansion
//     tails underflow) where error is recorded but not enforced;
//  3. special values and domain violations, checked against each
//     function's documented contract (NaN collapse, exact ±Inf/0/±1
//     returns, the §4.4 conventions).
//
// Unlike the arithmetic tier the oracle here is refmath rather than
// mpfloat: the limb library has no transcendentals, and refmath's
// argument-span-aware precision (the caller widens by the operand's bit
// span) keeps oracle error hundreds of bits below every enforced bound.

import (
	"fmt"
	"math"
	"math/big"

	"multifloats/internal/eft"
	"multifloats/internal/refmath"
	"multifloats/mf"
)

// mathOraclePrec is the base oracle working precision; mathPrec widens
// it by the operand bit span so cancellation-sensitive reference paths
// (log near 1, asin near ±1, trig reduction) never lose the tail.
const mathOraclePrec = 768

// mathFnNames lists every differentially-tested elementary function, in
// report order. Binary ops (pow, atan2, hypot) take two operands.
var mathFnNames = []string{
	"exp", "expm1", "exp2", "log", "log1p", "log2", "log10", "pow",
	"sin", "cos", "tan", "asin", "acos", "atan", "atan2",
	"sinh", "cosh", "tanh", "cbrt", "hypot",
}

// mathDefaultFloor is the enforced relative-accuracy floor (bits) for
// the well-conditioned forward functions, set from deep campaign runs
// with margin; per-op deviations are in mathFloorOverride and their
// rationale is in TESTING.md.
var mathDefaultFloor = map[int]float64{2: 92, 3: 144, 4: 196}

var mathFloorOverride = map[string]map[int]float64{
	// tan divides two bounded kernels; asin/acos pay the cos-z Newton
	// conditioning near the 0.9 identity switch; atan2 adds a π-shift.
	"tan": {2: 89, 3: 141, 4: 193},
	// sin/cos pay the Payne–Hanek reduced argument's conditioning on
	// huge inputs (|x| up to 2^1000 maps to r ∈ (−π/4, π/4] with no
	// headroom above the series' own error).
	"sin":   {2: 92, 3: 142, 4: 193},
	"cos":   {2: 92, 3: 142, 4: 193},
	"asin":  {2: 89, 3: 141, 4: 193},
	"acos":  {2: 88, 3: 140, 4: 192},
	"atan":  {2: 90, 3: 142, 4: 194},
	"atan2": {2: 89, 3: 141, 4: 193},
	// pow amplifies the ln-x error by |y·ln x| ≤ 500 ≈ 2^9.
	"pow": {2: 80, 3: 132, 4: 184},
}

func mathBoundBits(name string, width int) float64 {
	if o, ok := mathFloorOverride[name]; ok {
		return o[width]
	}
	return mathDefaultFloor[width]
}

// mathBase strips the "_N" width suffix from a registry name.
func mathBase(name string) string { return name[:len(name)-2] }

func mathIsBinary(name string) bool {
	return name == "pow" || name == "atan2" || name == "hypot"
}

// ---------------------------------------------------------- evaluation ----

// mathable is the elementary-function surface shared by all widths.
type mathable[E any] interface {
	Exp() E
	Expm1() E
	Exp2() E
	Log() E
	Log1p() E
	Log2() E
	Log10() E
	Sin() E
	Cos() E
	Tan() E
	Asin() E
	Acos() E
	Atan() E
	Sinh() E
	Cosh() E
	Tanh() E
	Cbrt() E
	Pow(E) E
	Hypot(E) E
}

func evalMathE[E mathable[E]](name string, x, y E) E {
	switch name {
	case "exp":
		return x.Exp()
	case "expm1":
		return x.Expm1()
	case "exp2":
		return x.Exp2()
	case "log":
		return x.Log()
	case "log1p":
		return x.Log1p()
	case "log2":
		return x.Log2()
	case "log10":
		return x.Log10()
	case "sin":
		return x.Sin()
	case "cos":
		return x.Cos()
	case "tan":
		return x.Tan()
	case "asin":
		return x.Asin()
	case "acos":
		return x.Acos()
	case "atan":
		return x.Atan()
	case "sinh":
		return x.Sinh()
	case "cosh":
		return x.Cosh()
	case "tanh":
		return x.Tanh()
	case "cbrt":
		return x.Cbrt()
	case "pow":
		return x.Pow(y)
	case "hypot":
		return x.Hypot(y)
	}
	panic("diffuzz: unknown math op " + name)
}

// evalMath runs the named function at width n through the public mf API.
// b is nil for unary ops; atan2 takes (y, x) = (a, b).
func evalMath(n int, name string, a, b []float64) []float64 {
	switch n {
	case 2:
		if name == "atan2" {
			z := mf.Atan2F2(toF2(a), toF2(b))
			return z[:]
		}
		var y mf.Float64x2
		if b != nil {
			y = toF2(b)
		}
		z := evalMathE(name, toF2(a), y)
		return z[:]
	case 3:
		if name == "atan2" {
			z := mf.Atan2F3(toF3(a), toF3(b))
			return z[:]
		}
		var y mf.Float64x3
		if b != nil {
			y = toF3(b)
		}
		z := evalMathE(name, toF3(a), y)
		return z[:]
	default:
		if name == "atan2" {
			z := mf.Atan2F4(toF4(a), toF4(b))
			return z[:]
		}
		var y mf.Float64x4
		if b != nil {
			y = toF4(b)
		}
		z := evalMathE(name, toF4(a), y)
		return z[:]
	}
}

// -------------------------------------------------------------- oracle ----

// mathPrec returns the oracle working precision for the given operands:
// the base precision plus the widest operand bit span, so exact
// differences like x−1 and trig reduction never round away a tail.
func mathPrec(operands ...[]float64) uint {
	p := mathOraclePrec
	for _, t := range operands {
		if t == nil || t[0] == 0 {
			continue
		}
		if s := leadExp(t) - (minNonzeroExp(t) - 53); s > 0 && mathOraclePrec+s > p {
			p = mathOraclePrec + s
		}
	}
	if p > 4608 {
		p = 4608
	}
	return uint(p)
}

// bigTerms sums finite expansion terms exactly at the given precision.
func bigTerms(terms []float64, prec uint) *big.Float {
	z := new(big.Float).SetPrec(prec)
	t := new(big.Float)
	for _, v := range terms {
		if v != 0 {
			z.Add(z, t.SetFloat64(v))
		}
	}
	return z
}

func mathOracle(name string, prec uint, a, b *big.Float) *big.Float {
	switch name {
	case "exp":
		return refmath.Exp(a, prec)
	case "expm1":
		return refmath.Expm1(a, prec)
	case "exp2":
		return refmath.Exp2(a, prec)
	case "log":
		return refmath.Log(a, prec)
	case "log1p":
		return refmath.Log1p(a, prec)
	case "log2":
		return refmath.Log2(a, prec)
	case "log10":
		return refmath.Log10(a, prec)
	case "sin":
		s, _ := refmath.SinCos(a, prec)
		return s
	case "cos":
		_, c := refmath.SinCos(a, prec)
		return c
	case "tan":
		return refmath.Tan(a, prec)
	case "asin":
		return refmath.Asin(a, prec)
	case "acos":
		return refmath.Acos(a, prec)
	case "atan":
		return refmath.Atan(a, prec)
	case "atan2":
		return refmath.Atan2(a, b, prec)
	case "sinh":
		return refmath.Sinh(a, prec)
	case "cosh":
		return refmath.Cosh(a, prec)
	case "tanh":
		return refmath.Tanh(a, prec)
	case "cbrt":
		return refmath.Cbrt(a, prec)
	case "pow":
		return refmath.Pow(a, b, prec)
	case "hypot":
		return refmath.Hypot(a, b, prec)
	}
	panic("diffuzz: unknown math op " + name)
}

// errAgainstBig is errAgainst for the big.Float oracle: the observed
// relative error of got against exact, in units of 2^-boundBits and as
// -log2(rel). Callers screen non-finite got first.
func errAgainstBig(exact *big.Float, got []float64, boundBits float64, prec uint) (units, bits float64) {
	g := bigTerms(got, prec)
	diff := new(big.Float).SetPrec(prec).Sub(exact, g)
	if diff.Sign() == 0 {
		return 0, math.Inf(1)
	}
	if exact.Sign() == 0 {
		return math.Inf(1), math.Inf(-1)
	}
	rel := new(big.Float).SetPrec(prec).Quo(
		new(big.Float).Abs(diff), new(big.Float).Abs(exact))
	mant := new(big.Float)
	e := rel.MantExp(mant)
	mf64, _ := mant.Float64() // ∈ [0.5, 1)
	bits = -(float64(e) + math.Log2(mf64))
	u := new(big.Float).SetMantExp(rel, int(boundBits))
	units, _ = u.Float64()
	if bits > BitsExact {
		bits = BitsExact
	}
	return units, bits
}

// checkMathAgainst folds the oracle comparison and sanity logic shared
// by every elementary function.
func checkMathAgainst(spec OpSpec, exact *big.Float, got []float64, inTh bool, prec uint) Outcome {
	if anyNonFinite(got) {
		if inTh {
			return fail(math.MaxFloat64, 0, true,
				fmt.Sprintf("%s: non-finite result %v from finite in-threshold input", spec.Name, got))
		}
		// Out of threshold a saturated ±Inf (overflowed result) is
		// acceptable; record the case without a measurement.
		return pass(0, BitsExact, false)
	}
	units, bits := errAgainstBig(exact, got, spec.BoundBits, prec)
	if units == 0 {
		return exactOutcome(inTh)
	}
	if inTh {
		if exact.Sign() == 0 {
			return fail(math.MaxFloat64, 0, true,
				fmt.Sprintf("%s: nonzero result %v for exactly-zero true value", spec.Name, got))
		}
		if units > spec.Allowed {
			return fail(units, bits, true,
				fmt.Sprintf("%s: error %.3g units of 2^-%g bound (allowed %g)", spec.Name, units, spec.BoundBits, spec.Allowed))
		}
		return pass(units, bits, true)
	}
	return pass(units, bits, false)
}

// ------------------------------------------------------ classification ----

// mathClass routes a case: the oracle path, or one of the per-function
// special contracts.
type mathClass int

const (
	mcOracle mathClass = iota // compare against refmath
	mcNaN                     // result must be NaN
	mcPosInf                  // result must be +Inf
	mcNegInf                  // result must be -Inf
	mcExact                   // result must be exactly the given float64
	mcApprox                  // lead must match the given float64 to ~1 ulp
	mcGray                    // overflow/underflow gray band: anything but NaN
	mcLoose                   // non-finite tail junk: any result accepted
)

// specialMathOutcome checks got against a non-oracle class.
func specialMathOutcome(spec OpSpec, cls mathClass, want float64, got []float64) Outcome {
	ok := false
	switch cls {
	case mcNaN:
		ok = math.IsNaN(got[0])
	case mcPosInf:
		ok = math.IsInf(got[0], 1)
	case mcNegInf:
		ok = math.IsInf(got[0], -1)
	case mcExact:
		ok = got[0] == want
		for _, v := range got[1:] {
			ok = ok && v == 0
		}
	case mcApprox:
		ok = math.Abs(got[0]-want) <= 4*math.Abs(want)*0x1p-52
	case mcGray:
		ok = !math.IsNaN(got[0])
	case mcLoose:
		ok = true
	}
	if ok {
		return Outcome{Special: true, OK: true, ErrBits: math.Inf(1)}
	}
	return Outcome{Special: true, Reason: fmt.Sprintf(
		"%s: special contract (class %d, want %v) violated by %v", spec.Name, cls, want, got)}
}

// nonFiniteTailOnly reports a finite lead carrying non-finite tail junk
// (not a representable value; contracts don't cover it).
func nonFiniteTailOnly(terms []float64) bool {
	return !math.IsNaN(terms[0]) && !math.IsInf(terms[0], 0) && anyNonFinite(terms)
}

// classifyMathUnary routes non-finite, out-of-domain, and beyond-format
// arguments to the matching contract class; everything else goes to the
// oracle.
func classifyMathUnary(name string, a []float64) (mathClass, float64) {
	lead := a[0]
	if nonFiniteTailOnly(a) {
		return mcLoose, 0
	}
	if math.IsNaN(lead) {
		return mcNaN, 0
	}
	if math.IsInf(lead, 0) {
		pos := lead > 0
		switch name {
		case "exp", "exp2":
			if pos {
				return mcPosInf, 0
			}
			return mcExact, 0
		case "expm1":
			if pos {
				return mcPosInf, 0
			}
			return mcExact, -1
		case "log", "log2", "log10", "log1p":
			if pos {
				return mcPosInf, 0
			}
			return mcNaN, 0
		case "sinh":
			if pos {
				return mcPosInf, 0
			}
			return mcNegInf, 0
		case "cosh":
			return mcPosInf, 0
		case "tanh":
			if pos {
				return mcExact, 1
			}
			return mcExact, -1
		case "atan":
			return mcApprox, math.Copysign(math.Pi/2, lead)
		default: // sin, cos, tan, asin, acos, cbrt: NaN collapse
			return mcNaN, 0
		}
	}
	// Finite arguments: domain and overflow classification.
	switch name {
	case "exp", "expm1", "sinh", "cosh":
		switch {
		case lead > 712: // exp, expm1, sinh, cosh all saturate to +Inf
			return mcPosInf, 0
		case lead > 709.5:
			return mcGray, 0
		case lead < -746 && name == "exp":
			return mcExact, 0
		case lead < -746 && name == "expm1":
			return mcExact, -1
		case lead < -744 && (name == "exp" || name == "expm1"):
			return mcGray, 0
		case lead < -712 && name == "sinh":
			return mcNegInf, 0
		case lead < -712 && name == "cosh":
			return mcPosInf, 0
		case lead < -709.5 && (name == "sinh" || name == "cosh"):
			return mcGray, 0
		}
	case "exp2":
		switch {
		case lead > 1027:
			return mcPosInf, 0
		case lead > 1022:
			return mcGray, 0
		case lead < -1078:
			return mcExact, 0
		case lead < -1070:
			return mcGray, 0
		}
	case "tanh":
		if math.Abs(lead) > 100 {
			// |tanh|−1 < 2e^-200 ≈ 2^-287, beyond every format bound:
			// the clamp must return exactly ±1.
			return mcExact, math.Copysign(1, lead)
		}
	case "log", "log2", "log10":
		if lead == 0 {
			return mcNegInf, 0
		}
		if lead < 0 {
			return mcNaN, 0
		}
	case "log1p":
		v := bigTerms(a, mathPrec(a))
		switch v.Cmp(big.NewFloat(-1)) {
		case -1:
			return mcNaN, 0
		case 0:
			return mcNegInf, 0
		}
	case "asin", "acos":
		v := bigTerms(a, mathPrec(a))
		if new(big.Float).Abs(v).Cmp(big.NewFloat(1)) > 0 {
			return mcNaN, 0
		}
	}
	return mcOracle, 0
}

// classifyMathBinary routes pow/atan2/hypot contract cases; a is the
// first operand (pow base, atan2 y, hypot x).
func classifyMathBinary(name string, a, b []float64) (mathClass, float64) {
	if nonFiniteTailOnly(a) || nonFiniteTailOnly(b) {
		return mcLoose, 0
	}
	af, bf := a[0], b[0]
	switch name {
	case "hypot":
		if math.IsInf(af, 0) || math.IsInf(bf, 0) {
			return mcPosInf, 0 // IEEE: +Inf even when the other leg is NaN
		}
		if math.IsNaN(af) || math.IsNaN(bf) {
			return mcNaN, 0
		}
		if h := math.Hypot(af, bf); h > 1.5e308 || math.IsInf(h, 0) {
			return mcGray, 0
		}
	case "atan2":
		if anyNonFinite(a, b) {
			// Inf legs route through a collapsing expansion Div (§4.4).
			return mcNaN, 0
		}
	case "pow":
		if bf == 0 && bigTerms(b, mathPrec(b)).Sign() == 0 {
			return mcExact, 1 // x^0 = 1 for every x, IEEE pow
		}
		if math.IsNaN(af) || math.IsNaN(bf) || math.IsInf(af, 0) || math.IsInf(bf, 0) {
			return mcNaN, 0 // §4.4 collapse: any other non-finite operand
		}
		if af == 0 {
			if bf > 0 {
				return mcExact, 0
			}
			return mcPosInf, 0
		}
		if af < 0 {
			return mcNaN, 0 // negative base: documented NaN, even integer y
		}
		// x > 0: classify by t = y·ln x (see powT).
		t := powT(a, b)
		switch {
		case t > 715:
			return mcPosInf, 0
		case t > 705:
			return mcGray, 0
		case t < -748:
			return mcExact, 0
		case t < -740:
			return mcGray, 0
		}
	}
	return mcOracle, 0
}

// powT returns t = y·ln x for a positive base, with both operands taken
// at their exact expansion values: the leads alone misread x = 1+2^-61
// against y ≈ -2^70 as t = 0 when the true t ≈ -708 puts the result in
// the subnormal range.
func powT(a, b []float64) float64 {
	yf, _ := bigTerms(b, mathPrec(b)).Float64()
	return yf * lnBig(bigTerms(a, mathPrec(a)))
}

// lnBig returns ln v for v > 0 in float64, taking v - 1 exactly near 1,
// where the rounded v alone would give ln v = 0.
func lnBig(v *big.Float) float64 {
	d := new(big.Float).SetPrec(v.Prec()).Sub(v, big.NewFloat(1))
	df, _ := d.Float64()
	if math.Abs(df) <= 0.5 {
		return math.Log1p(df)
	}
	vf, _ := v.Float64()
	if math.IsInf(vf, 0) {
		vf = math.MaxFloat64
	}
	return math.Log(vf)
}

// logLead approximates the lead of a log-family result from the
// operand's exact value.
func logLead(name string, a []float64) float64 {
	v := bigTerms(a, mathPrec(a))
	switch name {
	case "log1p":
		if vf, _ := v.Float64(); math.Abs(vf) <= 0.5 {
			return math.Log1p(vf)
		}
		// |v| > 0.5: 64 more bits hold v + 1 exactly.
		return lnBig(new(big.Float).SetPrec(v.Prec()+64).Add(v, big.NewFloat(1)))
	case "log2":
		return lnBig(v) / math.Ln2
	case "log10":
		return lnBig(v) / math.Ln10
	}
	return lnBig(v)
}

// normalTail reports whether a width-n result whose lead is about r
// keeps its expansion tail, about 53·(n-1) binades below the lead, in
// the normal range. A zero or infinite r passes: its tail is not what
// limits the check.
func normalTail(r float64, n int) bool {
	return r == 0 || math.IsInf(r, 0) || eft.Exponent(r)-53*(n-1) >= -1022
}

// ---------------------------------------------------------- thresholds ----

// mathInTh reports whether the per-(op, width) bound is enforced for
// these operands: the argument windows keep every result — including
// its width-n expansion tail — inside the normal float64 range, the
// §2.1-style assumption the kernels need.
func mathInTh(name string, a, b []float64) bool {
	switch name {
	case "exp", "expm1", "sinh", "cosh":
		return math.Abs(a[0]) <= 500 && expRangeOK(a, -1040, 1000)
	case "exp2":
		return math.Abs(a[0]) <= 722 && expRangeOK(a, -1040, 1000)
	case "pow":
		// |y·ln x| ≤ 500 keeps the result (and its expansion tail) far
		// from both overflow and the subnormal range; powT uses the exact
		// expansion values, since the leads alone misjudge x near 1.
		return math.Abs(powT(a, b)) <= 500 &&
			expRangeOK(a, -1000, 1000) && expRangeOK(b, -1000, 1000)
	case "hypot":
		// The result lead is the larger leg's; it must sit high enough
		// that the full-width expansion tail of the result stays normal.
		if a[0] == 0 && b[0] == 0 {
			return true
		}
		lead := leadExp(a)
		if a[0] == 0 || (b[0] != 0 && leadExp(b) > lead) {
			lead = leadExp(b)
		}
		return expRangeOK(a, -1040, 1024) && expRangeOK(b, -1040, 1024) &&
			lead >= -800 && lead <= 1000
	case "atan2":
		// When x > 0 and |y| ≪ x the result is ≈ y/x; gate the regime
		// where that quotient (or its expansion tail) leaves the normal
		// range and cannot carry the bound.
		if b[0] > 0 && a[0] != 0 && leadExp(a)-leadExp(b) < -850 {
			return false
		}
		return expRangeOK(a, -1000, 1000) && expRangeOK(b, -1000, 1000)
	case "log", "log2", "log10", "log1p":
		// Gate the result, as hypot and atan2 do: log x ≈ x - 1 near 1
		// and log1p x ≈ x for tiny x put the result lead far below the
		// operand's, and a subnormal tail cannot carry the bound.
		return expRangeOK(a, -1000, 1000) && normalTail(logLead(name, a), len(a))
	default:
		// Trig, inverse trig, tanh, cbrt: relative-accurate over the
		// normal range; subnormal-touching operands are edge cases,
		// matching the arithmetic tier's convention.
		ok := expRangeOK(a, -1000, 1000)
		if b != nil {
			ok = ok && expRangeOK(b, -1000, 1000)
		}
		return ok
	}
}

// -------------------------------------------------------------- checks ----

// CheckMathUnary differentially tests the named unary elementary
// function at spec.Width against the refmath oracle.
func CheckMathUnary(spec OpSpec, name string, a []float64) Outcome {
	got := evalMath(spec.Width, name, a, nil)
	if cls, want := classifyMathUnary(name, a); cls != mcOracle {
		return specialMathOutcome(spec, cls, want, got)
	}
	prec := mathPrec(a)
	exact := mathOracle(name, prec, bigTerms(a, prec), nil)
	return checkMathAgainst(spec, exact, got, mathInTh(name, a, nil), prec)
}

// CheckMathBinary differentially tests pow(a, b), atan2(a, b) (a = y,
// b = x), or hypot(a, b).
func CheckMathBinary(spec OpSpec, name string, a, b []float64) Outcome {
	got := evalMath(spec.Width, name, a, b)
	if cls, want := classifyMathBinary(name, a, b); cls != mcOracle {
		return specialMathOutcome(spec, cls, want, got)
	}
	prec := mathPrec(a, b)
	exact := mathOracle(name, prec, bigTerms(a, prec), bigTerms(b, prec))
	return checkMathAgainst(spec, exact, got, mathInTh(name, a, b), prec)
}

// ----------------------------------------------------------- generators ----

// canonBig rounds a big.Float to its nearest n-term expansion (greedy
// round-and-subtract, the Canon decomposition).
func canonBig(v *big.Float, n int) []float64 {
	out := make([]float64, n)
	rem := new(big.Float).SetPrec(v.Prec()).Set(v)
	t := new(big.Float)
	for i := 0; i < n; i++ {
		f, _ := rem.Float64()
		if math.IsInf(f, 0) {
			out[0] = f
			return out
		}
		out[i] = f
		if f == 0 {
			break
		}
		rem.Sub(rem, t.SetFloat64(f))
	}
	return out
}

// mathLadder returns a canonical n-term expansion whose leading exponent
// is near lead (a full-width adversarial significand ladder).
func (g *Gen) mathLadder(n, lead int) []float64 {
	raw := make([]float64, n)
	e := lead
	for i := range raw {
		raw[i] = genTerm(g.rng.Intn(2) == 0, g.mantissa(), e)
		e -= 53 + g.rng.Intn(10)
	}
	x, ok := Canon(n, raw)
	if !ok {
		return []float64{1, 0, 0, 0}[:n]
	}
	return x
}

// mathPositive returns a positive canonical ladder.
func (g *Gen) mathPositive(n, lead int) []float64 {
	x := g.mathLadder(n, lead)
	if x[0] < 0 {
		for i := range x {
			x[i] = -x[i]
		}
	}
	if x[0] == 0 {
		x[0] = 1
	}
	return x
}

// mathNear returns the canonical expansion of center + δ with
// |δ| ≈ 2^-(2..scale): the "within ulps of a landmark" regimes (exp
// overflow threshold, log near 1, asin near ±1, pow near integers).
func (g *Gen) mathNear(n int, center float64, scale int) []float64 {
	d := genTerm(g.rng.Intn(2) == 0, g.mantissa(), -2-g.rng.Intn(scale))
	x, ok := Canon(n, []float64{center, d})
	if !ok {
		return []float64{center, 0, 0, 0}[:n]
	}
	return x
}

// mathNearPiMultiple returns the nearest n-term expansion to k·π/2 for
// a random k: the deepest cancellation the Payne–Hanek reduction can
// face from a representable input (the residual is the expansion's own
// rounding error, ~2^(e-53n)).
func (g *Gen) mathNearPiMultiple(n int) []float64 {
	k := 1 + g.rng.Int63n(1<<45)
	v := new(big.Float).SetPrec(uint(400 + 64*n)).Set(refmath.Pi(uint(400 + 64*n)))
	v.Quo(v, big.NewFloat(2))
	v.Mul(v, new(big.Float).SetInt64(k))
	x := canonBig(v, n)
	if g.rng.Intn(2) == 0 {
		for i := range x {
			x[i] = -x[i]
		}
	}
	if g.rng.Intn(3) == 0 && x[n-1] != 0 {
		// A few ulps off the exact rounding: almost-worst-case residuals.
		x[n-1] = math.Float64frombits(math.Float64bits(x[n-1]) + uint64(1+g.rng.Intn(4)))
	}
	return x
}

// mathWorstTrigDouble is Ng's classic float64 reduction worst case.
func mathWorstTrigDouble(n int) []float64 {
	x := make([]float64, n)
	x[0] = math.Ldexp(6381956970095103, 797)
	return x
}

// mathArgs draws one adversarial operand set for the named function.
// b is nil for unary functions.
func (g *Gen) mathArgs(name string, n int) (a, b []float64) {
	r := g.rng.Intn(20)
	// Shared hostile regimes across all ops.
	if r >= 18 {
		a = withSpecialLead(g, n)
	} else if r >= 16 {
		a = g.EdgeExpansion(n)
	}
	if a != nil {
		if mathIsBinary(name) {
			return a, g.mathLadder(n, g.rng.Intn(10))
		}
		return a, nil
	}
	switch name {
	case "exp", "expm1", "sinh", "cosh", "tanh":
		switch {
		case r < 8: // general range
			a = g.mathLadder(n, g.rng.Intn(10))
		case r < 11: // overflow/underflow thresholds, within ulps
			c := 709.782712893384
			if g.rng.Intn(2) == 0 {
				c = -745.133219101941
			}
			a = g.mathNear(n, c, 60)
		case r < 14: // tiny arguments: the Taylor/cancellation corners
			a = g.mathLadder(n, -2-g.rng.Intn(400))
		default: // moderate, near the kernel switch points (±0.5, clamps)
			a = g.mathNear(n, []float64{0.5, -0.5, 1, -1, 40, -40}[g.rng.Intn(6)], 120)
		}
	case "exp2":
		switch {
		case r < 8:
			a = g.mathLadder(n, g.rng.Intn(11))
		case r < 11:
			c := 1023.9
			if g.rng.Intn(2) == 0 {
				c = -1074.0
			}
			a = g.mathNear(n, c, 60)
		default:
			a = g.mathLadder(n, -2-g.rng.Intn(300))
		}
	case "log", "log2", "log10":
		switch {
		case r < 6: // positive, across the whole exponent range
			a = g.mathPositive(n, g.rng.Intn(2000)-1000)
		case r < 11: // within ulps of 1: the cancellation regime
			a = g.mathNear(n, 1, 60*n)
		case r < 13: // near the other kernel switch points
			a = g.mathNear(n, []float64{2.0 / 3, 4.0 / 3, 0.5, 2}[g.rng.Intn(4)], 100)
		case r < 14: // negative / zero: domain contract
			a = g.mathLadder(n, g.rng.Intn(20))
			a[0] = -math.Abs(a[0])
		default:
			a = g.mathPositive(n, g.rng.Intn(30))
		}
	case "log1p":
		switch {
		case r < 7: // tiny: relative accuracy through the Newton kernel
			a = g.mathLadder(n, -2-g.rng.Intn(60*n))
		case r < 11: // within ulps of −1
			a = g.mathNear(n, -1, 60*n)
		case r < 13: // below −1: domain contract
			a = g.mathNear(n, -1-1e-9, 20)
		default:
			a = g.mathLadder(n, g.rng.Intn(12))
		}
	case "sin", "cos", "tan":
		switch {
		case r < 5: // moderate
			a = g.mathLadder(n, g.rng.Intn(8))
		case r < 9: // huge: the Payne–Hanek range
			a = g.mathLadder(n, 100+g.rng.Intn(920))
		case r < 13: // nearest expansion to k·π/2: deepest cancellation
			a = g.mathNearPiMultiple(n)
		case r < 14:
			a = mathWorstTrigDouble(n)
		default: // tiny
			a = g.mathLadder(n, -g.rng.Intn(500))
		}
	case "asin", "acos":
		switch {
		case r < 6: // interior of the domain
			a = canonBig(big.NewFloat(g.rng.Float64()*2-1).SetPrec(200), n)
		case r < 11: // within ulps of ±1
			s := 1.0
			if g.rng.Intn(2) == 0 {
				s = -1
			}
			a = g.mathNear(n, s, 50*n)
		case r < 13: // just outside the domain
			a = g.mathNear(n, 1.0000000001*(float64(g.rng.Intn(2)*2-1)), 30)
		default: // tiny
			a = g.mathLadder(n, -g.rng.Intn(200))
		}
	case "atan", "cbrt":
		a = g.mathLadder(n, g.rng.Intn(2100)-1060)
	case "pow":
		a = g.mathPositive(n, g.rng.Intn(9))
		switch {
		case r < 8: // y within ulps of an integer (the near-exact powers)
			b = g.mathNear(n, float64(g.rng.Intn(81)-40), 60*n)
		case r < 12: // x within ulps of 1, y arbitrary (conditioning spike)
			a = g.mathNear(n, 1, 60*n)
			if a[0] < 0 {
				a[0] = -a[0]
			}
			b = g.mathLadder(n, g.rng.Intn(100))
		case r < 14: // overflow probes
			b = g.mathLadder(n, 300+g.rng.Intn(700))
		default:
			b = g.mathLadder(n, g.rng.Intn(8))
		}
	case "atan2":
		a = g.mathLadder(n, g.rng.Intn(1800)-900)
		b = g.mathLadder(n, g.rng.Intn(1800)-900)
		if r < 4 { // axes: the exact-zero conventions
			if g.rng.Intn(2) == 0 {
				a = make([]float64, n)
			} else {
				b = make([]float64, n)
			}
		}
	case "hypot":
		a = g.mathLadder(n, g.rng.Intn(1900)-950)
		b = g.mathLadder(n, g.rng.Intn(1900)-950)
		switch {
		case r < 4: // near-overflow legs
			a = g.mathNear(n, 1.2e308, 40)
			b = g.mathNear(n, 1.1e308, 40)
		case r < 6: // zero legs
			b = make([]float64, n)
		case r < 8: // equal-magnitude legs (the √2 path)
			b = append([]float64(nil), a...)
		}
	default:
		a = g.mathLadder(n, g.rng.Intn(10))
	}
	if mathIsBinary(name) && b == nil {
		b = g.mathLadder(n, g.rng.Intn(10))
	}
	return a, b
}
