package exact_test

// The order-invariance/exactness tier for the superaccumulator
// (ISSUE 7, ROADMAP item 3): every fold must be bit-identical to the
// mpfloat oracle's correctly rounded value, and bit-identical across
// every permutation, chunk split, and merge order of the same inputs.
// The oracle runs at 4800 bits: a sum of exact double products spans at
// most ~4200 bits (magnitudes up to 2^2048, ulps down to 2^-2148), so
// every oracle partial sum here is exact, not merely well-rounded.

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"multifloats/internal/exact"
	"multifloats/internal/mpfloat"
	"multifloats/mf"
)

const oraclePrec = 4800

// oracleSum returns the correctly rounded sum of terms via mpfloat,
// applying the package's IEEE special-value collapse (canonical NaN for
// any NaN operand or for +Inf and -Inf together).
func oracleSum(terms []float64) float64 {
	acc := mpfloat.New(oraclePrec)
	t := mpfloat.New(oraclePrec)
	var nan, pinf, ninf bool
	for _, x := range terms {
		switch {
		case math.IsNaN(x):
			nan = true
		case math.IsInf(x, 1):
			pinf = true
		case math.IsInf(x, -1):
			ninf = true
		default:
			acc.Add(acc, t.SetFloat64(x))
		}
	}
	if nan || (pinf && ninf) {
		return math.NaN()
	}
	if pinf {
		return math.Inf(1)
	}
	if ninf {
		return math.Inf(-1)
	}
	return acc.Float64()
}

// oracleDotAcc folds Σ x[i]·y[i] into an oracle accumulator, returning
// the special collapse flags alongside.
func oracleDotAcc(x, y []float64) (acc *mpfloat.Float, nan, pinf, ninf bool) {
	acc = mpfloat.New(oraclePrec)
	a := mpfloat.New(oraclePrec)
	b := mpfloat.New(oraclePrec)
	p := mpfloat.New(oraclePrec)
	for i := range x {
		xi, yi := x[i], y[i]
		switch {
		case math.IsNaN(xi) || math.IsNaN(yi):
			nan = true
		case math.IsInf(xi, 0) || math.IsInf(yi, 0):
			if xi == 0 || yi == 0 {
				nan = true
			} else if (xi < 0) != (yi < 0) {
				ninf = true
			} else {
				pinf = true
			}
		default:
			p.Mul(a.SetFloat64(xi), b.SetFloat64(yi))
			acc.Add(acc, p)
		}
	}
	return acc, nan, pinf, ninf
}

func oracleDot(x, y []float64) float64 {
	acc, nan, pinf, ninf := oracleDotAcc(x, y)
	if nan || (pinf && ninf) {
		return math.NaN()
	}
	if pinf {
		return math.Inf(1)
	}
	if ninf {
		return math.Inf(-1)
	}
	return acc.Float64()
}

// oracleExpand greedily rounds v to a width-w canonical expansion:
// t₀ = RN(v), t₁ = RN(v−t₀), … — the same contract SumExpansion
// implements and diffuzz's Canon form uses.
func oracleExpand(v *mpfloat.Float, w int) []float64 {
	out := make([]float64, w)
	rem := mpfloat.New(oraclePrec).Set(v)
	t := mpfloat.New(oraclePrec)
	for i := 0; i < w; i++ {
		f := rem.Float64()
		out[i] = f
		if f == 0 || math.IsInf(f, 0) {
			break
		}
		rem.Sub(rem, t.SetFloat64(f))
	}
	return out
}

func bitsEq(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func checkBits(t *testing.T, what string, got, want float64) {
	t.Helper()
	if !bitsEq(got, want) {
		t.Errorf("%s: got %v (%#016x), want %v (%#016x)",
			what, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// ---------------------------------------------------------------------
// Adversarial corpora. Each generator is deterministic in its rng.

// genTerm builds sign·mant·2^exp with adversarial significand patterns.
func genTerm(rng *rand.Rand, minExp, maxExp int) float64 {
	var mant uint64
	switch rng.Intn(4) {
	case 0:
		mant = 1
	case 1:
		mant = 1<<53 - 1
	case 2:
		mant = 1<<52 + uint64(rng.Intn(3))
	default:
		mant = rng.Uint64()>>11 | 1
	}
	exp := minExp + rng.Intn(maxExp-minExp+1)
	v := math.Ldexp(float64(mant), exp-52)
	if rng.Intn(2) == 1 {
		v = -v
	}
	return v
}

func corpora(rng *rand.Rand, n int) map[string][]float64 {
	c := map[string][]float64{}

	mix := make([]float64, n)
	for i := range mix {
		mix[i] = genTerm(rng, -400, 400)
	}
	c["mixed"] = mix

	// Cancellation chains: massive terms that annihilate pairwise,
	// leaving a tiny residual a naive sum cannot see.
	chain := make([]float64, 0, n)
	for len(chain) < n-1 {
		v := genTerm(rng, 200, 900)
		chain = append(chain, v, -v)
	}
	chain = append(chain, genTerm(rng, -1060, -1000))
	rng.Shuffle(len(chain), func(i, j int) { chain[i], chain[j] = chain[j], chain[i] })
	c["cancellation"] = chain

	// 2^k-spread exponents: adjacent terms never overlap, so every
	// deposit lands in disjoint bins and nothing may be lost.
	spread := make([]float64, n)
	for i := range spread {
		spread[i] = genTerm(rng, -1074+53*(i%38), -1074+53*(i%38))
	}
	c["spread"] = spread

	// Subnormal swarm: exactness below the normal range, where naive
	// compensation (and TwoProd error terms) break down.
	sub := make([]float64, n)
	for i := range sub {
		sub[i] = math.Ldexp(float64(rng.Int63n(1<<52)+1), -1074-52)
		if rng.Intn(2) == 1 {
			sub[i] = -sub[i]
		}
	}
	c["subnormal"] = sub

	// Extremes: near-overflow magnitudes with partial cancellation.
	big := make([]float64, n)
	for i := range big {
		big[i] = genTerm(rng, 960, 1023)
	}
	c["huge"] = big

	return c
}

// permutations returns the orders every reduction must agree across:
// identity, reversed, random shuffles, and exponent-sorted both ways.
func permutations(rng *rand.Rand, xs []float64) map[string][]float64 {
	n := len(xs)
	cp := func() []float64 { return append([]float64(nil), xs...) }
	perms := map[string][]float64{"identity": cp()}

	rev := cp()
	for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	perms["reversed"] = rev

	byExp := func(less bool) []float64 {
		s := cp()
		sort.SliceStable(s, func(i, j int) bool {
			_, ei := math.Frexp(s[i])
			_, ej := math.Frexp(s[j])
			if less {
				return ei < ej
			}
			return ei > ej
		})
		return s
	}
	perms["exp-ascending"] = byExp(true)
	perms["exp-descending"] = byExp(false)

	for k := 0; k < 3; k++ {
		s := cp()
		rng.Shuffle(n, func(i, j int) { s[i], s[j] = s[j], s[i] })
		perms[[...]string{"shuffle-a", "shuffle-b", "shuffle-c"}[k]] = s
	}
	return perms
}

// ---------------------------------------------------------------------

func TestSumMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(701))
	for name, xs := range corpora(rng, 257) {
		checkBits(t, "Sum("+name+")", exact.Sum(xs), oracleSum(xs))
	}
	// Directed edges.
	cases := [][]float64{
		nil,
		{},
		{0},
		{-0.0},
		{-0.0, -0.0},
		{1, -1},
		{math.MaxFloat64, math.MaxFloat64},
		{-math.MaxFloat64, -math.MaxFloat64, math.MaxFloat64},
		{math.MaxFloat64, math.MaxFloat64, -math.MaxFloat64, -math.MaxFloat64, 1.5},
		{5e-324, 5e-324, -5e-324},
		{1e308, 1e308, -1e308, -1e308},
		{1, math.Ldexp(1, -1074)},
		{math.Ldexp(1, 1023), math.Ldexp(-1, -1074)},
	}
	for _, xs := range cases {
		checkBits(t, "Sum(edge)", exact.Sum(xs), oracleSum(xs))
	}
}

func TestDotMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(702))
	for name, xs := range corpora(rng, 128) {
		ys := make([]float64, len(xs))
		for i := range ys {
			ys[i] = genTerm(rng, -1074, 1023)
		}
		checkBits(t, "Dot("+name+")", exact.Dot(xs, ys), oracleDot(xs, ys))
	}
	// Products that underflow TwoProd's error term but not the integers.
	tiny := make([]float64, 64)
	ty := make([]float64, 64)
	for i := range tiny {
		tiny[i] = math.Ldexp(float64(rng.Int63n(1<<52)+1), -1074-52)
		ty[i] = math.Ldexp(float64(rng.Int63n(1<<52)+1), -60-52)
	}
	checkBits(t, "Dot(subnormal-products)", exact.Dot(tiny, ty), oracleDot(tiny, ty))
	// Overflowing magnitudes.
	checkBits(t, "Dot(overflow)",
		exact.Dot([]float64{math.MaxFloat64}, []float64{math.MaxFloat64}),
		math.Inf(1))
}

func TestSumSpecials(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	cases := []struct {
		name string
		xs   []float64
	}{
		{"pinf", []float64{1, inf, 2}},
		{"ninf", []float64{-inf, 5}},
		{"inf-cancel", []float64{inf, -inf}},
		{"nan", []float64{1, nan, 2}},
		{"nan-and-inf", []float64{nan, inf}},
		{"two-pinf", []float64{inf, inf}},
	}
	for _, c := range cases {
		checkBits(t, "Sum("+c.name+")", exact.Sum(c.xs), oracleSum(c.xs))
	}
	// Dot special algebra: Inf·0 is NaN, Inf·finite keeps the XOR sign.
	checkBits(t, "Dot(inf·0)", exact.Dot([]float64{inf}, []float64{0}), nan)
	checkBits(t, "Dot(inf·-2)", exact.Dot([]float64{inf}, []float64{-2}), -inf)
	checkBits(t, "Dot(-inf·-2)", exact.Dot([]float64{-inf}, []float64{-2}), inf)
	checkBits(t, "Dot(inf-cancel)", exact.Dot([]float64{inf, 1}, []float64{1, -inf}), nan)
	// NaN results are the canonical quiet NaN, bit-for-bit.
	if got := math.Float64bits(exact.Sum([]float64{nan, 1})); got != math.Float64bits(nan) {
		t.Errorf("NaN not canonical: %#016x", got)
	}
}

func TestZeroSignContract(t *testing.T) {
	// An exact zero folds to +0 — even from all-negative zeros (documented
	// divergence from sequential IEEE addition).
	for _, xs := range [][]float64{{}, {-0.0}, {-0.0, -0.0}, {1.5, -1.5}} {
		if got := math.Float64bits(exact.Sum(xs)); got != 0 {
			t.Errorf("Sum(%v) = %#016x, want +0", xs, got)
		}
	}
	// A nonzero value that rounds to zero keeps its sign, IEEE-style:
	// the exact product (-2^-1074)·(2^-1074) = -2^-2148 rounds to -0.
	got := exact.Dot([]float64{-5e-324}, []float64{5e-324})
	if math.Float64bits(got) != math.Float64bits(math.Copysign(0, -1)) {
		t.Errorf("Dot(-tiny·tiny) = %#016x, want -0", math.Float64bits(got))
	}
}

func TestPermutationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(703))
	for name, xs := range corpora(rng, 256) {
		want := exact.Sum(xs)
		checkBits(t, "oracle("+name+")", want, oracleSum(xs))
		for pname, p := range permutations(rng, xs) {
			checkBits(t, "Sum("+name+"/"+pname+")", exact.Sum(p), want)
		}
	}
}

func TestPermutationInvarianceExpansions(t *testing.T) {
	rng := rand.New(rand.NewSource(704))
	n := 96
	x2 := make([]mf.Float64x2, n)
	x3 := make([]mf.Float64x3, n)
	x4 := make([]mf.Float64x4, n)
	y2 := make([]mf.Float64x2, n)
	y3 := make([]mf.Float64x3, n)
	y4 := make([]mf.Float64x4, n)
	for i := 0; i < n; i++ {
		for j := 0; j < 4; j++ {
			v := genTerm(rng, -500, 500)
			w := genTerm(rng, -500, 500)
			if j < 2 {
				x2[i][j], y2[i][j] = v, w
			}
			if j < 3 {
				x3[i][j], y3[i][j] = v, w
			}
			x4[i][j], y4[i][j] = v, w
		}
	}
	s2, s3, s4 := exact.Sum2(x2), exact.Sum3(x3), exact.Sum4(x4)
	d2, d3, d4 := exact.Dot2(x2, y2), exact.Dot3(x3, y3), exact.Dot4(x4, y4)
	for trial := 0; trial < 5; trial++ {
		perm := rng.Perm(n)
		p2 := make([]mf.Float64x2, n)
		p3 := make([]mf.Float64x3, n)
		p4 := make([]mf.Float64x4, n)
		q2 := make([]mf.Float64x2, n)
		q3 := make([]mf.Float64x3, n)
		q4 := make([]mf.Float64x4, n)
		for i, j := range perm {
			p2[i], p3[i], p4[i] = x2[j], x3[j], x4[j]
			q2[i], q3[i], q4[i] = y2[j], y3[j], y4[j]
		}
		if exact.Sum2(p2) != s2 || exact.Sum3(p3) != s3 || exact.Sum4(p4) != s4 {
			t.Fatalf("expansion Sum not permutation-invariant (trial %d)", trial)
		}
		if exact.Dot2(p2, q2) != d2 || exact.Dot3(p3, q3) != d3 || exact.Dot4(p4, q4) != d4 {
			t.Fatalf("expansion Dot not permutation-invariant (trial %d)", trial)
		}
	}
}

func TestSumExpansionMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(705))
	for name, xs := range corpora(rng, 200) {
		acc := mpfloat.New(oraclePrec)
		tm := mpfloat.New(oraclePrec)
		for _, x := range xs {
			acc.Add(acc, tm.SetFloat64(x))
		}
		var a exact.Accumulator
		a.AddValues(xs)
		for w := 2; w <= 4; w++ {
			got := a.SumExpansion(w)
			want := oracleExpand(acc, w)
			for i := range got {
				checkBits(t, "SumExpansion("+name+")", got[i], want[i])
			}
		}
	}
}

// TestMergeSplits proves Merge(split(x)) == Sum(x) bit-for-bit for
// every split strategy: contiguous chunks at random boundaries, merged
// sequentially, in reverse, and as a balanced tree — with renorms
// forced at arbitrary points in between.
func TestMergeSplits(t *testing.T) {
	rng := rand.New(rand.NewSource(706))
	for name, xs := range corpora(rng, 300) {
		want := exact.Sum(xs)
		for trial := 0; trial < 6; trial++ {
			nparts := 2 + rng.Intn(6)
			cuts := append([]int{0, len(xs)}, randomCuts(rng, len(xs), nparts-1)...)
			sort.Ints(cuts)
			parts := make([]*exact.Accumulator, 0, nparts)
			for i := 0; i+1 < len(cuts); i++ {
				var p exact.Accumulator
				p.AddValues(xs[cuts[i]:cuts[i+1]])
				if rng.Intn(2) == 1 {
					p.Renorm() // value-preserving at any moment
				}
				parts = append(parts, &p)
			}

			seq := &exact.Accumulator{}
			for _, p := range parts {
				seq.Merge(p)
			}
			checkBits(t, "merge-seq("+name+")", seq.Sum(), want)

			revAcc := &exact.Accumulator{}
			for i := len(parts) - 1; i >= 0; i-- {
				revAcc.Merge(parts[i])
			}
			checkBits(t, "merge-rev("+name+")", revAcc.Sum(), want)

			tree := append([]*exact.Accumulator(nil), parts...)
			for len(tree) > 1 {
				var next []*exact.Accumulator
				for i := 0; i < len(tree); i += 2 {
					if i+1 < len(tree) {
						tree[i].Merge(tree[i+1])
					}
					next = append(next, tree[i])
				}
				tree = next
			}
			checkBits(t, "merge-tree("+name+")", tree[0].Sum(), want)
		}
	}
}

func randomCuts(rng *rand.Rand, n, k int) []int {
	cuts := make([]int, k)
	for i := range cuts {
		cuts[i] = rng.Intn(n + 1)
	}
	return cuts
}

// TestIncrementalVsBulk pins that Add, AddProduct, AddValues, and
// AddDotSlab are different schedules over the same deposits. The bulk
// folds deposit through the slot table and look for special values
// once per block, so at every width and for 0–64 elements of
// special-heavy operands each must reach the renormalized state of its
// one-at-a-time definition (checkDotSlab).
func TestIncrementalVsBulk(t *testing.T) {
	rng := rand.New(rand.NewSource(707))
	xs := corpora(rng, 200)["mixed"]
	var bulk, inc exact.Accumulator
	bulk.AddValues(xs)
	for _, x := range xs {
		inc.Add(x)
	}
	checkBits(t, "AddValues vs Add", inc.Sum(), bulk.Sum())

	for w := 1; w <= 4; w++ {
		for n := 0; n <= 64; n++ {
			for trial := 0; trial < 4; trial++ {
				x, y := specialSlabs(rng, w, n)
				checkDotSlab(t, w, x, y)
			}
		}
	}

	// One element more than a dot block, finite but for one -Inf in the
	// first or the last element: each block's flag pass must read its
	// own elements (at width 1 the sum path spans two blocks too).
	for w := 1; w <= 4; w++ {
		n := exact.BlockLen/(w*w) + 1
		for _, at := range []int{0, n - 1} {
			x, y := make([]float64, n*w), make([]float64, n*w)
			for i := range x {
				x[i], y[i] = genTerm(rng, -300, 300), genTerm(rng, -300, 300)
			}
			x[at*w] = math.Inf(-1)
			checkDotSlab(t, w, x, y)
		}
	}
}

// checkDotSlab folds x·y through AddDotSlab and through w² AddProduct
// calls per element, and x alone through AddValues and through one Add
// per value. Each bulk fold must give its one-at-a-time definition's
// encoded state, width-w fold and renormalized state.
func checkDotSlab(t testing.TB, w int, x, y []float64) {
	t.Helper()
	var slab, prod exact.Accumulator
	slab.AddDotSlab(w, x, y)
	for e := 0; e < len(x); e += w {
		for j := 0; j < w; j++ {
			for k := 0; k < w; k++ {
				prod.AddProduct(x[e+j], y[e+k])
			}
		}
	}
	checkSameFold(t, "AddDotSlab", w, x, y, &slab, &prod)

	var bulk, inc exact.Accumulator
	bulk.AddValues(x)
	for _, v := range x {
		inc.Add(v)
	}
	checkSameFold(t, "AddValues", w, x, nil, &bulk, &inc)
}

// checkSameFold requires got to equal want in EncodeFloats(),
// SumExpansion(w) and renormalized state.
func checkSameFold(t testing.TB, what string, w int, x, y []float64, got, want *exact.Accumulator) {
	t.Helper()
	in := func() string { return fmt.Sprintf("%s w=%d x=%s y=%s", what, w, slabStr(x), slabStr(y)) }
	ge, we := got.EncodeFloats(), want.EncodeFloats()
	for i := range we {
		if !bitsEq(ge[i], we[i]) {
			t.Fatalf("%s: encoded word %d = %#x, want %#x", in(), i, math.Float64bits(ge[i]), math.Float64bits(we[i]))
		}
	}
	gs, ws := got.SumExpansion(w), want.SumExpansion(w)
	for i := range ws {
		if !bitsEq(gs[i], ws[i]) {
			t.Fatalf("%s: SumExpansion = %x, want %x", in(), gs, ws)
		}
	}
	if renormed(*got) != renormed(*want) {
		t.Fatalf("%s: renormalized state differs from the one-at-a-time fold", in())
	}
}

// slabStr prints a slab for a failure message, or only its length when
// it is too long to read.
func slabStr(s []float64) string {
	if len(s) > 64 {
		return fmt.Sprintf("[%d values]", len(s))
	}
	return fmt.Sprintf("%x", s)
}

// renormed returns a renormalized copy of a. Its fields (bins in
// [0, 2^32), the top carry word, the flags, pending 0) are the value's
// unique form, whatever schedule of deposits and flushes built it.
func renormed(a exact.Accumulator) exact.Accumulator {
	a.Renorm()
	return a
}

// specialSlabs returns two slabs of n width-w elements, special-heavy
// at a rate drawn per call: ±0, ±Inf, NaN (left out of half the slabs,
// so the Inf flags are not always masked by a NaN), subnormals,
// ±MaxFloat64 and random bit patterns, plus planted Inf·0 pairs.
func specialSlabs(rng *rand.Rand, w, n int) (x, y []float64) {
	rate := [...]int{0, 2, 8, 64}[rng.Intn(4)] // one in rate is special; 0: none
	noNaN := rng.Intn(2) == 0
	term := func() float64 {
		if rate == 0 || rng.Intn(rate) != 0 {
			return genTerm(rng, -1074, 1023)
		}
		return specialTerm(rng, noNaN)
	}
	x, y = make([]float64, n*w), make([]float64, n*w)
	for i := range x {
		x[i], y[i] = term(), term()
	}
	if n > 0 && rate != 0 {
		for p := rng.Intn(3); p > 0; p-- {
			e := rng.Intn(n) * w
			x[e+rng.Intn(w)] = math.Inf(1 - 2*rng.Intn(2))
			y[e+rng.Intn(w)] = math.Copysign(0, float64(1-2*rng.Intn(2)))
		}
	}
	return x, y
}

// specialTerm draws one of the classes specialSlabs mixes in.
func specialTerm(rng *rand.Rand, noNaN bool) float64 {
	sign := float64(1 - 2*rng.Intn(2))
	switch rng.Intn(6) {
	case 0:
		return math.Copysign(0, sign)
	case 1:
		return math.Inf(int(sign))
	case 2:
		if noNaN {
			return math.Inf(int(sign))
		}
		return math.NaN()
	case 3:
		return math.Copysign(math.Float64frombits(rng.Uint64()&(1<<52-1)), sign)
	case 4:
		return sign * math.MaxFloat64
	}
	v := math.Float64frombits(rng.Uint64())
	if noNaN && math.IsNaN(v) {
		v = math.Inf(int(sign))
	}
	return v
}

// TestDotSlabRenormSchedule starts folds just short of the renorm
// budget, so a renorm falls inside the fold: AddDotSlab and the
// per-element definition must leave the same renormalized state.
func TestDotSlabRenormSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(710))
	for w := 1; w <= 4; w++ {
		for _, left := range []int{1, w*w - 1, w * w, w*w + 1, 3*w*w - 2, 5 * w * w} {
			if left < 1 {
				continue
			}
			x, y := specialSlabs(rng, w, 8)
			var slab, def exact.Accumulator
			slab.AddValues(x[:w])
			slab.SetPending(exact.RenormEvery - left)
			def = slab
			slab.AddDotSlab(w, x, y)
			def.AddDotSlabPerElement(w, x, y)
			if renormed(slab) != renormed(def) {
				t.Errorf("w=%d, %d deposits left: renormalized state differs from the per-element fold", w, left)
			}
		}
	}
}

// TestAddDotSlabBadShapes: a width outside 1..4, slabs of different
// lengths or a trailing partial element panic with AddDotSlab's own
// message. Each shape runs in its own goroutine, so a fold that never
// returns (w = 0 once stepped its loop by zero) fails instead of
// hanging the suite.
func TestAddDotSlabBadShapes(t *testing.T) {
	s := func(n int) []float64 { return make([]float64, n) }
	cases := []struct {
		name string
		w    int
		x, y []float64
	}{
		{"w=0", 0, s(4), s(4)},
		{"w=0/empty", 0, nil, nil},
		{"w=-1", -1, s(4), s(4)},
		{"w=5", 5, s(10), s(10)},
		{"y-shorter", 2, s(8), s(6)},
		{"y-longer", 2, s(6), s(8)},
		{"partial-element", 3, s(7), s(7)},
	}
	for _, c := range cases {
		got := make(chan any, 1)
		go func() {
			defer func() { got <- recover() }()
			var a exact.Accumulator
			a.AddDotSlab(c.w, c.x, c.y)
		}()
		select {
		case r := <-got:
			if msg, _ := r.(string); !strings.HasPrefix(msg, "exact.AddDotSlab: ") {
				t.Errorf("%s: recovered %v, want AddDotSlab's shape panic", c.name, r)
			}
		case <-time.After(time.Second):
			t.Errorf("%s: AddDotSlab neither returned nor panicked within 1s", c.name)
		}
	}
}

// TestAddDotSlabAllocs: the per-element scratch and the slot table
// stay on the stack, for AddDotSlab and AddValues at every width.
func TestAddDotSlabAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(711))
	var a exact.Accumulator
	for w := 1; w <= 4; w++ {
		x, y := specialSlabs(rng, w, 64)
		if n := testing.AllocsPerRun(100, func() { a.AddDotSlab(w, x, y) }); n != 0 {
			t.Errorf("AddDotSlab(%d, …) allocates %v times per call, want 0", w, n)
		}
		if n := testing.AllocsPerRun(100, func() { a.AddValues(x) }); n != 0 {
			t.Errorf("AddValues(width-%d slab) allocates %v times per call, want 0", w, n)
		}
	}
}

// TestSlotHeadroom fills one slot with worst-case deposits, a whole
// block of them and then two blocks and one more element, folds, and
// compares with the oracle; then the same deposits negated. For
// AddValues a deposit is the largest significand, for AddDotSlab at
// widths 1 and 4 the product (2^53−1)²; all sit at one exponent and one
// sign. Each runs at eight adjacent exponents, so one of them takes a
// slot's largest pre-shift. A block one doubling longer than the slots
// hold wraps a slot, and the fold no longer matches.
func TestSlotHeadroom(t *testing.T) {
	const maxSig = 1<<53 - 1
	fill := func(n int, v float64) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = v
		}
		return s
	}
	check := func(what string, a *exact.Accumulator, want *mpfloat.Float) {
		t.Helper()
		checkBits(t, what+" Sum", a.Sum(), want.Float64())
		got, exp := a.SumExpansion(4), oracleExpand(want, 4)
		for i := range exp {
			checkBits(t, what+" SumExpansion(4)", got[i], exp[i])
		}
	}
	for off := 0; off < 8; off++ {
		for _, sign := range []float64{1, -1} {
			x := sign * math.Ldexp(maxSig, off)
			y := float64(maxSig)
			for _, blocks := range []int{1, 2} {
				n := blocks * exact.BlockLen
				if blocks > 1 {
					n++ // one value past the second flush
				}
				var a exact.Accumulator
				a.AddValues(fill(n, x))
				want := mpfloat.New(oraclePrec).SetFloat64(x)
				want.Mul(want, mpfloat.New(oraclePrec).SetFloat64(float64(n)))
				check(fmt.Sprintf("AddValues(%d × %g)", n, x), &a, want)

				for _, w := range []int{1, 4} {
					elems := blocks * (exact.BlockLen / (w * w))
					if blocks > 1 {
						elems++
					}
					var d exact.Accumulator
					d.AddDotSlab(w, fill(elems*w, x), fill(elems*w, y))
					want := mpfloat.New(oraclePrec).SetFloat64(x)
					want.Mul(want, mpfloat.New(oraclePrec).SetFloat64(y))
					want.Mul(want, mpfloat.New(oraclePrec).SetFloat64(float64(elems*w*w)))
					check(fmt.Sprintf("AddDotSlab(%d, %d × %g·%g)", w, elems, x, y), &d, want)
				}
			}
		}
	}
}

// TestRenormCarries hammers one bin with same-exponent maximal
// significands so carries actually propagate chunk by chunk, and checks
// the value survives interleaved forced renorms. The top carry word
// must stay a pure sign extension.
func TestRenormCarries(t *testing.T) {
	const n = 200000
	v := math.Ldexp(float64(uint64(1)<<53-1), 900) // maximal significand
	var a exact.Accumulator
	want := mpfloat.New(oraclePrec)
	tm := mpfloat.New(oraclePrec).SetFloat64(v)
	for i := 0; i < n; i++ {
		a.Add(v)
		want.Add(want, tm)
		if i%37011 == 0 {
			a.Renorm()
		}
	}
	checkBits(t, "carry stress", a.Sum(), want.Float64())
	a.Renorm()
	if top := a.Top(); top != 0 {
		t.Errorf("top carry = %d after positive-only fold, want 0", top)
	}
	// Drive it negative: the renormalized form is two's complement.
	b := a
	for i := 0; i < 2*n; i++ {
		b.Add(-v)
	}
	neg := mpfloat.New(oraclePrec)
	neg.Sub(neg, want) // -Σ
	checkBits(t, "negated carry stress", b.Sum(), neg.Float64())
	b.Renorm()
	if top := b.Top(); top != -1 {
		t.Errorf("top carry = %d for negative value, want -1 (sign extension)", top)
	}
}

// TestFoldDoesNotConsume: Sum/SumExpansion are read-only — folding
// twice, or folding then adding more, must behave as if never folded.
func TestFoldDoesNotConsume(t *testing.T) {
	rng := rand.New(rand.NewSource(708))
	xs := corpora(rng, 100)["cancellation"]
	var a exact.Accumulator
	a.AddValues(xs[:50])
	first := a.Sum()
	_ = a.SumExpansion(4)
	checkBits(t, "refold", a.Sum(), first)
	a.AddValues(xs[50:])
	checkBits(t, "fold-then-add", a.Sum(), exact.Sum(xs))
}

func FuzzSumVsOracle(f *testing.F) {
	f.Add(uint64(0x3FF0000000000000), uint64(0xBFF0000000000000), uint64(1))
	f.Add(uint64(0x0000000000000001), uint64(0x0000000000000003), uint64(0x7FEFFFFFFFFFFFFF))
	f.Fuzz(func(t *testing.T, ba, bb, bc uint64) {
		xs := []float64{
			math.Float64frombits(ba),
			math.Float64frombits(bb),
			math.Float64frombits(bc),
		}
		got, want := exact.Sum(xs), oracleSum(xs)
		if !bitsEq(got, want) {
			t.Fatalf("Sum(%x) = %#016x, want %#016x", xs, math.Float64bits(got), math.Float64bits(want))
		}
		// Order invariance over all three rotations.
		rot := []float64{xs[1], xs[2], xs[0]}
		if !bitsEq(exact.Sum(rot), got) {
			t.Fatalf("Sum not rotation-invariant for %x", xs)
		}
		gd, wd := exact.Dot(xs[:2], []float64{xs[2], xs[2]}), oracleDot(xs[:2], []float64{xs[2], xs[2]})
		if !bitsEq(gd, wd) {
			t.Fatalf("Dot = %#016x, want %#016x", math.Float64bits(gd), math.Float64bits(wd))
		}
	})
}

// FuzzDotSlab checks AddDotSlab against w² AddProduct calls per
// element (checkDotSlab) on raw operand bits: the width is 1 + w%4 and
// raw splits into an x and a y slab of whole elements.
func FuzzDotSlab(f *testing.F) {
	inf, nan := math.Inf(1), math.NaN()
	seed := func(w byte, vals ...float64) {
		raw := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(v))
		}
		f.Add(w, raw)
	}
	seed(0, 1.5, -3)
	seed(1, inf, 1, 0, -inf)
	seed(2, 1, 0x1p-60, -0.0, 5e-324, math.MaxFloat64, -inf, 2, 0x1p-1022, nan, 3, -0.0, inf)
	seed(3, -inf, 0, 1, -1, 0, 0, 0, 0, 1, 2, 3, 4, inf, 0, -0.0, 0)
	f.Fuzz(func(t *testing.T, w byte, raw []byte) {
		width := 1 + int(w%4)
		n := len(raw) / 16 / width * width
		x, y := make([]float64, n), make([]float64, n)
		for i := range x {
			x[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
			y[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*(n+i):]))
		}
		checkDotSlab(t, width, x, y)
	})
}
