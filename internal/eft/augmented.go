package eft

import "math"

// Augmented operations (paper §4.4): the error-free transformations
// destroy IEEE 754 special-value semantics — they collapse ±Inf to NaN
// (subtracting an infinity from itself) and lose the sign of zero. The
// paper notes that "strict IEEE 754 semantics can be restored using
// conditional move operations", previewing the augmentedAddition /
// augmentedMultiplication operations of IEEE 754-2019. This file provides
// that restoration: the select operations below are the software
// equivalent of the hardware cmovs (Go's compiler emits branchless code
// for these simple selects on amd64), and the behaviour matches the
// augmented-operation semantics for specials:
//
//   - if the rounded result is ±Inf or NaN, the error term is that same
//     special value (not the NaN an unprotected TwoSum would fabricate);
//   - a zero sum of nonzero operands keeps the IEEE sign of x + y
//     (-0 only when both rounded inputs are -0, which plain TwoSum loses);
//   - the internal-overflow hazard at exactly ±2^emax (paper §4.4, last
//     paragraph) cannot produce a spurious NaN.

// AugmentedAdd returns (s, e) with s = RN(x+y) and e the exact rounding
// error, with IEEE special-value semantics restored.
func AugmentedAdd(x, y float64) (s, e float64) {
	s = x + y
	if math.IsInf(s, 0) || math.IsNaN(s) {
		// Overflow or special input: the augmented error term carries the
		// same special value rather than an artifact of inverse ops.
		return s, s
	}
	ts, te := TwoSum(x, y)
	// Internal overflow hazard: TwoSum's intermediates can overflow when
	// the rounded sum is near ±MaxFloat64 even though the sum itself is
	// finite. Select the safe scaled recomputation in that case.
	if math.IsNaN(te) || math.IsInf(te, 0) {
		// The halvings are exact; the conversions keep them out of
		// TwoSum's additions on fusing targets all the same.
		sx, sy := float64(x*0.5), float64(y*0.5)
		hs, he := TwoSum(sx, sy)
		_ = hs
		return s, he * 2
	}
	if te == 0 {
		// Exact sum: keep the IEEE sign of zero from the primary
		// operation (s = -0 iff x = y = -0, or x = -y with RD... under
		// RNE a cancelling sum is +0, and -0 + -0 = -0; either way the
		// sign of s is authoritative and e inherits +0).
		return s, 0
	}
	return ts, te
}

// AugmentedMul returns (p, e) with p = RN(x·y) and e = x·y - p, with IEEE
// special-value semantics restored.
func AugmentedMul(x, y float64) (p, e float64) {
	p = x * y
	if math.IsInf(p, 0) || math.IsNaN(p) {
		return p, p
	}
	if p == 0 {
		// Exact (possibly signed) zero product: FMA(x, y, -0) would
		// compute 0 - 0 and lose the sign; the product's own sign stands.
		return p, 0
	}
	e = math.FMA(x, y, -p)
	if math.IsNaN(e) || math.IsInf(e, 0) {
		// p near the overflow threshold: recompute the residual at half
		// scale (exact, since scaling by 2 is exact).
		e = math.FMA(x*0.5, y, -p*0.5) * 2
	}
	return p, e
}
