package core

import "multifloats/internal/eft"

// This file implements renormalization: compressing a short sequence of
// machine numbers with bounded overlap (a few bits) into a weakly
// nonoverlapping expansion. Renormalization is the glue of the
// Newton–Raphson division and square root algorithms (§4.3), which produce
// iterates as loosely overlapping sums before the next step. Each
// renormalizer uses the same VecSum pass structure as the addition FPANs'
// tails: two bottom-up passes and (for four or more values) one top-down
// error-propagation pass.

// Renorm3to2 renormalizes three values into a 2-term expansion.
//
//mf:branchfree
func Renorm3to2[T eft.Float](a0, a1, a2 T) (z0, z1 T) {
	a1, a2 = eft.TwoSum(a1, a2)
	a0, a1 = eft.TwoSum(a0, a1)
	a1 = a1 + a2
	return eft.FastTwoSum(a0, a1)
}

// Renorm3 renormalizes three values into a 3-term expansion.
//
//mf:branchfree
func Renorm3[T eft.Float](a0, a1, a2 T) (z0, z1, z2 T) {
	a1, a2 = eft.TwoSum(a1, a2)
	a0, a1 = eft.TwoSum(a0, a1)
	a1, a2 = eft.TwoSum(a1, a2)
	a0, a1 = eft.TwoSum(a0, a1)
	a1, a2 = eft.TwoSum(a1, a2)
	return a0, a1, a2
}

// Renorm4 renormalizes four values into a 4-term expansion.
//
//mf:branchfree
func Renorm4[T eft.Float](a0, a1, a2, a3 T) (z0, z1, z2, z3 T) {
	// Bottom-up pass 1.
	a2, a3 = eft.TwoSum(a2, a3)
	a1, a2 = eft.TwoSum(a1, a2)
	a0, a1 = eft.TwoSum(a0, a1)
	// Bottom-up pass 2.
	a2, a3 = eft.TwoSum(a2, a3)
	a1, a2 = eft.TwoSum(a1, a2)
	a0, a1 = eft.TwoSum(a0, a1)
	// Top-down error-propagation pass.
	a0, a1 = eft.TwoSum(a0, a1)
	a1, a2 = eft.TwoSum(a1, a2)
	a2, a3 = eft.TwoSum(a2, a3)
	return a0, a1, a2, a3
}
