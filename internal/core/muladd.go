package core

import "multifloats/internal/eft"

// Fused multiply–accumulate kernels: s += x·y in one network.
//
// MulN ends with a renormalization chain that compresses the product's
// carry wires into a weakly nonoverlapping expansion, and AddN begins
// with a TwoSum sorting network that accepts arbitrary wires. When a
// product is immediately accumulated, the renormalization is redundant:
// its input wires carry exactly the value of the product (the chain is
// value-preserving), so they can feed the addition network directly.
// Fusing saves the renormalization chain per multiply-add — 1 gate for
// 2-term, 4 gates for 3-term, 6 gates for 4-term operands — while
// keeping the accumulator output weakly nonoverlapping (the AddN VecSum
// passes renormalize unconditionally).
//
// The result is NOT bit-identical to MulN followed by AddN: the addition
// network truncates a different (but value-equal) wire decomposition, so
// the discarded mass differs by a bounded amount of the same order as
// the unfused path's truncation. TestMulAccMatchesMulAdd pins the
// deviation to the per-operation error bound.
//
// These are the reference semantics for the flattened GEMM/GEMV tile
// kernels in internal/blas/micro_generated.go, which must match them
// bit for bit (TestMicroMatchesCoreGates).

// MulAcc2 returns s + x·y on 2-term expansions, feeding the product's
// pre-renormalization wires (p00, e00 + cross terms) into the add2 FPAN.
//
//mf:branchfree
//mf:fpan mulacc2
func MulAcc2[T eft.Float](s0, s1, x0, x1, y0, y1 T) (T, T) {
	// Mul2 expansion step, stopping before the final FastTwoSum.
	p00, e00 := eft.TwoProd(x0, y0)
	t := T(x0*y1) + T(x1*y0) // conversions bar FMA contraction (see Mul2)
	z1 := e00 + t
	// add2 FPAN on the interleaved wires (s0, p00, s1, z1).
	w0, w1 := eft.TwoSum(s0, p00)
	w2, w3 := eft.TwoSum(s1, z1)
	c := w1 + w2
	v, w := eft.FastTwoSum(w0, c)
	u := w3 + w
	return eft.FastTwoSum(v, u)
}

// MulAcc3 returns s + x·y on 3-term expansions: the Mul3 expansion step
// stops at the value-preserving wires (p00, h1, t2), which replace the
// normalized product in the add3 FPAN.
//
//mf:branchfree
//mf:fpan mulacc3
func MulAcc3[T eft.Float](s0, s1, s2, x0, x1, x2, y0, y1, y2 T) (T, T, T) {
	p00, e00 := eft.TwoProd(x0, y0)
	p01, e01 := eft.TwoProd(x0, y1)
	p10, e10 := eft.TwoProd(x1, y0)
	c02 := T(x0 * y2)
	c11 := T(x1 * y1)
	c20 := T(x2 * y0)
	a1, b1 := eft.TwoSum(p01, p10)
	h1, i2 := eft.TwoSum(e00, a1)
	m := c02 + c20
	d2 := e01 + e10
	q := c11 + m
	r := d2 + q
	s2p := b1 + i2
	t2 := s2p + r
	// add3 FPAN on (s0, p00, s1, h1, s2, t2).
	w0, w1 := eft.TwoSum(s0, p00)
	w2, w3 := eft.TwoSum(s1, h1)
	w4, w5 := eft.TwoSum(s2, t2)
	w0, w2 = eft.TwoSum(w0, w2)
	w3, w5 = eft.TwoSum(w3, w5)
	w1, w4 = eft.TwoSum(w1, w4)
	w0, w1 = eft.TwoSum(w0, w1)
	w2, w3 = eft.TwoSum(w2, w3)
	w4, w5 = eft.TwoSum(w4, w5)
	w1, w2 = eft.TwoSum(w1, w2)
	w3, w4 = eft.TwoSum(w3, w4)
	w2, w3 = eft.TwoSum(w2, w3)
	// Bottom-up VecSum pass 1.
	w4, w5 = eft.TwoSum(w4, w5)
	w3, w4 = eft.TwoSum(w3, w4)
	w2, w3 = eft.TwoSum(w2, w3)
	w1, w2 = eft.TwoSum(w1, w2)
	w0, w1 = eft.TwoSum(w0, w1)
	// Bottom-up VecSum pass 2.
	w4, w5 = eft.TwoSum(w4, w5)
	w3, w4 = eft.TwoSum(w3, w4)
	w2, w3 = eft.TwoSum(w2, w3)
	w1, w2 = eft.TwoSum(w1, w2)
	w0, w1 = eft.TwoSum(w0, w1)
	return w0, w1, w2
}

// MulAcc4 returns s + x·y on 4-term expansions: the Mul4 expansion step
// stops at the value-preserving wires (p00, h1, v2, le), which replace
// the normalized product in the add4 FPAN.
//
//mf:branchfree
//mf:fpan mulacc4
func MulAcc4[T eft.Float](s0, s1, s2, s3, x0, x1, x2, x3, y0, y1, y2, y3 T) (T, T, T, T) {
	p00, e00 := eft.TwoProd(x0, y0)
	p01, e01 := eft.TwoProd(x0, y1)
	p10, e10 := eft.TwoProd(x1, y0)
	p02, e02 := eft.TwoProd(x0, y2)
	p20, e20 := eft.TwoProd(x2, y0)
	p11, e11 := eft.TwoProd(x1, y1)
	c03 := T(x0 * y3)
	c12 := T(x1 * y2)
	c21 := T(x2 * y1)
	c30 := T(x3 * y0)
	a1, b1 := eft.TwoSum(p01, p10)
	h1, i2 := eft.TwoSum(e00, a1)
	a2, b2 := eft.TwoSum(p02, p20)
	d2, f3 := eft.TwoSum(e01, e10)
	m2, n3 := eft.TwoSum(p11, a2)
	q2, r3 := eft.TwoSum(d2, m2)
	s2p, t3 := eft.TwoSum(b1, i2)
	v2, w3p := eft.TwoSum(s2p, q2)
	ae := e02 + e20
	be := c03 + c30
	ce := c12 + c21
	de := e11 + ae
	ee := be + ce
	fe := de + ee
	ge := b2 + f3
	he := n3 + r3
	ie := w3p + t3
	je := ge + he
	ke := ie + je
	le := fe + ke
	// add4 FPAN on (s0, p00, s1, h1, s2, v2, s3, le).
	w0, w1 := eft.TwoSum(s0, p00)
	w2, w3 := eft.TwoSum(s1, h1)
	w4, w5 := eft.TwoSum(s2, v2)
	w6, w7 := eft.TwoSum(s3, le)
	w0, w2 = eft.TwoSum(w0, w2)
	w1, w3 = eft.TwoSum(w1, w3)
	w4, w6 = eft.TwoSum(w4, w6)
	w5, w7 = eft.TwoSum(w5, w7)
	w1, w2 = eft.TwoSum(w1, w2)
	w5, w6 = eft.TwoSum(w5, w6)
	w0, w4 = eft.TwoSum(w0, w4)
	w1, w5 = eft.TwoSum(w1, w5)
	w2, w6 = eft.TwoSum(w2, w6)
	w3, w7 = eft.TwoSum(w3, w7)
	w2, w4 = eft.TwoSum(w2, w4)
	w3, w5 = eft.TwoSum(w3, w5)
	w1, w2 = eft.TwoSum(w1, w2)
	w3, w4 = eft.TwoSum(w3, w4)
	w5, w6 = eft.TwoSum(w5, w6)
	// Bottom-up VecSum pass 1.
	w6, w7 = eft.TwoSum(w6, w7)
	w5, w6 = eft.TwoSum(w5, w6)
	w4, w5 = eft.TwoSum(w4, w5)
	w3, w4 = eft.TwoSum(w3, w4)
	w2, w3 = eft.TwoSum(w2, w3)
	w1, w2 = eft.TwoSum(w1, w2)
	w0, w1 = eft.TwoSum(w0, w1)
	// Bottom-up VecSum pass 2.
	w6, w7 = eft.TwoSum(w6, w7)
	w5, w6 = eft.TwoSum(w5, w6)
	w4, w5 = eft.TwoSum(w4, w5)
	w3, w4 = eft.TwoSum(w3, w4)
	w2, w3 = eft.TwoSum(w2, w3)
	w1, w2 = eft.TwoSum(w1, w2)
	w0, w1 = eft.TwoSum(w0, w1)
	// Top-down error-propagation pass.
	w0, w1 = eft.TwoSum(w0, w1)
	w1, w2 = eft.TwoSum(w1, w2)
	w2, w3 = eft.TwoSum(w2, w3)
	w3, w4 = eft.TwoSum(w3, w4)
	return w0, w1, w2, w3
}
