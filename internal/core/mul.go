package core

import "multifloats/internal/eft"

// Mul2 returns the 2-term expansion product (x·y), implementing the §4.2
// strategy: a TwoProd expansion step with the term-dropping optimization
// (1 TwoProd + 2 plain products) followed by the mul2 FPAN (3 gates).
// The cross-product pairing makes the operation exactly commutative.
//
//mf:branchfree
//mf:fpan mul2
func Mul2[T eft.Float](x0, x1, y0, y1 T) (z0, z1 T) {
	p00, e00 := eft.TwoProd(x0, y0)
	// Commutative pairing of the dropped-error products. The T(...)
	// conversions are rounding barriers: without them the spec lets arm64
	// contract either product into the sum, breaking cross-platform
	// bit-exactness and the exact-commutativity pairing.
	t := T(x0*y1) + T(x1*y0)
	s := e00 + t
	return eft.FastTwoSum(p00, s)
}

// Mul3 returns the 3-term expansion product: expansion step (3 TwoProd + 3
// plain products) followed by the mul3 FPAN (12 gates, depth 7 — matching
// the paper's Figure 6 size and depth).
//
//mf:branchfree
//mf:fpan mul3
func Mul3[T eft.Float](x0, x1, x2, y0, y1, y2 T) (z0, z1, z2 T) {
	p00, e00 := eft.TwoProd(x0, y0)
	p01, e01 := eft.TwoProd(x0, y1)
	p10, e10 := eft.TwoProd(x1, y0)
	c02 := T(x0 * y2)
	c11 := T(x1 * y1)
	c20 := T(x2 * y0)

	a1, b1 := eft.TwoSum(p01, p10) // commutative layer
	h1, i2 := eft.TwoSum(e00, a1)
	m := c02 + c20 // commutative layer
	d2 := e01 + e10
	q := c11 + m
	r := d2 + q
	s2 := b1 + i2
	t2 := s2 + r
	u0, v1 := eft.FastTwoSum(p00, h1)
	z1a, w2 := eft.TwoSum(v1, t2)
	z0, c1 := eft.FastTwoSum(u0, z1a)
	z1, z2 = eft.TwoSum(c1, w2)
	return z0, z1, z2
}

// Mul4 returns the 4-term expansion product: expansion step (6 TwoProd + 4
// plain products) followed by the mul4 FPAN (26 gates).
//
//mf:branchfree
//mf:fpan mul4
func Mul4[T eft.Float](x0, x1, x2, x3, y0, y1, y2, y3 T) (z0, z1, z2, z3 T) {
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

	a1, b1 := eft.TwoSum(p01, p10) // commutative layer
	h1, i2 := eft.TwoSum(e00, a1)
	a2, b2 := eft.TwoSum(p02, p20) // commutative layer
	d2, f3 := eft.TwoSum(e01, e10) // commutative layer
	m2, n3 := eft.TwoSum(p11, a2)
	q2, r3 := eft.TwoSum(d2, m2)
	s2, t3 := eft.TwoSum(b1, i2)
	v2, w3 := eft.TwoSum(s2, q2)
	// Fourth-order terms: plain sums, rounding errors discardable.
	ae := e02 + e20 // commutative layer
	be := c03 + c30 // commutative layer
	ce := c12 + c21 // commutative layer
	de := e11 + ae
	ee := be + ce
	fe := de + ee
	ge := b2 + f3
	he := n3 + r3
	ie := w3 + t3
	je := ge + he
	ke := ie + je
	le := fe + ke
	// Renormalization chain over (p00, h1, v2, le).
	u0, g1 := eft.FastTwoSum(p00, h1)
	x2v, y3v := eft.TwoSum(g1, v2)
	r2v, s3v := eft.TwoSum(y3v, le)
	z0, c1 := eft.FastTwoSum(u0, x2v)
	z1, c2 := eft.TwoSum(c1, r2v)
	z2, z3 = eft.TwoSum(c2, s3v)
	return z0, z1, z2, z3
}

// Mul21 multiplies a 2-term expansion by a machine number (double-word ×
// word), used by AXPY-style kernels and Newton iterations.
//
//mf:branchfree
//mf:fpan mul21
func Mul21[T eft.Float](x0, x1, c T) (z0, z1 T) {
	p0, e0 := eft.TwoProd(x0, c)
	p1 := eft.FMA(x1, c, e0)
	return eft.FastTwoSum(p0, p1)
}

// Mul31 multiplies a 3-term expansion by a machine number.
//
//mf:branchfree
//mf:fpan mul31
func Mul31[T eft.Float](x0, x1, x2, c T) (z0, z1, z2 T) {
	p0, e0 := eft.TwoProd(x0, c)
	p1, e1 := eft.TwoProd(x1, c)
	p2 := eft.FMA(x2, c, e1)
	s1, t1 := eft.TwoSum(p1, e0)
	s2 := p2 + t1
	z0, c1 := eft.FastTwoSum(p0, s1)
	z1, z2 = eft.TwoSum(c1, s2)
	return z0, z1, z2
}

// Mul41 multiplies a 4-term expansion by a machine number.
//
//mf:branchfree
//mf:fpan mul41
func Mul41[T eft.Float](x0, x1, x2, x3, c T) (z0, z1, z2, z3 T) {
	p0, e0 := eft.TwoProd(x0, c)
	p1, e1 := eft.TwoProd(x1, c)
	p2, e2 := eft.TwoProd(x2, c)
	p3 := eft.FMA(x3, c, e2)
	s1, t1 := eft.TwoSum(p1, e0)
	s2, t2 := eft.TwoSum(p2, e1)
	s2, u2 := eft.TwoSum(s2, t1)
	s3 := p3 + t2 + u2
	z0, c1 := eft.FastTwoSum(p0, s1)
	z1, c2 := eft.TwoSum(c1, s2)
	z2, z3 = eft.TwoSum(c2, s3)
	return z0, z1, z2, z3
}

// Sqr2 returns x² for a 2-term expansion. Squaring halves the expansion
// step (the symmetric cross products coincide): 1 TwoProd + 1 product
// versus multiplication's 1 TwoProd + 2 products, and the commutativity
// pairing is free.
//
//mf:branchfree
//mf:fpan sqr2
func Sqr2[T eft.Float](x0, x1 T) (z0, z1 T) {
	p00, e00 := eft.TwoProd(x0, x0)
	t := 2 * T(x0*x1)
	s := e00 + t
	return eft.FastTwoSum(p00, s)
}

// Sqr3 returns x² for a 3-term expansion (2 TwoProd + 2 products versus
// multiplication's 3 + 3).
//
//mf:branchfree
//mf:fpan sqr3
func Sqr3[T eft.Float](x0, x1, x2 T) (z0, z1, z2 T) {
	p00, e00 := eft.TwoProd(x0, x0)
	p01, e01 := eft.TwoProd(x0, x1) // doubled below
	c02 := 2 * T(x0*x2)
	c11 := T(x1 * x1)

	// The mul3 FPAN with the symmetric pairs pre-merged: a1 = 2·p01
	// exactly (scaling by 2 is exact), d2 = 2·e01, m = c02.
	a1 := 2 * p01
	h1, i2 := eft.TwoSum(e00, a1)
	d2 := 2 * e01
	q := c11 + c02
	r := d2 + q
	t2 := i2 + r
	u0, v1 := eft.FastTwoSum(p00, h1)
	z1a, w2 := eft.TwoSum(v1, t2)
	z0, c1 := eft.FastTwoSum(u0, z1a)
	z1, z2 = eft.TwoSum(c1, w2)
	return z0, z1, z2
}

// Sqr4 returns x² for a 4-term expansion (3 TwoProd + 3 products versus
// multiplication's 6 + 4).
//
//mf:branchfree
//mf:fpan sqr4
func Sqr4[T eft.Float](x0, x1, x2, x3 T) (z0, z1, z2, z3 T) {
	p00, e00 := eft.TwoProd(x0, x0)
	p01, e01 := eft.TwoProd(x0, x1)
	p02, e02 := eft.TwoProd(x0, x2)
	p11, e11 := eft.TwoProd(x1, x1)
	c03 := 2 * T(x0*x3)
	c12 := 2 * T(x1*x2)

	// mul4 FPAN with symmetric pairs pre-merged by exact doubling.
	a1 := 2 * p01
	h1, i2 := eft.TwoSum(e00, a1)
	a2 := 2 * p02
	d2 := 2 * e01
	m2, n3 := eft.TwoSum(p11, a2)
	q2, r3 := eft.TwoSum(d2, m2)
	s2 := i2 // b1 = 0: the (p01,p10) pair is exact under doubling
	v2, w3 := eft.TwoSum(s2, q2)
	ae := 2 * e02
	de := e11 + ae
	ee := c03 + c12
	fe := de + ee
	he := n3 + r3
	ie := w3
	ke := ie + he
	le := fe + ke
	u0, g1 := eft.FastTwoSum(p00, h1)
	x2v, y3v := eft.TwoSum(g1, v2)
	r2v, s3v := eft.TwoSum(y3v, le)
	z0, c1 := eft.FastTwoSum(u0, x2v)
	z1, c2 := eft.TwoSum(c1, r2v)
	z2, z3 = eft.TwoSum(c2, s3v)
	return z0, z1, z2, z3
}
