package core

import (
	"math"

	"multifloats/internal/eft"
)

// Square root via the division-free Newton–Raphson iteration for the
// inverse square root (§4.3): x_{k+1} = x_k + ½·x_k·(1 - a·x_k²), with
// the final multiplication by a fused Karp–Markstein-style correction.
// Multiplication by ½ is exact and applied termwise, as the paper notes.

// sqrtT returns the correctly rounded machine square root for either base
// type (the float64 path of math.Sqrt is exact for float32 arguments too).
//
//mf:branchfree
func sqrtT[T eft.Float](x T) T {
	return T(math.Sqrt(float64(x)))
}

// Rsqrt2 returns 1/√a as a 2-term expansion. a must be positive.
//
//mf:branchfree
func Rsqrt2[T eft.Float](a0, a1 T) (z0, z1 T) {
	x := 1 / sqrtT(a0)
	// One Newton step at 2-term precision.
	s0, s1 := Mul21(a0, a1, x) // a·x
	t0, t1 := Mul21(s0, s1, x) // a·x²
	r0, r1 := Add21(-t0, -t1, 1)
	r0, r1 = r0/2, r1/2 // exact
	d0, d1 := Mul21(r0, r1, x)
	return Add21(d0, d1, x)
}

// Sqrt2 returns √a as a 2-term expansion. Sqrt2(0,0) = (0,0); negative
// leading terms produce NaN, matching §4.4's error-signalling convention.
func Sqrt2[T eft.Float](a0, a1 T) (z0, z1 T) {
	if a0 == 0 {
		return 0, 0
	}
	x := 1 / sqrtT(a0)
	// Karp–Markstein: s = a0·x is a machine approximation of √a; one
	// correction step folds the Newton update into the final product:
	// √a ≈ s + ½x·(a - s²).
	s := T(a0 * x)
	p, e := eft.TwoProd(s, s)
	r0, _ := Sub2(a0, a1, p, e)
	c := T(r0 * (x / 2))
	s, c = eft.FastTwoSum(s, c)
	// Second correction at full 2-term precision.
	p0, p1 := Mul2(s, c, s, c)
	r0, _ = Sub2(a0, a1, p0, p1)
	c2 := T(r0 * (x / 2))
	return Add21(s, c, c2)
}

// Rsqrt3 returns 1/√a as a 3-term expansion.
//
//mf:branchfree
func Rsqrt3[T eft.Float](a0, a1, a2 T) (z0, z1, z2 T) {
	x0, x1 := Rsqrt2(a0, a1)
	// One more Newton step at 3-term precision.
	s0, s1, s2 := Mul3(a0, a1, a2, x0, x1, 0)
	t0, t1, t2 := Mul3(s0, s1, s2, x0, x1, 0)
	r0, r1, r2 := Add31(-t0, -t1, -t2, 1)
	r0, r1, r2 = r0/2, r1/2, r2/2
	d0, d1, d2 := Mul3(r0, r1, r2, x0, x1, 0)
	return Add3(d0, d1, d2, x0, x1, 0)
}

// Sqrt3 returns √a as a 3-term expansion.
func Sqrt3[T eft.Float](a0, a1, a2 T) (z0, z1, z2 T) {
	if a0 == 0 {
		return 0, 0, 0
	}
	x0, x1 := Rsqrt2(a0, a1)
	// s = a·x to ~2p bits, then one Newton correction at 3 terms.
	s0, s1, s2 := Mul3(a0, a1, a2, x0, x1, 0)
	p0, p1, p2 := Mul3(s0, s1, s2, s0, s1, s2)
	r0, r1, r2 := Sub3(a0, a1, a2, p0, p1, p2)
	c0, c1 := Mul2(r0, r1, x0/2, x1/2) // full 2-term 1/(2√a) in the correction
	_ = r2
	return Add3(s0, s1, s2, c0, c1, 0)
}

// Rsqrt4 returns 1/√a as a 4-term expansion.
//
//mf:branchfree
func Rsqrt4[T eft.Float](a0, a1, a2, a3 T) (z0, z1, z2, z3 T) {
	x0, x1 := Rsqrt2(a0, a1)
	s0, s1, s2, s3 := Mul4(a0, a1, a2, a3, x0, x1, 0, 0)
	t0, t1, t2, t3 := Mul4(s0, s1, s2, s3, x0, x1, 0, 0)
	r0, r1, r2, r3 := Add41(-t0, -t1, -t2, -t3, 1)
	r0, r1, r2, r3 = r0/2, r1/2, r2/2, r3/2
	d0, d1, d2, d3 := Mul4(r0, r1, r2, r3, x0, x1, 0, 0)
	return Add4(d0, d1, d2, d3, x0, x1, 0, 0)
}

// Sqrt4 returns √a as a 4-term expansion.
func Sqrt4[T eft.Float](a0, a1, a2, a3 T) (z0, z1, z2, z3 T) {
	if a0 == 0 {
		return 0, 0, 0, 0
	}
	x0, x1 := Rsqrt2(a0, a1)
	s0, s1, s2, s3 := Mul4(a0, a1, a2, a3, x0, x1, 0, 0)
	p0, p1, p2, p3 := Mul4(s0, s1, s2, s3, s0, s1, s2, s3)
	r0, r1, r2, r3 := Sub4(a0, a1, a2, a3, p0, p1, p2, p3)
	c0, c1 := Mul2(r0, r1, x0/2, x1/2) // full 2-term 1/(2√a) in the correction
	_, _ = r2, r3
	return Add4(s0, s1, s2, s3, c0, c1, 0, 0)
}
