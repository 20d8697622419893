// Package eft implements error-free transformations (EFTs), the machine-level
// building blocks of floating-point expansion arithmetic.
//
// An error-free transformation computes both a correctly rounded
// floating-point operation and the exact rounding error incurred by that
// operation, using only rounded machine arithmetic. The three EFTs used by
// floating-point accumulation networks (FPANs) are:
//
//   - TwoSum     (Møller 1965, Knuth 1969): exact addition, 6 FLOPs
//   - FastTwoSum (Dekker 1971): exact addition when |x| ≥ |y|, 3 FLOPs
//   - TwoProd    (Dekker/Veltkamp, FMA form): exact multiplication, 2 FLOPs
//
// All functions are generic over float32 and float64. Go guarantees IEEE 754
// binary arithmetic with round-to-nearest-even for both types, which is the
// rounding model assumed throughout (paper §2.1).
package eft

import (
	"math"
	"unsafe"
)

// Float is the set of base types supported by the EFTs and by all expansion
// arithmetic built on top of them.
type Float interface {
	float32 | float64
}

// TwoSum returns (s, e) with s = RN(x+y) and e = (x+y) - s exactly.
// It is valid for all finite x, y whose sum does not overflow.
// 6 FLOPs, branch-free.
//
//mf:branchfree
//mf:fpan twosum
func TwoSum[T Float](x, y T) (s, e T) {
	s = x + y
	xEff := s - y
	yEff := s - xEff
	dx := x - xEff
	dy := y - yEff
	e = dx + dy
	return s, e
}

// FastTwoSum returns (s, e) with s = RN(x+y) and e = (x+y) - s exactly,
// provided x = ±0, y = ±0, or exponent(x) ≥ exponent(y). If the precondition
// is violated, s is still the correctly rounded sum but e may be inexact.
// 3 FLOPs, branch-free.
//
//mf:branchfree
//mf:fpan fasttwosum
func FastTwoSum[T Float](x, y T) (s, e T) {
	s = x + y
	yEff := s - x
	e = y - yEff
	return s, e
}

// TwoProd returns (p, e) with p = RN(x*y) and e = x*y - p exactly, using a
// fused multiply-add. Valid whenever x*y neither overflows nor falls below
// the subnormal threshold where e would be unrepresentable.
// 2 FLOPs, branch-free.
//
// The T(...) conversion is a rounding barrier: Go lets a fusing target
// (arm64, ppc64le, s390x, riscv64, loong64) contract the product into
// whatever addition consumes p after inlining, which would count e twice.
//
//mf:branchfree
//mf:fpan twoprod
func TwoProd[T Float](x, y T) (p, e T) {
	p = T(x * y)
	e = FMA(x, y, -p)
	return p, e
}

// FMA returns RN(x*y + z) with a single rounding.
// For float64 this lowers to math.FMA (a hardware instruction on amd64 and
// arm64). For float32 it uses FMA32, a proven double-precision emulation.
//
// The width dispatch is a size test rather than an `any` type switch: the
// test constant-folds per instantiation, which keeps FMA — and therefore
// TwoProd — inlinable. The type-switch form compiled to a non-inlinable
// runtime dispatch that dominated kernel profiles (≈20% of GEMM time).
//
//mf:branchfree
func FMA[T Float](x, y, z T) T {
	if unsafe.Sizeof(x) == 8 {
		return T(math.FMA(float64(x), float64(y), float64(z)))
	}
	//mf:allow branchfree -- FMA32's round-to-odd fixup branches on the residual; the float64 path above is the branch-free contract, and the float32 emulation is the documented exception (Boldo–Melquiond)
	return T(FMA32(float32(x), float32(y), float32(z)))
}

// FMA32 returns RN32(x*y + z) with a single rounding, emulated in float64.
//
// The product x*y is exact in float64 (24+24 = 48 ≤ 53 significand bits).
// The sum p + z is computed with TwoSum to recover its exact residual, and
// the residual is folded back in with round-to-odd before the final
// conversion to float32. Rounding to odd at 53 bits followed by rounding to
// nearest at 24 bits equals a single correct rounding because 53 ≥ 2·24+2
// (Boldo–Melquiond).
func FMA32(x, y, z float32) float32 {
	p := float64(float64(x) * float64(y)) // exact; the conversion bars contraction
	s, e := TwoSum(p, float64(z))
	if e != 0 && !math.IsInf(s, 0) {
		// Round to odd: if the 53-bit sum was inexact and its last
		// significand bit is even, nudge it one ulp toward the residual.
		bits := math.Float64bits(s)
		if bits&1 == 0 {
			if (e > 0) == (s >= 0) {
				bits++
			} else {
				bits--
			}
			s = math.Float64frombits(bits)
		}
	}
	return float32(s)
}

// Split decomposes x into hi + lo where hi holds the upper ⌈p/2⌉ significand
// bits and lo the remainder, with |lo| ≤ ulp(hi)/2 (Veltkamp splitting).
// Used by TwoProdDekker on targets without FMA. 4 FLOPs.
//
// The width dispatch uses the same unsafe.Sizeof idiom as FMA: the
// condition constant-folds per instantiation, so no branch survives to
// machine code (the earlier `any` type switch did not fold, and also
// boxed x into an interface).
//
//mf:branchfree
func Split[T Float](x T) (hi, lo T) {
	var factor T
	if unsafe.Sizeof(x) == 8 {
		factor = T(1<<27 + 1) // 2^ceil(53/2) + 1
	} else {
		factor = T(1<<12 + 1) // 2^ceil(24/2) + 1
	}
	c := factor * x
	hi = c - (c - x)
	lo = x - hi
	return hi, lo
}

// TwoProdDekker returns (p, e) with p = RN(x*y) and e = x*y - p exactly,
// without using an FMA (Dekker 1971 / Veltkamp). 17 FLOPs. Valid when no
// intermediate overflow occurs in the splitting (|x|, |y| < 2^(emax - 27)).
//
// Each product is wrapped in an explicit T(...) conversion: the Go
// spec lets the compiler contract a*b±c into one fused rounding on arm64,
// and fusing any of these products computes the error of a multiplication
// that never happened. The conversions are guaranteed rounding barriers
// (and no-ops on targets that don't contract).
//
//mf:branchfree
func TwoProdDekker[T Float](x, y T) (p, e T) {
	p = T(x * y)
	xh, xl := Split(x)
	yh, yl := Split(y)
	e = ((T(xh*yh) - p) + T(xh*yl) + T(xl*yh)) + T(xl*yl)
	return p, e
}
