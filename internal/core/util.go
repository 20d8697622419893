package core

import (
	"math"
	"math/big"

	"multifloats/internal/eft"
)

// ToBig returns the exact value of an expansion as a big.Float.
func ToBig(terms ...float64) *big.Float {
	acc := new(big.Float).SetPrec(2200)
	tmp := new(big.Float).SetPrec(2200)
	for _, t := range terms {
		if t == 0 || math.IsNaN(t) || math.IsInf(t, 0) {
			continue
		}
		acc.Add(acc, tmp.SetFloat64(t))
	}
	return acc
}

// FromBig decomposes a big.Float into an n-term ulp-nonoverlapping
// expansion by greedy rounding (the decomposition of paper Eq. 6 /
// Figure 1): x_i = RNE(C - x_0 - ... - x_{i-1}).
func FromBig(c *big.Float, n int) []float64 {
	out := make([]float64, n)
	rem := new(big.Float).SetPrec(c.Prec() + 64).Set(c)
	tmp := new(big.Float).SetPrec(c.Prec() + 64)
	for i := 0; i < n; i++ {
		f, _ := rem.Float64()
		out[i] = f
		if f == 0 || math.IsInf(f, 0) {
			break
		}
		rem.Sub(rem, tmp.SetFloat64(f))
	}
	return out
}

// Neg negates an expansion termwise (exact).
func Neg(x []float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = -v
	}
	return out
}

// ScalePow2 scales an expansion by 2^k termwise. Exact provided no term
// overflows or underflows.
func ScalePow2(x []float64, k int) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = math.Ldexp(v, k)
	}
	return out
}

// Cmp2 compares two 2-term expansions: -1, 0, or +1. Comparison is by
// value, not representation: distinct component patterns encoding the same
// real number (possible at ulp boundaries) compare equal.
func Cmp2[T eft.Float](x0, x1, y0, y1 T) int {
	d0, d1 := Sub2(x0, x1, y0, y1)
	return signOf(d0, d1)
}

// Cmp3 compares two 3-term expansions.
func Cmp3[T eft.Float](x0, x1, x2, y0, y1, y2 T) int {
	d0, d1, d2 := Sub3(x0, x1, x2, y0, y1, y2)
	return signOf(d0, d1, d2)
}

// Cmp4 compares two 4-term expansions.
func Cmp4[T eft.Float](x0, x1, x2, x3, y0, y1, y2, y3 T) int {
	d0, d1, d2, d3 := Sub4(x0, x1, x2, x3, y0, y1, y2, y3)
	return signOf(d0, d1, d2, d3)
}

func signOf[T eft.Float](terms ...T) int {
	for _, t := range terms {
		if t > 0 {
			return 1
		}
		if t < 0 {
			return -1
		}
	}
	return 0
}

// NonOverlapping reports whether the expansion satisfies the library's
// closed weak nonoverlap invariant: |x_{i+1}| ≤ 2·ulp(x_i). Branch-free
// renormalization chains can exceed the ulp boundary by one rounding in
// rare tie cases, so the invariant that is preserved with wide margin is
// the 2·ulp band (see DESIGN.md; internal/verify checks network outputs
// against the same band).
func NonOverlapping(terms ...float64) bool {
	prev := 0.0
	for _, t := range terms {
		if t == 0 {
			continue
		}
		if prev != 0 && math.Abs(t) > 2*eft.Ulp64(prev) {
			return false
		}
		prev = t
	}
	return true
}
