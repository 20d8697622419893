package mpfloat

import "math/bits"

// Limb-vector primitives. Limbs are little-endian uint64 words, mirroring
// the GMP representation that MPFR builds on. All functions operate on
// equal-length slices unless noted.

// addVV adds b into a (a += b), returning the outgoing carry.
func addVV(a, b []uint64) (carry uint64) {
	for i := range a {
		a[i], carry = add64c(a[i], b[i], carry)
	}
	return carry
}

func add64c(x, y, c uint64) (uint64, uint64) {
	s, c1 := bits.Add64(x, y, c)
	return s, c1
}

// subVV subtracts b from a (a -= b), returning the outgoing borrow.
func subVV(a, b []uint64) (borrow uint64) {
	for i := range a {
		a[i], borrow = bits.Sub64(a[i], b[i], borrow)
	}
	return borrow
}

// shrSticky shifts a right by k bits in place and reports whether any
// nonzero bit was shifted out (the sticky bit). 0 ≤ k unbounded.
func shrSticky(a []uint64, k int) (sticky bool) {
	n := len(a)
	if k >= 64*n {
		for _, w := range a {
			if w != 0 {
				sticky = true
			}
		}
		for i := range a {
			a[i] = 0
		}
		return sticky
	}
	words := k / 64
	rem := uint(k % 64)
	if words > 0 {
		for i := 0; i < words; i++ {
			if a[i] != 0 {
				sticky = true
			}
		}
		copy(a, a[words:])
		for i := n - words; i < n; i++ {
			a[i] = 0
		}
	}
	if rem > 0 {
		var carry uint64
		for i := n - 1; i >= 0; i-- {
			lo := a[i] << (64 - rem)
			a[i] = a[i]>>rem | carry
			carry = lo
		}
		if carry != 0 {
			sticky = true
		}
	}
	return sticky
}

// shl shifts a left by k bits in place (k < 64). Bits shifted off the top
// are lost; callers guarantee there is headroom.
func shl(a []uint64, k uint) {
	if k == 0 {
		return
	}
	var carry uint64
	for i := range a {
		hi := a[i] >> (64 - k)
		a[i] = a[i]<<k | carry
		carry = hi
	}
}

// cmpVV compares a and b as big-endian-significant numbers: -1, 0, +1.
func cmpVV(a, b []uint64) int {
	for i := len(a) - 1; i >= 0; i-- {
		switch {
		case a[i] > b[i]:
			return 1
		case a[i] < b[i]:
			return -1
		}
	}
	return 0
}

// mulVV computes the full 2n-limb product of a and b (schoolbook) into
// out, which must have length len(a)+len(b) and is zeroed first.
func mulVV(out, a, b []uint64) {
	for i := range out {
		out[i] = 0
	}
	for i, ai := range a {
		if ai == 0 {
			continue
		}
		var carry uint64
		for j, bj := range b {
			hi, lo := bits.Mul64(ai, bj)
			var c1, c2 uint64
			out[i+j], c1 = bits.Add64(out[i+j], lo, 0)
			out[i+j], c2 = bits.Add64(out[i+j], carry, 0)
			carry = hi + c1 + c2
		}
		k := i + len(b)
		for carry != 0 && k < len(out) {
			out[k], carry = bits.Add64(out[k], carry, 0)
			k++
		}
	}
}

// isZeroV reports whether every limb is zero.
func isZeroV(a []uint64) bool {
	for _, w := range a {
		if w != 0 {
			return false
		}
	}
	return true
}

// nlz returns the number of leading zero bits of the limb vector (0 for a
// normalized vector whose top bit is set).
func nlz(a []uint64) int {
	for i := len(a) - 1; i >= 0; i-- {
		if a[i] != 0 {
			return (len(a)-1-i)*64 + bits.LeadingZeros64(a[i])
		}
	}
	return len(a) * 64
}
