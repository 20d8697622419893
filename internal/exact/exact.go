// Package exact implements an exponent-indexed superaccumulator: a
// fixed-size integer accumulator that sums float64 values (and exact
// float64·float64 products) with no rounding error at all, in O(1) time
// per element and with branch-free bin updates.
//
// The design follows the exponent-indexed ("procrastinating")
// accumulators of Liguori 2024 (PAPERS.md): the 2048-wide exponent range
// of float64 — widened to the 4096-wide range of exact double products —
// is split into 32-bit-wide bins, and each input's integer significand
// is shattered into at most a few 32-bit chunks deposited into adjacent
// bins. Deposits are plain int64 additions, so accumulation is exact,
// commutative, and associative: the represented value is an integer
// multiple of 2^-2148, independent of summation order, chunking, or
// sharding. Carry propagation is procrastinated: each bin has 30 bits of
// headroom above the 32-bit chunk, so carries need resolving only every
// 2^30 deposits (renorm), keeping the hot path free of data-dependent
// control flow (//mf:branchfree, machine-checked by mflint).
//
// The bulk folds (AddValues, AddDotSlab) also procrastinate the
// alignment, as Liguori's accumulators do: each value, or each exact
// product, is one 128-bit unsigned add of its significand into a
// stack-local slot chosen by its exponent's high bits and its sign,
// pre-shifted by the exponent's low three bits. The slots reach the bins
// once per block of 2^15 deposits, the most a slot takes without
// wrapping. Specials deposit nothing: the deposit loop keeps one bit,
// "some exponent field was all ones", and only a block that saw one
// re-reads its elements for the NaN/Inf flags.
//
// Fold-down (Sum / SumExpansion) rounds the accumulated integer to a
// float64 — or greedily to a width-w expansion, matching the canonical
// decomposition the diffuzz oracle uses — correctly in the IEEE-754
// round-to-nearest-even sense, Lefèvre-style: locate the leading bit,
// read the 53-bit window, and decide the rounding from one guard bit
// plus a sticky OR over everything below. See DESIGN.md §3.3 for the
// layout and the rounding argument.
//
// Special values are tracked branch-free in three flag words (NaN seen,
// +Inf seen, -Inf seen) with the IEEE collapse rules applied once at
// fold-down; NaN results are always the canonical quiet NaN, so results
// stay bit-comparable. An exact zero folds to +0 regardless of the signs
// of the zeros that produced it (documented divergence from sequential
// IEEE addition, which would yield -0 for a sum of negative zeros); a
// nonzero value that rounds to zero keeps its sign.
package exact

import (
	"math"
	"math/bits"
)

const (
	// chunkBits is the bin granularity: each bin holds a 32-bit chunk of
	// the accumulated integer in an int64, leaving headroom for carries.
	chunkBits = 32
	chunkMask = 1<<chunkBits - 1

	// binExp is the exponent of bit 0 of bin 0: the accumulator
	// represents values as integer multiples of 2^binExp. The smallest
	// magnitude an exact product of two float64s can have is
	// (2^-1074)² = 2^-2148, so every finite float64 value (ulp ≥ 2^-1074)
	// and every exact product lands on this grid with no rounding.
	binExp = -2148

	// binCount covers the full product exponent range. A product's
	// highest deposited bit sits at position ≤ 4090+105+... < 4224
	// (bin 131); bins 132–133 absorb renormalization carries. A carry
	// out of the top bin would require |value| ≥ 2^(32·134+binExp) =
	// 2^2140, unreachable before ~2^92 maximal deposits — far beyond any
	// feasible op count — so the top carry word stays in {0, -1} (the
	// two's-complement sign) whenever the accumulator is folded.
	binCount = 134

	// renormEvery bounds deposits between carry propagations. Each
	// deposit, and each slot-table flush (see flush), moves a bin by
	// less than 2^32, and the budget is checked after every charge, so
	// bins stay below (2^30+2)·2^32 < 2^63 between renorms — no int64
	// overflow.
	renormEvery = 1 << 30

	// slotShift sets the slot table in front of the bins (see slots): a
	// deposit at position q (its ulp's bit offset above 2^binExp) goes to
	// group q>>slotShift, pre-shifted by q's low slotShift bits. Product
	// positions are at most 2045+2045 = 4090, so 512 groups cover them.
	slotShift  = 3
	slotPairs  = 4096 >> slotShift
	slotSpread = 1<<slotShift - 1 // the largest pre-shift

	// Value deposits sit at positions u+1074 ∈ [1074, 3119], in the
	// groups based at bins valueBinLo..valueBinHi-1 (see flush).
	valueBinLo = 1074 / chunkBits
	valueBinHi = 3119/chunkBits + 1

	// blockLen is the most deposits a slot can take between flushes. A
	// deposit is at most a product of two 53-bit significands
	// pre-shifted by slotSpread bits, below 2^(106+7) = 2^113, so 2^15 of
	// them stay below 2^128; one more doubling could wrap the slot.
	blockLen = 1 << 15
)

// Accumulator is a superaccumulator. The zero value is an empty sum,
// ready to use. It is not safe for concurrent use; for parallel
// reductions give each worker its own Accumulator and combine with
// Merge (the combined fold-down is bit-identical to sequential
// accumulation in any order).
type Accumulator struct {
	bins [binCount]int64
	// top accumulates carries propagated out of the last bin; after a
	// renorm it is the two's-complement sign extension of the value.
	top     int64
	pending int // deposits and slot-table flushes since the last renorm
	// Special-value flags (0 or 1), folded per IEEE at fold-down.
	nan, pinf, ninf uint64
}

// Reset empties the accumulator for reuse.
func (a *Accumulator) Reset() { *a = Accumulator{} }

// split splits the IEEE-754 bit pattern b into an unsigned integer
// significand m and an unbiased-shifted exponent u such that a finite
// value is ±m·2^(u-1074) with u ∈ [0, 2045] — the uniform fixed-point
// view that makes normals and subnormals a single branch-free case.
// spec is 1 iff the exponent field is all ones (Inf or NaN); m is then
// masked to zero, so the deposit contributes nothing.
//
//mf:branchfree
func split(b uint64) (m, u, sgnBit, spec uint64) {
	e := b >> 52 & 0x7FF
	nz := (e + 2047) >> 11 // 0 for zero/subnormal exponent, 1 otherwise
	spec = (e + 1) >> 11   // 1 iff e == 0x7FF (Inf or NaN)
	m = (b&(1<<52-1) | nz<<52) & (spec - 1)
	u = e - nz // max(e,1)-1, branch-free
	sgnBit = b >> 63
	return
}

// decompose is split with the special class told apart: nan and inf
// are 0/1 flags.
//
//mf:branchfree
func decompose(b uint64) (m, u, sgnBit, nan, inf uint64) {
	m, u, sgnBit, spec := split(b)
	fnz := (b<<12 | (0 - b<<12)) >> 63 // 1 iff the fraction field is nonzero
	return m, u, sgnBit, spec & fnz, spec &^ fnz
}

// add deposits one float64 into the bins: the ≤53-bit significand,
// shifted into place, spans at most 3 adjacent 32-bit chunks. Callers
// own the pending-deposit budget (see bump).
//
//mf:branchfree
//mf:hotpath
func (a *Accumulator) add(x float64) {
	b := math.Float64bits(x)
	m, u, sb, nan, inf := decompose(b)
	a.nan |= nan
	a.pinf |= inf & (1 - sb)
	a.ninf |= inf & sb
	q := u + 1074 // bit position of the value's ulp above 2^binExp
	i := int(q >> 5)
	s := q & 31
	lo := m << s
	hi := m >> (64 - s) // s == 0 shifts by 64: defined, yields 0
	sgn := int64(1) - int64(sb<<1)
	a.bins[i] += sgn * int64(lo&chunkMask)
	a.bins[i+1] += sgn * int64(lo>>chunkBits)
	a.bins[i+2] += sgn * int64(hi)
}

// addProd deposits the exact product x·y: the ≤106-bit integer product
// of the two significands (bits.Mul64 — one widening multiply), shifted
// into place, spans at most 5 adjacent chunks. Because the significands
// multiply as integers, the deposit is exact even where TwoProd's error
// term would underflow (products in or below the subnormal range).
// IEEE special algebra (NaN operands, Inf·0 → NaN, Inf·finite → Inf
// with XOR sign) is folded into the flag words branch-free.
//
//mf:branchfree
//mf:hotpath
func (a *Accumulator) addProd(x, y float64) {
	mx, ux, sx, nanx, infx := decompose(math.Float64bits(x))
	my, uy, sy, nany, infy := decompose(math.Float64bits(y))
	zx := (((mx | (0 - mx)) >> 63) ^ 1) &^ (nanx | infx)
	zy := (((my | (0 - my)) >> 63) ^ 1) &^ (nany | infy)
	pnan := nanx | nany | (infx & zy) | (infy & zx)
	pinf := (infx | infy) &^ pnan
	sb := sx ^ sy
	a.nan |= pnan
	a.pinf |= pinf & (1 - sb)
	a.ninf |= pinf & sb
	hi, lo := bits.Mul64(mx, my)
	q := ux + uy // product ulp position above 2^binExp: (ux-1074)+(uy-1074)+2148
	i := int(q >> 5)
	s := q & 31
	plo := lo << s
	pmid := hi<<s | lo>>(64-s) // s == 0 shifts by 64: defined, yields 0
	phi := hi >> (64 - s)
	sgn := int64(1) - int64(sb<<1)
	a.bins[i] += sgn * int64(plo&chunkMask)
	a.bins[i+1] += sgn * int64(plo>>chunkBits)
	a.bins[i+2] += sgn * int64(pmid&chunkMask)
	a.bins[i+3] += sgn * int64(pmid>>chunkBits)
	a.bins[i+4] += sgn * int64(phi)
}

// bump charges n deposits against the renorm budget. The branch is on a
// data-independent counter, so the kernels above stay branch-free while
// overflow remains impossible (see renormEvery).
//
//mf:hotpath
func (a *Accumulator) bump(n int) {
	a.pending += n
	if a.pending >= renormEvery {
		a.renorm()
	}
}

// renorm propagates carries so every bin lands back in [0, 2^32),
// restoring full per-bin headroom. It preserves the represented value
// exactly (including the top carry word), so callers may renorm at any
// time without affecting any future fold-down.
//
//mf:branchfree
//mf:hotpath
func (a *Accumulator) renorm() {
	var carry int64
	for i := range a.bins {
		v := a.bins[i] + carry
		carry = v >> chunkBits // arithmetic: floor division by 2^32
		a.bins[i] = v & chunkMask
	}
	a.top += carry
	a.pending = 0
}

// Add folds one float64 value into the accumulator.
func (a *Accumulator) Add(x float64) {
	a.add(x)
	a.bump(1)
}

// AddProduct folds the exact product x·y into the accumulator.
func (a *Accumulator) AddProduct(x, y float64) {
	a.addProd(x, y)
	a.bump(1)
}

// slots is the table the bulk folds deposit into before the bins, which
// puts off the alignment as well as the carries (Liguori 2024): a
// 128-bit unsigned sum per (group, sign) at index g<<1 | sign, where
// group g takes the deposits at positions 8g..8g+7, each moved up by
// its position's low slotShift bits. So pair g holds
// (pos − neg)·2^(binExp + 8g), and a deposit is one 128-bit add where
// the bins take three or five signed chunk writes. flush moves the
// table into the bins once per block of at most blockLen deposits. The
// table lives on the folding call's stack (16 KiB).
type slots [2 * slotPairs]slot

// slot is one 128-bit unsigned sum.
type slot struct{ lo, hi uint64 }

// addValues deposits every value of xs into t, one 128-bit add each,
// and returns 1 if some exponent field was all ones (Inf or NaN, which
// deposit nothing), else 0. Callers keep len(xs) ≤ blockLen.
//
//mf:branchfree
//mf:hotpath
func (t *slots) addValues(xs []float64) (spec uint64) {
	for _, x := range xs {
		m, u, sb, sp := split(math.Float64bits(x))
		q := u + 1074 // as in add
		c := &t[(q>>slotShift<<1|sb)&(2*slotPairs-1)]
		var carry uint64
		c.lo, carry = bits.Add64(c.lo, m<<(q&slotSpread), 0)
		c.hi += carry
		spec |= sp
	}
	return spec
}

// addDots deposits the w² exact cross products of every element pair
// of x and y, whole width-w elements with 1 ≤ w ≤ 4, into t: one
// widening multiply and one 128-bit add each. It splits each component
// once per element, y's into fixed 4-wide scratch, and returns 1 if
// some exponent field was all ones, else 0. Callers keep the product
// count ≤ blockLen.
//
//mf:branchfree
//mf:hotpath
func (t *slots) addDots(w int, x, y []float64) (spec uint64) {
	var yc [maxDotWidth]dotComp
	for e := 0; e < len(x); e += w {
		for k, v := range y[e : e+w] {
			m, u, sb, sp := split(math.Float64bits(v))
			yc[k] = dotComp{m, u, sb}
			spec |= sp
		}
		for _, v := range x[e : e+w] {
			mx, ux, sx, sp := split(math.Float64bits(v))
			spec |= sp
			for _, c := range yc[:w] {
				q := ux + c.u // product ulp position above 2^binExp, as in addProd
				// Pre-shifting mx (< 2^53) by ≤ 7 bits keeps it in 64 bits,
				// so the multiply yields the pre-shifted product.
				hi, lo := bits.Mul64(mx<<(q&slotSpread), c.m)
				d := &t[(q>>slotShift<<1|sx^c.s)&(2*slotPairs-1)]
				var carry uint64
				d.lo, carry = bits.Add64(d.lo, lo, 0)
				d.hi, _ = bits.Add64(d.hi, hi, carry)
			}
		}
	}
	return spec
}

// flush adds t's value into the bins and empties t. Group g sits 8g
// bits above bin 0: based at bin g>>2, 8·(g&3) ≤ 24 bits up. flush
// walks the bins upward with a window of four: the four groups based
// at bin i add their slots' signed 32-bit chunk differences, moved up
// 8·(g&3) bits, into bins i..i+3 of the window; then bin i leaves it
// as one addend in [0, 2^32), its carry going on to bin i+1 as in
// renorm. So a flush moves each bin by less than 2^32, as one deposit
// does, and callers charge it as one. It walks the groups based at bins
// lo..hi-1, which must hold every nonempty slot; hi ≤ slotPairs/4.
//
//mf:branchfree
//mf:hotpath
func (a *Accumulator) flush(t *slots, lo, hi int) {
	var w0, w1, w2, w3 int64
	for i := lo; i < hi; i++ {
		// Horner over the four groups, top one first: each step moves
		// the sums up 8 bits and adds the next group's chunks.
		var v0, v1, v2, v3 int64
		q := (*[8]slot)(t[8*i:])
		for r := 6; r >= 0; r -= 2 {
			p, n := q[r], q[r+1]
			v0 = v0<<8 + int64(p.lo&chunkMask) - int64(n.lo&chunkMask)
			v1 = v1<<8 + int64(p.lo>>chunkBits) - int64(n.lo>>chunkBits)
			v2 = v2<<8 + int64(p.hi&chunkMask) - int64(n.hi&chunkMask)
			v3 = v3<<8 + int64(p.hi>>chunkBits) - int64(n.hi>>chunkBits)
			q[r], q[r+1] = slot{}, slot{}
		}
		w0 += v0
		a.bins[i] += w0 & chunkMask
		w0, w1, w2, w3 = w1+v1+w0>>chunkBits, w2+v2, w3+v3, 0
	}
	// The window now holds bins hi..hi+2: the top group's slots reach
	// 2^120 above bin hi, so what carries out of hi+2 is below 2^25 in
	// magnitude.
	b := (*[4]int64)(a.bins[hi:])
	b[0] += w0 & chunkMask
	w1 += w0 >> chunkBits
	b[1] += w1 & chunkMask
	w2 += w1 >> chunkBits
	b[2] += w2 & chunkMask
	b[3] += w2 >> chunkBits
}

// valueFlags folds the special-value flags of xs as add does.
//
//mf:branchfree
//mf:hotpath
func (a *Accumulator) valueFlags(xs []float64) {
	var nan, pinf, ninf uint64
	for _, x := range xs {
		_, _, sb, n, inf := decompose(math.Float64bits(x))
		nan |= n
		pinf |= inf & (1 - sb)
		ninf |= inf & sb
	}
	a.nan |= nan
	a.pinf |= pinf
	a.ninf |= ninf
}

// dotFlags folds the special-value flags of the cross products of x
// and y (whole width-w elements) as addProd would, a row at a time with
// w-bit masks over y's components (bit k for y_k), kept in registers
// and turned into 0/1 flags once per call (DESIGN.md §3.3).
//
//mf:branchfree
//mf:hotpath
func (a *Accumulator) dotFlags(w int, x, y []float64) {
	wmask := uint64(1)<<w - 1
	var nanAcc, pinfAcc, ninfAcc uint64
	for e := 0; e < len(x); e += w {
		var ynan, yinf, yzero, ysgn uint64
		for k, v := range y[e : e+w] {
			m, _, sb, nan, inf := decompose(math.Float64bits(v))
			ynan |= nan << k
			yinf |= inf << k
			yzero |= (((m | (0 - m)) >> 63) ^ 1) &^ (nan | inf) << k
			ysgn |= sb << k
		}
		for _, v := range x[e : e+w] {
			mx, _, sx, nanx, infx := decompose(math.Float64bits(v))
			zx := (((mx | (0 - mx)) >> 63) ^ 1) &^ (nanx | infx)
			// Row x_j's NaN products: all if x_j is NaN, y's NaNs, y's
			// zeros if x_j is Inf, y's Infs if x_j is zero. Its Inf
			// products: x_j's or y's Infs minus those, signed x_j ⊕ y_k.
			// ORing rows is exactly ORing addProd's per-product flags.
			nanRow := (0 - nanx) | ynan | (0-infx)&yzero | (0-zx)&yinf
			infRow := ((0-infx)&wmask | yinf) &^ nanRow
			sgnRow := (0 - sx) ^ ysgn
			nanAcc |= nanRow
			pinfAcc |= infRow &^ sgnRow
			ninfAcc |= infRow & sgnRow
		}
	}
	a.nan |= (nanAcc | (0 - nanAcc)) >> 63
	a.pinf |= (pinfAcc | (0 - pinfAcc)) >> 63
	a.ninf |= (ninfAcc | (0 - ninfAcc)) >> 63
}

// AddValues folds every value in xs. For expansion operands pass the
// flat component slab: an expansion's value is the exact sum of its
// components, so summing components individually is summing the values.
// It deposits through the slot table in blocks of blockLen values; a
// block that holds an Inf or NaN takes a second, flags-only pass.
//
//mf:hotpath
func (a *Accumulator) AddValues(xs []float64) {
	var t slots
	for len(xs) > 0 {
		n := min(len(xs), blockLen)
		if t.addValues(xs[:n]) != 0 {
			a.valueFlags(xs[:n])
		}
		a.flush(&t, valueBinLo, valueBinHi)
		a.bump(1)
		xs = xs[n:]
	}
}

// AddDotSlab folds the exact dot product of two width-w component slabs
// (wire layout: element i occupies s[i*w:(i+1)*w]). Each element
// product expands to the w² exact cross products of the components —
// every one deposited exactly, so the fold is the correctly rounded
// true dot product for any finite inputs. w must be 1..4 and x and y
// must hold the same whole number of elements; AddDotSlab panics
// otherwise. Like AddValues it deposits through the slot table, in
// blocks of the most whole elements whose products fit blockLen.
//
//mf:hotpath
func (a *Accumulator) AddDotSlab(w int, x, y []float64) {
	if w < 1 || w > maxDotWidth {
		panic("exact.AddDotSlab: width outside 1..4")
	}
	if len(x) != len(y) || len(x)%w != 0 {
		panic("exact.AddDotSlab: slabs differ in length or end in a partial element")
	}
	var t slots
	block := blockLen / (w * w) * w
	for len(x) > 0 {
		n := min(len(x), block)
		if t.addDots(w, x[:n], y[:n]) != 0 {
			a.dotFlags(w, x[:n], y[:n])
		}
		a.flush(&t, 0, slotPairs/4)
		a.bump(1)
		x, y = x[n:], y[n:]
	}
}

// maxDotWidth is the widest element AddDotSlab folds: addDots holds
// one element's split components in fixed 4-wide scratch.
const maxDotWidth = 4

// dotComp is one split component (see split): significand, shifted
// exponent and sign bit.
type dotComp struct{ m, u, s uint64 }

// Merge folds b's accumulated state into a, bit-exactly: folding down
// a afterwards gives the identical result to accumulating all of both
// accumulators' inputs into one, in any order. Merge is associative and
// commutative (bins add as integers; flags OR), which is what makes
// sharded and chunked reductions reproducible. b is not modified.
//
//mf:hotpath
func (a *Accumulator) Merge(b *Accumulator) {
	a.renorm()
	for i := range a.bins {
		a.bins[i] += b.bins[i]
	}
	a.top += b.top
	a.nan |= b.nan
	a.pinf |= b.pinf
	a.ninf |= b.ninf
	a.bump(b.pending)
}

// special applies the IEEE collapse rules to the flag words: any NaN —
// or an Inf of each sign — makes the sum NaN (always the canonical
// quiet NaN, for bit-comparable results); otherwise a single-signed
// Inf wins. ok reports whether a special result applies.
func (a *Accumulator) special() (f float64, ok bool) {
	if a.nan != 0 || (a.pinf != 0 && a.ninf != 0) {
		return math.NaN(), true
	}
	if a.pinf != 0 {
		return math.Inf(1), true
	}
	if a.ninf != 0 {
		return math.Inf(-1), true
	}
	return 0, false
}

// magnitude extracts the sign and |value| as 32-bit chunks from a
// renormalized accumulator (the two's-complement negate when the top
// carry word says the value is negative).
func (a *Accumulator) magnitude() (neg bool, mag [binCount]uint64) {
	if a.top >= 0 {
		for i, b := range a.bins {
			mag[i] = uint64(b)
		}
		return false, mag
	}
	borrow := uint64(1)
	for i, b := range a.bins {
		v := (^uint64(b) & chunkMask) + borrow
		mag[i] = v & chunkMask
		borrow = v >> chunkBits
	}
	return true, mag
}

// bitAt returns bit pos (counting from 2^binExp at pos 0) of mag.
//
//mf:branchfree
//mf:hotpath
func bitAt(mag *[binCount]uint64, pos int) uint64 {
	return mag[pos>>5] >> (pos & 31) & 1
}

// stickyBelow reports whether any bit strictly below pos is set.
func stickyBelow(mag *[binCount]uint64, pos int) bool {
	i := pos >> 5
	if mag[i]&(1<<(pos&31)-1) != 0 {
		return true
	}
	for j := i - 1; j >= 0; j-- {
		if mag[j] != 0 {
			return true
		}
	}
	return false
}

// roundMag rounds the magnitude to the nearest float64, ties to even:
// find the leading bit, read the 53-bit significand window (clamped at
// the 2^-1074 subnormal granularity), and round on guard + sticky. The
// (significand, ulp-exponent) pair it produces is representable by
// construction, so the final Ldexp is exact; magnitudes at or beyond
// 2^1024 after rounding overflow to +Inf, per IEEE.
func roundMag(mag *[binCount]uint64) float64 {
	h := -1
	for i := binCount - 1; i >= 0; i-- {
		if mag[i] != 0 {
			h = i
			break
		}
	}
	if h < 0 {
		return 0
	}
	msb := chunkBits*h + bits.Len64(mag[h]) - 1
	ulpExp := msb + binExp - 52
	if ulpExp < -1074 {
		ulpExp = -1074
	}
	r := ulpExp - binExp
	var m uint64
	for pos := msb; pos >= r; pos-- {
		m = m<<1 | bitAt(mag, pos)
	}
	if r > 0 && bitAt(mag, r-1) == 1 && (m&1 == 1 || stickyBelow(mag, r-1)) {
		m++
	}
	if m == 1<<53 {
		m = 1 << 52
		ulpExp++
	}
	if ulpExp > 1023-52 {
		return math.Inf(1)
	}
	return math.Ldexp(float64(m), ulpExp)
}

// Sum returns the accumulated value correctly rounded to float64
// (round to nearest, ties to even). It does not consume or modify the
// accumulator.
func (a *Accumulator) Sum() float64 {
	if s, ok := a.special(); ok {
		return s
	}
	c := *a
	c.renorm()
	neg, mag := c.magnitude()
	f := roundMag(&mag)
	if neg {
		f = -f
	}
	return f
}

// SumExpansion returns the accumulated value rounded to a width-w
// expansion by greedy iterated rounding: t₀ = RN(v), t₁ = RN(v−t₀), …
// — each remainder subtracted exactly before the next rounding. This is
// the canonical decomposition (identical to the diffuzz oracle's Canon
// form): components are nonoverlapping, decreasing, and the expansion
// is the closest width-w value to the exact sum. A leading ±Inf (exact
// overflow) or special collapse leaves the remaining components zero;
// after an exact-zero remainder all following components are zero.
func (a *Accumulator) SumExpansion(w int) []float64 {
	out := make([]float64, w)
	if s, ok := a.special(); ok {
		out[0] = s
		return out
	}
	c := *a
	for t := 0; t < w; t++ {
		c.renorm()
		neg, mag := c.magnitude()
		f := roundMag(&mag)
		if neg {
			f = -f
		}
		out[t] = f
		if f == 0 || math.IsInf(f, 0) {
			break
		}
		c.add(-f) // exact: the term's chunks cancel out of the bins
		c.bump(1)
	}
	return out
}
