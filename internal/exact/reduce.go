// Package-level reduction entry points: one-shot exact sums and dot
// products over plain float64 slices and over expansion operands. Each
// returns the correctly rounded value (or canonical width-w expansion)
// of the exact mathematical result — bit-identical for every
// permutation, chunking, or sharding of the same inputs.

package exact

import (
	"unsafe"

	"multifloats/mf"
)

// Sum returns the correctly rounded sum of xs.
func Sum(xs []float64) float64 {
	var a Accumulator
	a.AddValues(xs)
	return a.Sum()
}

// Dot returns the correctly rounded dot product of x and y.
// x and y must have equal length.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("exact.Dot: operand lengths differ")
	}
	var a Accumulator
	a.AddDotSlab(1, x, y)
	return a.Sum()
}

// Sum2 returns the sum of the expansion values in xs, rounded to the
// canonical width-2 expansion of the exact result.
func Sum2(xs []mf.Float64x2) mf.Float64x2 {
	return mf.Float64x2(sumExpansion(2, flat(xs)))
}

// Sum3 is Sum2 at width 3.
func Sum3(xs []mf.Float64x3) mf.Float64x3 {
	return mf.Float64x3(sumExpansion(3, flat(xs)))
}

// Sum4 is Sum2 at width 4.
func Sum4(xs []mf.Float64x4) mf.Float64x4 {
	return mf.Float64x4(sumExpansion(4, flat(xs)))
}

// Dot2 returns the dot product of the expansion vectors x and y,
// rounded to the canonical width-2 expansion of the exact result.
// x and y must have equal length.
func Dot2(x, y []mf.Float64x2) mf.Float64x2 {
	if len(x) != len(y) {
		panic("exact.Dot2: operand lengths differ")
	}
	return mf.Float64x2(dotExpansion(2, flat(x), flat(y)))
}

// Dot3 is Dot2 at width 3.
func Dot3(x, y []mf.Float64x3) mf.Float64x3 {
	if len(x) != len(y) {
		panic("exact.Dot3: operand lengths differ")
	}
	return mf.Float64x3(dotExpansion(3, flat(x), flat(y)))
}

// Dot4 is Dot2 at width 4.
func Dot4(x, y []mf.Float64x4) mf.Float64x4 {
	if len(x) != len(y) {
		panic("exact.Dot4: operand lengths differ")
	}
	return mf.Float64x4(dotExpansion(4, flat(x), flat(y)))
}

// sumExpansion folds a width-w component slab through AddValues (an
// expansion's value is the exact sum of its components) and rounds to
// the canonical width-w expansion.
func sumExpansion(w int, xs []float64) []float64 {
	var a Accumulator
	a.AddValues(xs)
	return a.SumExpansion(w)
}

// dotExpansion folds two width-w component slabs through AddDotSlab and
// rounds to the canonical width-w expansion.
func dotExpansion(w int, x, y []float64) []float64 {
	var a Accumulator
	a.AddDotSlab(w, x, y)
	return a.SumExpansion(w)
}

// flat views v as its flat component slab without copying:
// mf.Float64x{2,3,4} are [w]float64 arrays, so expansion i's components
// are the slab's [i*w, (i+1)*w) in memory. The view is only read.
func flat[E mf.Float64x2 | mf.Float64x3 | mf.Float64x4](v []E) []float64 {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&v[0])), len(v)*int(unsafe.Sizeof(v[0]))/8)
}
