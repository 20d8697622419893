// Package branchy is the branchfree analyzer fixture.
package branchy

import (
	"math"
	"math/bits"
	"unsafe"
)

// leaf is a branch-free primitive other annotated functions may call.
//
//mf:branchfree
func leaf(x, y float64) float64 {
	return x + y
}

// helper is NOT annotated, so annotated callers may not call it even
// though its body happens to be straight-line.
func helper(x float64) float64 { return x * 2 }

//mf:branchfree
func statements(x, y float64) float64 {
	if x > y { // want `if statement in //mf:branchfree function statements`
		x = y
	}
	switch { // want `switch statement in //mf:branchfree function statements`
	case x > 0:
		x = -x
	}
	switch any(x).(type) { // want `type switch in //mf:branchfree function statements`
	case float64:
	}
	select { // want `select statement in //mf:branchfree function statements`
	default:
	}
	ok := x > 0 && y > 0 // want `short-circuit && .* hides a conditional branch`
	_ = ok
	or := x > 0 || y > 0 // want `short-circuit \|\| .* hides a conditional branch`
	_ = or
	goto done // want `goto in //mf:branchfree function statements`
done:
	f := func() float64 { return 0 } // want `function literal in //mf:branchfree function statements`
	return f()                       // want `indirect call in //mf:branchfree function statements`
}

//mf:branchfree
func calls(x, y float64) float64 {
	z := leaf(x, y)       // annotated callee: fine
	z = math.FMA(x, y, z) // allowlisted intrinsic
	z = math.Float64frombits(math.Float64bits(z))
	z = math.Abs(z)       // want `calls math.Abs, which is not marked`
	z = helper(z)         // want `calls branchy.helper, which is not marked`
	z = min(z, x)         // want `builtin min \(a data-dependent select\)`
	z = float64(int64(z)) // conversions are rounding barriers, not calls
	return z
}

// wide is 128-bit integer arithmetic through the allowlisted intrinsics;
// the allowlist names only those the kernels use, so bits.Sub64 is out.
//
//mf:branchfree
func wide(x, y, acc uint64) (uint64, uint64) {
	hi, lo := bits.Mul64(x, y)
	lo, c := bits.Add64(lo, acc, 0)
	hi, _ = bits.Add64(hi, 0, c)
	_, _ = bits.Sub64(x, y, 0) // want `calls bits.Sub64, which is not marked`
	return hi, lo
}

//mf:branchfree
func widthDispatch[T float32 | float64](x T) T {
	if unsafe.Sizeof(x) == 8 { // constant-folds per instantiation
		return x
	}
	return -x
}

//mf:branchfree
func allowed(x float64) float64 {
	if x > 0 { //mf:allow branchfree -- fixture: justified escape from the contract
		return x
	}
	return -x
}

// unannotated functions may branch freely.
func unannotated(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
