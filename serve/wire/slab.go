package wire

import (
	"multifloats/mf"
	"multifloats/serve/internal/slab"
)

// Slab conversions between mf expansion slices and the flat component
// slabs that travel on the wire. Component order is the expansion's own
// (leading term first), so packing is a pure reshape — no rounding, no
// bit changes. Each returns a copy that shares no memory with its
// input, so a caller may update either side in place (the typed client
// API and the benchmark's reference computations do).

// Pack2 flattens 2-term expansions into a component slab.
func Pack2(v []mf.Float64x2) []float64 { return clone(slab.Flat(v)) }

// Unpack2 reshapes a component slab into 2-term expansions.
func Unpack2(s []float64) []mf.Float64x2 { return clone(slab.As[mf.Float64x2](s)) }

// Pack3 flattens 3-term expansions into a component slab.
func Pack3(v []mf.Float64x3) []float64 { return clone(slab.Flat(v)) }

// Unpack3 reshapes a component slab into 3-term expansions.
func Unpack3(s []float64) []mf.Float64x3 { return clone(slab.As[mf.Float64x3](s)) }

// Pack4 flattens 4-term expansions into a component slab.
func Pack4(v []mf.Float64x4) []float64 { return clone(slab.Flat(v)) }

// Unpack4 reshapes a component slab into 4-term expansions.
func Unpack4(s []float64) []mf.Float64x4 { return clone(slab.As[mf.Float64x4](s)) }

// clone returns a fresh copy of s (empty, never nil, for an empty s).
func clone[T any](s []T) []T {
	c := make([]T, len(s))
	copy(c, s)
	return c
}
