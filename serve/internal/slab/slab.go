// Package slab views the flat float64 component slabs that serve/
// passes operands in as bytes and as expansions, without copying.
// mf.Float64x{2,3,4} are [w]float64 arrays, so expansion i of a width-w
// slab s is s[i*w:(i+1)*w] in memory as well as by convention, and on a
// little-endian host a slab's bytes are exactly its wire encoding.
//
// A view aliases its input: a write through one is a write to the
// other. That is why the views stay inside serve/, where each one's
// lifetime is a single frame's. Exported APIs hand out a view only of
// memory nothing else holds: serve/client's typed calls return views of
// their own decoded response, while wire.Pack* and wire.Unpack* return
// copies.
package slab

import (
	"unsafe"

	"multifloats/mf"
)

// Expansion is a type a slab can be viewed as: an expansion of width 2,
// 3 or 4, or a plain float64 as width 1, which the exact reductions
// allow.
type Expansion interface {
	float64 | mf.Float64x2 | mf.Float64x3 | mf.Float64x4
}

// Bytes returns the memory of s as 8·len(s) bytes.
func Bytes(s []float64) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), 8*len(s))
}

// As returns s as len(s)/w expansions of width w; a trailing partial
// expansion is left out.
func As[E Expansion](s []float64) []E {
	w := Width[E]()
	if len(s) < w {
		return nil
	}
	return unsafe.Slice((*E)(unsafe.Pointer(&s[0])), len(s)/w)
}

// Flat returns v as its flat component slab.
func Flat[E Expansion](v []E) []float64 {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&v[0])), len(v)*Width[E]())
}

// Width is the number of float64 components in one E.
func Width[E Expansion]() int {
	var e E
	return int(unsafe.Sizeof(e)) / 8
}
