package slab

import (
	"encoding/binary"
	"math"
	"testing"

	"multifloats/mf"
)

// TestViewsAlias pins what the views are for: each one is the same
// memory as its input, in the wire's component order.
func TestViewsAlias(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7}
	v := As[mf.Float64x3](s)
	if len(v) != 2 || v[1] != (mf.Float64x3{4, 5, 6}) {
		t.Fatalf("As[Float64x3] = %v", v)
	}
	v[0][2] = -3
	if s[2] != -3 {
		t.Fatal("write through As did not reach the slab")
	}
	f := Flat(v)
	if len(f) != 6 || &f[0] != &s[0] {
		t.Fatalf("Flat(As(s)) is not s[:6]: len %d", len(f))
	}
	b := Bytes(s)
	if len(b) != 8*len(s) || math.Float64frombits(binary.NativeEndian.Uint64(b[8:])) != 2 {
		t.Fatalf("Bytes(s) is not s's memory")
	}
	if As[mf.Float64x4](s[:3]) != nil || Flat[mf.Float64x2](nil) != nil || Bytes(nil) != nil {
		t.Fatal("views of slabs shorter than one element must be nil")
	}
}
