package wire

import (
	"bytes"
	"math"
	"testing"
	"time"

	"multifloats/internal/diffuzz"
	"multifloats/mf"
)

// Property test: every encodable expansion survives encode→frame→decode
// bit-exactly. The operand streams come from internal/diffuzz's
// adversarial generators — in-threshold cancellation ladders, edge
// expansions (subnormal terms, near-overflow leads, huge inter-term
// gaps, -0 tails from negative residues), and the §4.4 special leading
// values (NaN, ±Inf, -0) — so the wire layer is exercised on exactly the
// inputs the conformance harness knows to be hard.

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestWireRoundTripProperty(t *testing.T) {
	g := diffuzz.NewGen(0x31337)
	// Unary, binary, and atan2 math shapes ride the Scalar arm below.
	ops := []Op{OpAdd, OpSub, OpMul, OpDiv, OpSqrt, OpAxpy, OpDot, OpGemm,
		OpExp, OpSin, OpCbrt, OpPow, OpAtan2, OpHypot}
	var buf bytes.Buffer

	for iter := 0; iter < 4000; iter++ {
		width := 2 + iter%3
		op := ops[iter%len(ops)]

		// Mix the three generator regimes, plus special leading values.
		draw := func() []float64 {
			switch iter % 4 {
			case 0:
				return g.Expansion(width, 300)
			case 1:
				return g.EdgeExpansion(width)
			case 2:
				x := g.Expansion(width, 60)
				x[0] = g.SpecialValue()
				return x
			default:
				x := g.EdgeExpansion(width)
				// Force a -0 tail term, the PR-2 encoding regression.
				x[width-1] = math.Copysign(0, -1)
				return x
			}
		}

		count := 1 + iter%5
		var req Request
		switch {
		case op.Scalar():
			req = Request{Op: op, Width: width, Count: count}
			for i := 0; i < count; i++ {
				req.X = append(req.X, draw()...)
				if !op.Unary() {
					req.Y = append(req.Y, draw()...)
				}
			}
		case op == OpAxpy || op == OpDot:
			req = Request{Op: op, Width: width, Count: count}
			for i := 0; i < count; i++ {
				req.X = append(req.X, draw()...)
				req.Y = append(req.Y, draw()...)
			}
			if op == OpAxpy {
				req.Alpha = draw()
			}
		case op == OpGemm:
			req = Request{Op: op, Width: width, Count: count}
			for i := 0; i < count*count; i++ {
				req.X = append(req.X, draw()...)
				req.Y = append(req.Y, draw()...)
			}
		}
		req.ID = uint64(iter)
		if iter%3 == 0 {
			req.Deadline = time.Unix(0, int64(1e18)+int64(iter))
		}
		if err := req.Validate(); err != nil {
			t.Fatalf("iter %d: generated invalid request: %v", iter, err)
		}

		buf.Reset()
		if err := WriteRequest(&buf, &req); err != nil {
			t.Fatalf("iter %d: WriteRequest: %v", iter, err)
		}
		got, err := ReadRequest(&buf)
		if err != nil {
			t.Fatalf("iter %d: ReadRequest: %v", iter, err)
		}
		if !bitsEqual(got.X, req.X) || !bitsEqual(got.Y, req.Y) || !bitsEqual(got.Alpha, req.Alpha) {
			t.Fatalf("iter %d: %s width=%d: slab not bit-identical after round trip", iter, op, width)
		}
		if !got.Deadline.Equal(req.Deadline) {
			t.Fatalf("iter %d: deadline %v → %v", iter, req.Deadline, got.Deadline)
		}

		// Responses carry the same component encoding; spot-check with the
		// X slab as payload.
		buf.Reset()
		resp := Response{ID: req.ID, Status: StatusOK, Data: req.X}
		if err := WriteResponse(&buf, &resp); err != nil {
			t.Fatalf("iter %d: WriteResponse: %v", iter, err)
		}
		rgot, err := ReadResponse(&buf)
		if err != nil {
			t.Fatalf("iter %d: ReadResponse: %v", iter, err)
		}
		if !bitsEqual(rgot.Data, resp.Data) {
			t.Fatalf("iter %d: response data not bit-identical", iter)
		}
	}
}

// TestPackUnpackBitExact pins the slab reshapes as lossless, including on
// special values, and as copies: writing to a result leaves its input
// unchanged.
func TestPackUnpackBitExact(t *testing.T) {
	g := diffuzz.NewGen(7)
	v2 := make([]mf.Float64x2, 64)
	v3 := make([]mf.Float64x3, 64)
	v4 := make([]mf.Float64x4, 64)
	for i := range v2 {
		copy(v2[i][:], g.EdgeExpansion(2))
		copy(v3[i][:], g.EdgeExpansion(3))
		copy(v4[i][:], g.EdgeExpansion(4))
		if i%8 == 0 {
			v2[i][0] = g.SpecialValue()
			v3[i][1] = math.Copysign(0, -1)
			v4[i][3] = g.SpecialValue()
		}
	}
	for i, got := range Unpack2(Pack2(v2)) {
		if math.Float64bits(got[0]) != math.Float64bits(v2[i][0]) ||
			math.Float64bits(got[1]) != math.Float64bits(v2[i][1]) {
			t.Fatalf("Unpack2(Pack2) not bit-exact at %d", i)
		}
	}
	for i, got := range Unpack3(Pack3(v3)) {
		for k := 0; k < 3; k++ {
			if math.Float64bits(got[k]) != math.Float64bits(v3[i][k]) {
				t.Fatalf("Unpack3(Pack3) not bit-exact at %d[%d]", i, k)
			}
		}
	}
	for i, got := range Unpack4(Pack4(v4)) {
		for k := 0; k < 4; k++ {
			if math.Float64bits(got[k]) != math.Float64bits(v4[i][k]) {
				t.Fatalf("Unpack4(Pack4) not bit-exact at %d[%d]", i, k)
			}
		}
	}
	// Copies, not views: writing to a result leaves its input unchanged.
	p2, p3, p4 := Pack2(v2), Pack3(v3), Pack4(v4)
	for _, p := range [][]float64{Pack2(v2), Pack3(v3), Pack4(v4)} {
		for i := range p {
			p[i] = 42
		}
	}
	if !bitsEqual(Pack2(v2), p2) || !bitsEqual(Pack3(v3), p3) || !bitsEqual(Pack4(v4), p4) {
		t.Fatal("writing to a Pack result changed its input")
	}
	u2, u3, u4 := Unpack2(p2), Unpack3(p3), Unpack4(p4)
	for i := range u2 {
		u2[i][0], u3[i][1], u4[i][3] = 42, 42, 42
	}
	if !bitsEqual(p2, Pack2(v2)) || !bitsEqual(p3, Pack3(v3)) || !bitsEqual(p4, Pack4(v4)) {
		t.Fatal("writing to an Unpack result changed its input")
	}
}
