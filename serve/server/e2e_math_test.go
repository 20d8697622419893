package server_test

// End-to-end loopback coverage for the transcendental op family
// (wire.OpExp..OpHypot): every op at every width, driven concurrently so
// the lane scheduler actually coalesces across requests, with each
// remote result compared bit-for-bit against the corresponding local mf
// call. The math kernels are scalar and elementwise, so parity must hold
// at any worker count and any batching seam — including the §4.4
// special-value collapse states and the Payne–Hanek huge-argument trig
// path.

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"multifloats/internal/diffuzz"
	"multifloats/mf"
	"multifloats/serve/client"
	"multifloats/serve/server"
	"multifloats/serve/wire"
)

// mathOps walks the contiguous transcendental op block.
func mathOps() []wire.Op {
	var ops []wire.Op
	for op := wire.OpExp; op <= wire.OpHypot; op++ {
		ops = append(ops, op)
	}
	return ops
}

// transcendental mirrors the mf elementary-function surface so the test
// can compute the local reference generically (an independent dispatch
// from the server's own, which doubles as a drift guard).
type transcendental[E any] interface {
	Exp() E
	Expm1() E
	Exp2() E
	Log() E
	Log1p() E
	Log2() E
	Log10() E
	Sin() E
	Cos() E
	Tan() E
	Asin() E
	Acos() E
	Atan() E
	Sinh() E
	Cosh() E
	Tanh() E
	Cbrt() E
	Pow(E) E
	Hypot(E) E
}

func localMath[E transcendental[E]](op wire.Op, x, y E) E {
	switch op {
	case wire.OpExp:
		return x.Exp()
	case wire.OpExpm1:
		return x.Expm1()
	case wire.OpExp2:
		return x.Exp2()
	case wire.OpLog:
		return x.Log()
	case wire.OpLog1p:
		return x.Log1p()
	case wire.OpLog2:
		return x.Log2()
	case wire.OpLog10:
		return x.Log10()
	case wire.OpSin:
		return x.Sin()
	case wire.OpCos:
		return x.Cos()
	case wire.OpTan:
		return x.Tan()
	case wire.OpAsin:
		return x.Asin()
	case wire.OpAcos:
		return x.Acos()
	case wire.OpAtan:
		return x.Atan()
	case wire.OpSinh:
		return x.Sinh()
	case wire.OpCosh:
		return x.Cosh()
	case wire.OpTanh:
		return x.Tanh()
	case wire.OpCbrt:
		return x.Cbrt()
	case wire.OpPow:
		return x.Pow(y)
	case wire.OpHypot:
		return x.Hypot(y)
	}
	panic("localMath: not a math op")
}

func localMath2(op wire.Op, x, y mf.Float64x2) mf.Float64x2 {
	if op == wire.OpAtan2 {
		return mf.Atan2F2(x, y)
	}
	return localMath(op, x, y)
}

func localMath3(op wire.Op, x, y mf.Float64x3) mf.Float64x3 {
	if op == wire.OpAtan2 {
		return mf.Atan2F3(x, y)
	}
	return localMath(op, x, y)
}

func localMath4(op wire.Op, x, y mf.Float64x4) mf.Float64x4 {
	if op == wire.OpAtan2 {
		return mf.Atan2F4(x, y)
	}
	return localMath(op, x, y)
}

// mathLead picks an adversarial-but-interesting lead exponent band per
// op family: wide bands drive exp/log/pow through their overflow and
// NaN screens (parity must hold there too — both sides collapse), while
// trig gets huge leads to exercise Payne–Hanek over the wire.
func mathLead(op wire.Op, it int) int {
	switch op {
	case wire.OpExp, wire.OpExpm1, wire.OpExp2, wire.OpSinh, wire.OpCosh:
		return 9
	case wire.OpSin, wire.OpCos, wire.OpTan:
		if it%2 == 0 {
			return 600 // Payne–Hanek range
		}
		return 8
	case wire.OpPow:
		return 3
	default:
		return 200
	}
}

// TestE2EMathBitExactParity drives every transcendental op at every
// width from concurrent goroutines (so lanes coalesce) and demands
// bit-identical results to in-process mf calls. The server runs with
// full worker parallelism: elementwise math must not care how slabs
// split.
func TestE2EMathBitExactParity(t *testing.T) {
	_, c := startE2E(t, server.Config{
		BatchWindow: 100 * time.Microsecond,
		MaxBatch:    64,
	})
	ctx := context.Background()

	const goroutines = 6
	const iters = 6
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			gen := diffuzz.NewGen(int64(7000 + g))
			for it := 0; it < iters; it++ {
				for _, op := range mathOps() {
					if err := mathParityRound(ctx, c, gen, op, it); err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func mathParityRound(ctx context.Context, c *client.Client, gen *diffuzz.Gen, op wire.Op, it int) error {
	lead := mathLead(op, it)

	var x2, y2 mf.Float64x2
	copy(x2[:], gen.Expansion(2, lead))
	copy(y2[:], gen.Expansion(2, lead))
	got2, err := client.Scalar(ctx, c, op, x2, y2)
	if err != nil {
		return fmt.Errorf("Math2(%s): %w", op, err)
	}
	if want := localMath2(op, x2, y2); !eq(got2, want) {
		return fmt.Errorf("Math2(%s) parity: x=%v y=%v got=%v want=%v", op, x2, y2, got2, want)
	}

	var x3, y3 mf.Float64x3
	copy(x3[:], gen.Expansion(3, lead))
	copy(y3[:], gen.Expansion(3, lead))
	got3, err := client.Scalar(ctx, c, op, x3, y3)
	if err != nil {
		return fmt.Errorf("Math3(%s): %w", op, err)
	}
	if want := localMath3(op, x3, y3); !eq(got3, want) {
		return fmt.Errorf("Math3(%s) parity: x=%v y=%v got=%v want=%v", op, x3, y3, got3, want)
	}

	var x4, y4 mf.Float64x4
	copy(x4[:], gen.Expansion(4, lead))
	copy(y4[:], gen.Expansion(4, lead))
	got4, err := client.Scalar(ctx, c, op, x4, y4)
	if err != nil {
		return fmt.Errorf("Math4(%s): %w", op, err)
	}
	if want := localMath4(op, x4, y4); !eq(got4, want) {
		return fmt.Errorf("Math4(%s) parity: x=%v y=%v got=%v want=%v", op, x4, y4, got4, want)
	}
	return nil
}

// TestE2EMathSliceParity sends whole vectors through one request per op
// and checks elementwise bit parity, covering the slab gather/scatter
// seams for both unary and binary math ops.
func TestE2EMathSliceParity(t *testing.T) {
	_, c := startE2E(t, server.Config{})
	ctx := context.Background()
	gen := diffuzz.NewGen(0x3a7)
	const n = 97 // odd length: exercises uneven Parallel splits
	for _, op := range mathOps() {
		xs := make([]mf.Float64x3, n)
		ys := make([]mf.Float64x3, n)
		for i := range xs {
			copy(xs[i][:], gen.Expansion(3, mathLead(op, i)))
			copy(ys[i][:], gen.Expansion(3, mathLead(op, i)))
		}
		got, err := client.Elementwise(ctx, c, op, xs, ys)
		if err != nil {
			t.Fatalf("MathSlice3(%s): %v", op, err)
		}
		for i := range xs {
			if want := localMath3(op, xs[i], ys[i]); !eq(got[i], want) {
				t.Fatalf("MathSlice3(%s)[%d]: got %v want %v", op, i, got[i], want)
			}
		}
	}
}

// TestE2EMathSpecialValues: the §4.4 collapse states survive the wire
// for the math family — a remote NaN/Inf/±0 operand produces exactly
// the local collapse result, bitwise.
func TestE2EMathSpecialValues(t *testing.T) {
	_, c := startE2E(t, server.Config{})
	ctx := context.Background()
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1, -1}
	for _, op := range mathOps() {
		for _, sx := range specials {
			for _, sy := range specials {
				x := mf.Float64x2{sx, 0}
				y := mf.Float64x2{sy, 0}
				got, err := client.Scalar(ctx, c, op, x, y)
				if err != nil {
					t.Fatalf("Math2(%s, %v, %v): %v", op, sx, sy, err)
				}
				want := localMath2(op, x, y)
				if !eq(got, want) {
					t.Fatalf("Math2(%s, %v, %v): got %v want %v", op, sx, sy, got, want)
				}
			}
		}
	}
}

// TestE2EMathHugeTrigArgs pins the Payne–Hanek reduction through the
// wire: sin/cos/tan of the classic worst-case double and of arguments
// up to |x| ≈ 1e300 must be bit-identical to local evaluation.
func TestE2EMathHugeTrigArgs(t *testing.T) {
	_, c := startE2E(t, server.Config{})
	ctx := context.Background()
	args := []float64{
		math.Ldexp(6381956970095103, 797), // closest double to a multiple of π/2
		1e300, -1e300, 1e22, 5e250,
	}
	for _, op := range []wire.Op{wire.OpSin, wire.OpCos, wire.OpTan} {
		for _, a := range args {
			x := mf.Float64x4{a, 0, 0, 0}
			got, err := client.Scalar(ctx, c, op, x, mf.Float64x4{})
			if err != nil {
				t.Fatalf("Math4(%s, %g): %v", op, a, err)
			}
			want := localMath4(op, x, mf.Float64x4{})
			if !eq(got, want) {
				t.Fatalf("Math4(%s, %g): got %v want %v", op, a, got, want)
			}
		}
	}
}
