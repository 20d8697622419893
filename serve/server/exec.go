package server

import (
	"fmt"

	"multifloats/internal/blas"
	"multifloats/mf"
	"multifloats/serve/internal/slab"
	"multifloats/serve/wire"
)

// Slab executors. Scalar batches are assembled as structure-of-arrays
// slabs (one contiguous plane per expansion component — see
// internal/blas/soa.go) and run through the generated multi-lane
// kernels, which run the internal/core gate networks gate for gate
// (mfprove checks the programs they are emitted from against core) —
// so a remote result is bit-identical to the corresponding in-process
// call no matter how requests were batched. The slab is split across
// the internal/blas worker pool.

// soaLaneOps maps the scalar wire ops onto the generated lane kernels.
// Adding a scalar op is one entry here (plus its blas.LaneOp constant
// and generator case); the executor below needs no change.
var soaLaneOps = [...]blas.LaneOp{
	wire.OpAdd:  blas.LaneOpAdd,
	wire.OpSub:  blas.LaneOpSub,
	wire.OpMul:  blas.LaneOpMul,
	wire.OpDiv:  blas.LaneOpDiv,
	wire.OpSqrt: blas.LaneOpSqrt,
}

// execSoASlab computes z[i] = op(x[i], y[i]) elementwise over count
// width-w expansions held in SoA planes (y is ignored for unary ops).
// op must be a validated scalar op (admission checks wire.Op.Scalar()).
func execSoASlab(op wire.Op, width int, x, y, z *blas.SoA, count, workers int) {
	if op.Math() {
		execMathSlab(op, width, x, y, z, count, workers)
		return
	}
	kern := blas.LaneKernel(soaLaneOps[op], width)
	blas.Parallel(count, workers, func(lo, hi int) {
		kern(x, y, z, lo, hi)
	})
}

// transcender is the elementary-function surface shared by the three
// expansion widths (mf/math.go); Atan2 is a package function, not a
// method, so the per-width loops below special-case it.
type transcender[E any] interface {
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

// applyMath dispatches one element through the mf scalar kernel for op.
func applyMath[E transcender[E]](op wire.Op, x, y E) E {
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
	panic(fmt.Sprintf("applyMath: unreachable op %v", op))
}

// execMathSlab is execSoASlab for the transcendental family. The mf
// kernels are scalar (no generated multi-lane transcription exists for
// them), so the slab is walked element by element; the work per element
// is hundreds of arithmetic ops, which keeps the loop overhead — and the
// AoS reassembly per element — noise. Results remain bit-identical to
// local mf calls: each element runs the exact same scalar code path.
func execMathSlab(op wire.Op, width int, x, y, z *blas.SoA, count, workers int) {
	blas.Parallel(count, workers, func(lo, hi int) {
		switch width {
		case 2:
			for i := lo; i < hi; i++ {
				a := mfF2{x[0][i], x[1][i]}
				var r mfF2
				if op == wire.OpAtan2 {
					r = mf.Atan2F2(a, mfF2{y[0][i], y[1][i]})
				} else if op.Unary() {
					r = applyMath(op, a, mfF2{})
				} else {
					r = applyMath(op, a, mfF2{y[0][i], y[1][i]})
				}
				z[0][i], z[1][i] = r[0], r[1]
			}
		case 3:
			for i := lo; i < hi; i++ {
				a := mfF3{x[0][i], x[1][i], x[2][i]}
				var r mfF3
				if op == wire.OpAtan2 {
					r = mf.Atan2F3(a, mfF3{y[0][i], y[1][i], y[2][i]})
				} else if op.Unary() {
					r = applyMath(op, a, mfF3{})
				} else {
					r = applyMath(op, a, mfF3{y[0][i], y[1][i], y[2][i]})
				}
				z[0][i], z[1][i], z[2][i] = r[0], r[1], r[2]
			}
		default:
			for i := lo; i < hi; i++ {
				a := mfF4{x[0][i], x[1][i], x[2][i], x[3][i]}
				var r mfF4
				if op == wire.OpAtan2 {
					r = mf.Atan2F4(a, mfF4{y[0][i], y[1][i], y[2][i], y[3][i]})
				} else if op.Unary() {
					r = applyMath(op, a, mfF4{})
				} else {
					r = applyMath(op, a, mfF4{y[0][i], y[1][i], y[2][i], y[3][i]})
				}
				z[0][i], z[1][i], z[2][i], z[3][i] = r[0], r[1], r[2], r[3]
			}
		}
	})
}

// execBlas runs a validated BLAS request on the specialized kernels —
// the same tiled/blocked paths the benchmarks measure — and returns the
// result slab. The kernels compute on expansion views of the decoded
// slabs (serve/internal/slab), which belong to this request alone: Axpy
// updates Y in place and answers with it, and Gemv/Gemm write into one
// fresh result slab. Determinism: each kernel's operation order is a
// pure function of (shape, workers), so a client comparing against a
// local call with the same worker count sees bit-identical results.
func execBlas(req *wire.Request, workers int) []float64 {
	switch req.Op {
	case wire.OpDot:
		switch req.Width {
		case 2:
			r := blas.DotF2Parallel(slab.As[mfF2](req.X), slab.As[mfF2](req.Y), workers)
			return r[:]
		case 3:
			r := blas.DotF3Parallel(slab.As[mfF3](req.X), slab.As[mfF3](req.Y), workers)
			return r[:]
		default:
			r := blas.DotF4Parallel(slab.As[mfF4](req.X), slab.As[mfF4](req.Y), workers)
			return r[:]
		}
	case wire.OpAxpy:
		switch req.Width {
		case 2:
			blas.AxpyF2Parallel([2]float64(req.Alpha), slab.As[mfF2](req.X), slab.As[mfF2](req.Y), workers)
		case 3:
			blas.AxpyF3Parallel([3]float64(req.Alpha), slab.As[mfF3](req.X), slab.As[mfF3](req.Y), workers)
		default:
			blas.AxpyF4Parallel([4]float64(req.Alpha), slab.As[mfF4](req.X), slab.As[mfF4](req.Y), workers)
		}
		return req.Y
	case wire.OpGemv:
		n, m := req.Count, req.M
		out := make([]float64, n*req.Width)
		switch req.Width {
		case 2:
			blas.GemvTiledF2Parallel(slab.As[mfF2](req.X), n, m, slab.As[mfF2](req.Y), slab.As[mfF2](out), workers)
		case 3:
			blas.GemvTiledF3Parallel(slab.As[mfF3](req.X), n, m, slab.As[mfF3](req.Y), slab.As[mfF3](out), workers)
		default:
			blas.GemvTiledF4Parallel(slab.As[mfF4](req.X), n, m, slab.As[mfF4](req.Y), slab.As[mfF4](out), workers)
		}
		return out
	case wire.OpGemm:
		n := req.Count
		out := make([]float64, n*n*req.Width)
		switch req.Width {
		case 2:
			blas.GemmBlockedF2Parallel(slab.As[mfF2](req.X), slab.As[mfF2](req.Y), slab.As[mfF2](out), n, workers)
		case 3:
			blas.GemmBlockedF3Parallel(slab.As[mfF3](req.X), slab.As[mfF3](req.Y), slab.As[mfF3](out), n, workers)
		default:
			blas.GemmBlockedF4Parallel(slab.As[mfF4](req.X), slab.As[mfF4](req.Y), slab.As[mfF4](out), n, workers)
		}
		return out
	}
	panic(fmt.Sprintf("execBlas: unreachable op %v", req.Op))
}
