package blas

// Bit-exactness tests for the generated SoA lane kernels: every kernel in
// the dispatch table must match the scalar internal/core networks
// bit-for-bit — NaN payloads included — on adversarial inputs (subnormal
// terms, -0 tails, NaN/Inf leads, zero divisors, negative radicands),
// because the serving tier's remote-vs-local reproducibility contract
// (§4.4) rests on this equivalence. A separate parallel-slab test drives
// the kernels through Parallel with prime counts and odd worker counts so
// `go test -race` sees the uneven-tail partitioning.

import (
	"math"
	"math/rand"
	"testing"

	"multifloats/internal/core"
)

// advSpecials are the §4.4 special values plus format-edge magnitudes.
var advSpecials = []float64{
	0, math.Copysign(0, -1),
	math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1040, -0x1p-1040, // subnormal-range magnitudes
	math.MaxFloat64, -math.MaxFloat64,
	1, -1, 0x1p-500, -0x1p500,
}

// advValue draws one adversarial component: a special value a third of
// the time, otherwise a random significand across ±300 binades.
func advValue(r *rand.Rand) float64 {
	if r.Intn(3) == 0 {
		return advSpecials[r.Intn(len(advSpecials))]
	}
	return (r.Float64()*2 - 1) * math.Ldexp(1, r.Intn(600)-300)
}

// advElem draws one width-n expansion. Most draws are structured: a lead
// term followed by descending-exponent tails (the layout real expansions
// have), with occasional -0 tails and special leads; the rest are raw
// adversarial components with no ordering invariant at all.
func advElem(r *rand.Rand, n int) []float64 {
	e := make([]float64, n)
	if r.Intn(4) == 0 {
		for j := range e {
			e[j] = advValue(r)
		}
		return e
	}
	e[0] = (r.Float64()*2 - 1) * math.Ldexp(1, r.Intn(400)-200)
	if r.Intn(8) == 0 {
		e[0] = advSpecials[r.Intn(len(advSpecials))]
	}
	for j := 1; j < n; j++ {
		e[j] = e[j-1] * math.Ldexp(r.Float64()*2-1, -50-r.Intn(20))
		if r.Intn(10) == 0 {
			e[j] = math.Copysign(0, -1)
		}
	}
	return e
}

// makeSoA lays count width-n elements out as component planes.
func makeSoA(elems [][]float64, n int) SoA {
	var s SoA
	for j := 0; j < n; j++ {
		s[j] = make([]float64, len(elems))
		for i, e := range elems {
			s[j][i] = e[j]
		}
	}
	return s
}

// coreRef computes one element through the scalar core network — the
// reference the lane kernels must reproduce exactly.
func coreRef(op LaneOp, n int, x, y []float64) []float64 {
	z := make([]float64, n)
	switch {
	case op == LaneOpAdd && n == 2:
		z[0], z[1] = core.Add2(x[0], x[1], y[0], y[1])
	case op == LaneOpAdd && n == 3:
		z[0], z[1], z[2] = core.Add3(x[0], x[1], x[2], y[0], y[1], y[2])
	case op == LaneOpAdd && n == 4:
		z[0], z[1], z[2], z[3] = core.Add4(x[0], x[1], x[2], x[3], y[0], y[1], y[2], y[3])
	case op == LaneOpSub && n == 2:
		z[0], z[1] = core.Sub2(x[0], x[1], y[0], y[1])
	case op == LaneOpSub && n == 3:
		z[0], z[1], z[2] = core.Sub3(x[0], x[1], x[2], y[0], y[1], y[2])
	case op == LaneOpSub && n == 4:
		z[0], z[1], z[2], z[3] = core.Sub4(x[0], x[1], x[2], x[3], y[0], y[1], y[2], y[3])
	case op == LaneOpMul && n == 2:
		z[0], z[1] = core.Mul2(x[0], x[1], y[0], y[1])
	case op == LaneOpMul && n == 3:
		z[0], z[1], z[2] = core.Mul3(x[0], x[1], x[2], y[0], y[1], y[2])
	case op == LaneOpMul && n == 4:
		z[0], z[1], z[2], z[3] = core.Mul4(x[0], x[1], x[2], x[3], y[0], y[1], y[2], y[3])
	case op == LaneOpDiv && n == 2:
		z[0], z[1] = core.Div2(x[0], x[1], y[0], y[1])
	case op == LaneOpDiv && n == 3:
		z[0], z[1], z[2] = core.Div3(x[0], x[1], x[2], y[0], y[1], y[2])
	case op == LaneOpDiv && n == 4:
		z[0], z[1], z[2], z[3] = core.Div4(x[0], x[1], x[2], x[3], y[0], y[1], y[2], y[3])
	case op == LaneOpSqrt && n == 2:
		z[0], z[1] = core.Sqrt2(x[0], x[1])
	case op == LaneOpSqrt && n == 3:
		z[0], z[1], z[2] = core.Sqrt3(x[0], x[1], x[2])
	case op == LaneOpSqrt && n == 4:
		z[0], z[1], z[2], z[3] = core.Sqrt4(x[0], x[1], x[2], x[3])
	}
	return z
}

var laneOpNames = map[LaneOp]string{
	LaneOpAdd: "add", LaneOpSub: "sub", LaneOpMul: "mul",
	LaneOpDiv: "div", LaneOpSqrt: "sqrt",
}

// advCase draws one (x, y) pair biased toward the op's hazard inputs:
// zero-lead divisors for div, negative and special radicands for sqrt.
func advCase(r *rand.Rand, op LaneOp, n int) (x, y []float64) {
	x, y = advElem(r, n), advElem(r, n)
	switch op {
	case LaneOpDiv:
		if r.Intn(4) == 0 {
			y[0] = advSpecials[r.Intn(5)] // ±0, ±Inf, NaN divisor leads
		}
	case LaneOpSqrt:
		if r.Intn(4) == 0 {
			x[0] = -math.Abs(x[0])
		}
	}
	return x, y
}

// TestLaneKernelsMatchCore drives every dispatch-table kernel over slab
// lengths straddling the LaneWidth unroll boundary (tails of every
// residue, plus multi-block counts) and demands bit identity with the
// scalar core networks on every component of every element.
func TestLaneKernelsMatchCore(t *testing.T) {
	counts := []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 33}
	for op, name := range laneOpNames {
		for n := 2; n <= 4; n++ {
			kern := LaneKernel(op, n)
			r := rand.New(rand.NewSource(int64(op)*100 + int64(n)))
			for _, count := range counts {
				xs := make([][]float64, count)
				ys := make([][]float64, count)
				for i := range xs {
					xs[i], ys[i] = advCase(r, op, n)
				}
				x, y, z := makeSoA(xs, n), makeSoA(ys, n), makeSoA(make([][]float64, count), 0)
				for j := 0; j < n; j++ {
					z[j] = make([]float64, count)
				}
				kern(&x, &y, &z, 0, count)
				for i := 0; i < count; i++ {
					want := coreRef(op, n, xs[i], ys[i])
					for j := 0; j < n; j++ {
						if math.Float64bits(z[j][i]) != math.Float64bits(want[j]) {
							t.Fatalf("%s%d count=%d elem=%d comp=%d: lane %#016x (%v), core %#016x (%v)\n  x=%v\n  y=%v",
								name, n, count, i, j,
								math.Float64bits(z[j][i]), z[j][i],
								math.Float64bits(want[j]), want[j], xs[i], ys[i])
						}
					}
				}
			}
		}
	}
}

// TestLaneKernelsParallelSlab runs each kernel over one shared slab split
// across workers by Parallel — the serving tier's exact execution shape —
// with a prime element count and odd worker counts so the range split has
// uneven tails. Run under -race this doubles as the data-race check that
// adjacent ranges never touch each other's elements; the bitwise compare
// against a serial pass proves the split is also value-invariant.
func TestLaneKernelsParallelSlab(t *testing.T) {
	const count = 1027
	for op, name := range laneOpNames {
		for n := 2; n <= 4; n++ {
			kern := LaneKernel(op, n)
			r := rand.New(rand.NewSource(int64(op)*1000 + int64(n)))
			xs := make([][]float64, count)
			ys := make([][]float64, count)
			for i := range xs {
				xs[i], ys[i] = advCase(r, op, n)
			}
			x, y := makeSoA(xs, n), makeSoA(ys, n)
			var serial SoA
			for j := 0; j < n; j++ {
				serial[j] = make([]float64, count)
			}
			kern(&x, &y, &serial, 0, count)
			for _, workers := range []int{2, 4, 7} {
				var z SoA
				for j := 0; j < n; j++ {
					z[j] = make([]float64, count)
				}
				Parallel(count, workers, func(lo, hi int) { kern(&x, &y, &z, lo, hi) })
				for j := 0; j < n; j++ {
					for i := 0; i < count; i++ {
						if math.Float64bits(z[j][i]) != math.Float64bits(serial[j][i]) {
							t.Fatalf("%s%d workers=%d comp=%d elem=%d: parallel %#016x, serial %#016x",
								name, n, workers, j, i,
								math.Float64bits(z[j][i]), math.Float64bits(serial[j][i]))
						}
					}
				}
			}
		}
	}
}

// TestLaneDispatchTable checks the dispatch surface the executors rely
// on: every (op, width) slot is populated and the unroll factor is the
// one the packers and benchmarks assume.
func TestLaneDispatchTable(t *testing.T) {
	if LaneWidth != 4 {
		t.Fatalf("LaneWidth = %d, want 4", LaneWidth)
	}
	for op := LaneOp(0); op < numLaneOps; op++ {
		for n := 2; n <= 4; n++ {
			if LaneKernel(op, n) == nil {
				t.Fatalf("LaneKernel(%d, %d) is nil", op, n)
			}
		}
	}
}
