// Package blas implements the four extended-precision BLAS kernels of the
// paper's evaluation (§5) — AXPY, DOT, GEMV, GEMM — generically over any
// arithmetic type, plus parallel variants that mirror the paper's OpenMP
// parallelization. Loop orders follow the paper: ij for GEMV and ikj for
// GEMM.
//
// Kernels are generic over the Arith constraint; Go instantiates them per
// concrete element type, so MultiFloat kernels compile to direct calls into
// the branch-free internal/core primitives with no interface dispatch.
package blas

import (
	"runtime"
)

// Arith is the element-type contract: value-semantics addition and
// multiplication. All arithmetic types in this repository (mf.F2/F3/F4,
// qd.DD, qd.QD, campary.Expansion, and the adapters in adapters.go)
// satisfy it.
type Arith[E any] interface {
	Add(E) E
	Mul(E) E
}

// Axpy computes y[i] += alpha·x[i] in place.
func Axpy[E Arith[E]](alpha E, x, y []E) {
	for i := range x {
		y[i] = y[i].Add(alpha.Mul(x[i]))
	}
}

// Dot returns Σ x[i]·y[i], accumulating left to right from zero.
func Dot[E Arith[E]](zero E, x, y []E) E {
	s := zero
	for i := range x {
		s = s.Add(x[i].Mul(y[i]))
	}
	return s
}

// Gemv computes y = A·x for a row-major n×m matrix A (ij loop order).
func Gemv[E Arith[E]](zero E, a []E, n, m int, x, y []E) {
	for i := 0; i < n; i++ {
		s := zero
		row := a[i*m : (i+1)*m]
		for j := 0; j < m; j++ {
			s = s.Add(row[j].Mul(x[j]))
		}
		y[i] = s
	}
}

// Gemm computes C += A·B for row-major n×n matrices (ikj loop order, the
// paper's choice: the inner loop streams one row of B and one row of C).
func Gemm[E Arith[E]](a, b, c []E, n int) {
	for i := 0; i < n; i++ {
		ci := c[i*n : (i+1)*n]
		for k := 0; k < n; k++ {
			aik := a[i*n+k]
			bk := b[k*n : (k+1)*n]
			for j := 0; j < n; j++ {
				ci[j] = ci[j].Add(aik.Mul(bk[j]))
			}
		}
	}
}

// Workers returns the worker count used by the parallel kernels.
func Workers() int { return runtime.GOMAXPROCS(0) }

// AxpyParallel is Axpy split across workers.
func AxpyParallel[E Arith[E]](alpha E, x, y []E, workers int) {
	parallelRows(len(x), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			y[i] = y[i].Add(alpha.Mul(x[i]))
		}
	})
}

// DotParallel is Dot with per-worker partial sums reduced sequentially
// (deterministic reduction order for reproducibility). It shares the
// dotParallelN skeleton with the specialized kernels.
func DotParallel[E Arith[E]](zero E, x, y []E, workers int) E {
	return dotParallelN(len(x), workers,
		func(lo, hi int) E { return Dot(zero, x[lo:hi], y[lo:hi]) },
		func(a, b E) E { return a.Add(b) }, zero)
}

// GemvParallel splits GEMV rows across workers.
func GemvParallel[E Arith[E]](zero E, a []E, n, m int, x, y []E, workers int) {
	parallelRows(n, workers, func(lo, hi int) {
		Gemv(zero, a[lo*m:hi*m], hi-lo, m, x, y[lo:hi])
	})
}

// GemmParallel splits GEMM's i loop across workers.
func GemmParallel[E Arith[E]](a, b, c []E, n, workers int) {
	parallelRows(n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ci := c[i*n : (i+1)*n]
			for k := 0; k < n; k++ {
				aik := a[i*n+k]
				bk := b[k*n : (k+1)*n]
				for j := 0; j < n; j++ {
					ci[j] = ci[j].Add(aik.Mul(bk[j]))
				}
			}
		}
	})
}
