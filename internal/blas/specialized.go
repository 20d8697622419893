package blas

import (
	"multifloats/internal/core"
	"multifloats/internal/eft"
	"multifloats/mf"
)

// Specialized MultiFloat kernels, generic only over the base type T with
// the expansion length fixed per function. These compile to direct calls
// into the flattened internal/core primitives — the Go analogue of the
// paper's fully instantiated MultiFloat<T,N> templates — and avoid the
// dictionary-based method dispatch that the constraint-generic kernels in
// blas.go pay (a 5–10× penalty measured on the 2-term kernels; see
// EXPERIMENTS.md). The generic kernels remain the reference
// implementation; TestSpecializedMatchesGeneric pins them together.

// ---- 2-term ----

// AxpyF2 computes y[i] += alpha·x[i] on 2-term expansions.
func AxpyF2[T eft.Float](alpha mf.F2[T], x, y []mf.F2[T]) {
	a0, a1 := alpha[0], alpha[1]
	for i := range x {
		p0, p1 := core.Mul2(a0, a1, x[i][0], x[i][1])
		z0, z1 := core.Add2(y[i][0], y[i][1], p0, p1)
		y[i] = mf.F2[T]{z0, z1}
	}
}

// DotF2 returns Σ x[i]·y[i] on 2-term expansions.
func DotF2[T eft.Float](x, y []mf.F2[T]) mf.F2[T] {
	var s0, s1 T
	for i := range x {
		p0, p1 := core.Mul2(x[i][0], x[i][1], y[i][0], y[i][1])
		s0, s1 = core.Add2(s0, s1, p0, p1)
	}
	return mf.F2[T]{s0, s1}
}

// GemvF2 computes y = A·x (row-major n×m) on 2-term expansions.
func GemvF2[T eft.Float](a []mf.F2[T], n, m int, x, y []mf.F2[T]) {
	for i := 0; i < n; i++ {
		y[i] = DotF2(a[i*m:(i+1)*m], x)
	}
}

// GemmF2 computes C += A·B (ikj order) on 2-term expansions.
func GemmF2[T eft.Float](a, b, c []mf.F2[T], n int) {
	for i := 0; i < n; i++ {
		ci := c[i*n : (i+1)*n]
		for k := 0; k < n; k++ {
			e0, e1 := a[i*n+k][0], a[i*n+k][1]
			bk := b[k*n : (k+1)*n]
			for j := 0; j < n; j++ {
				p0, p1 := core.Mul2(e0, e1, bk[j][0], bk[j][1])
				z0, z1 := core.Add2(ci[j][0], ci[j][1], p0, p1)
				ci[j] = mf.F2[T]{z0, z1}
			}
		}
	}
}

// ---- 3-term ----

// AxpyF3 computes y[i] += alpha·x[i] on 3-term expansions.
func AxpyF3[T eft.Float](alpha mf.F3[T], x, y []mf.F3[T]) {
	a0, a1, a2 := alpha[0], alpha[1], alpha[2]
	for i := range x {
		p0, p1, p2 := core.Mul3(a0, a1, a2, x[i][0], x[i][1], x[i][2])
		z0, z1, z2 := core.Add3(y[i][0], y[i][1], y[i][2], p0, p1, p2)
		y[i] = mf.F3[T]{z0, z1, z2}
	}
}

// DotF3 returns Σ x[i]·y[i] on 3-term expansions.
func DotF3[T eft.Float](x, y []mf.F3[T]) mf.F3[T] {
	var s0, s1, s2 T
	for i := range x {
		p0, p1, p2 := core.Mul3(x[i][0], x[i][1], x[i][2], y[i][0], y[i][1], y[i][2])
		s0, s1, s2 = core.Add3(s0, s1, s2, p0, p1, p2)
	}
	return mf.F3[T]{s0, s1, s2}
}

// GemvF3 computes y = A·x (row-major n×m) on 3-term expansions.
func GemvF3[T eft.Float](a []mf.F3[T], n, m int, x, y []mf.F3[T]) {
	for i := 0; i < n; i++ {
		y[i] = DotF3(a[i*m:(i+1)*m], x)
	}
}

// GemmF3 computes C += A·B (ikj order) on 3-term expansions.
func GemmF3[T eft.Float](a, b, c []mf.F3[T], n int) {
	for i := 0; i < n; i++ {
		ci := c[i*n : (i+1)*n]
		for k := 0; k < n; k++ {
			e0, e1, e2 := a[i*n+k][0], a[i*n+k][1], a[i*n+k][2]
			bk := b[k*n : (k+1)*n]
			for j := 0; j < n; j++ {
				p0, p1, p2 := core.Mul3(e0, e1, e2, bk[j][0], bk[j][1], bk[j][2])
				z0, z1, z2 := core.Add3(ci[j][0], ci[j][1], ci[j][2], p0, p1, p2)
				ci[j] = mf.F3[T]{z0, z1, z2}
			}
		}
	}
}

// ---- 4-term ----

// AxpyF4 computes y[i] += alpha·x[i] on 4-term expansions.
func AxpyF4[T eft.Float](alpha mf.F4[T], x, y []mf.F4[T]) {
	a0, a1, a2, a3 := alpha[0], alpha[1], alpha[2], alpha[3]
	for i := range x {
		p0, p1, p2, p3 := core.Mul4(a0, a1, a2, a3, x[i][0], x[i][1], x[i][2], x[i][3])
		z0, z1, z2, z3 := core.Add4(y[i][0], y[i][1], y[i][2], y[i][3], p0, p1, p2, p3)
		y[i] = mf.F4[T]{z0, z1, z2, z3}
	}
}

// DotF4 returns Σ x[i]·y[i] on 4-term expansions.
func DotF4[T eft.Float](x, y []mf.F4[T]) mf.F4[T] {
	var s0, s1, s2, s3 T
	for i := range x {
		p0, p1, p2, p3 := core.Mul4(x[i][0], x[i][1], x[i][2], x[i][3], y[i][0], y[i][1], y[i][2], y[i][3])
		s0, s1, s2, s3 = core.Add4(s0, s1, s2, s3, p0, p1, p2, p3)
	}
	return mf.F4[T]{s0, s1, s2, s3}
}

// GemvF4 computes y = A·x (row-major n×m) on 4-term expansions.
func GemvF4[T eft.Float](a []mf.F4[T], n, m int, x, y []mf.F4[T]) {
	for i := 0; i < n; i++ {
		y[i] = DotF4(a[i*m:(i+1)*m], x)
	}
}

// GemmF4 computes C += A·B (ikj order) on 4-term expansions.
func GemmF4[T eft.Float](a, b, c []mf.F4[T], n int) {
	for i := 0; i < n; i++ {
		ci := c[i*n : (i+1)*n]
		for k := 0; k < n; k++ {
			e0, e1, e2, e3 := a[i*n+k][0], a[i*n+k][1], a[i*n+k][2], a[i*n+k][3]
			bk := b[k*n : (k+1)*n]
			for j := 0; j < n; j++ {
				p0, p1, p2, p3 := core.Mul4(e0, e1, e2, e3, bk[j][0], bk[j][1], bk[j][2], bk[j][3])
				z0, z1, z2, z3 := core.Add4(ci[j][0], ci[j][1], ci[j][2], ci[j][3], p0, p1, p2, p3)
				ci[j] = mf.F4[T]{z0, z1, z2, z3}
			}
		}
	}
}

// ---- parallel wrappers ----

// AxpyF2Parallel splits AxpyF2 across workers.
func AxpyF2Parallel[T eft.Float](alpha mf.F2[T], x, y []mf.F2[T], workers int) {
	parallelRows(len(x), workers, func(lo, hi int) { AxpyF2(alpha, x[lo:hi], y[lo:hi]) })
}

// AxpyF3Parallel splits AxpyF3 across workers.
func AxpyF3Parallel[T eft.Float](alpha mf.F3[T], x, y []mf.F3[T], workers int) {
	parallelRows(len(x), workers, func(lo, hi int) { AxpyF3(alpha, x[lo:hi], y[lo:hi]) })
}

// AxpyF4Parallel splits AxpyF4 across workers.
func AxpyF4Parallel[T eft.Float](alpha mf.F4[T], x, y []mf.F4[T], workers int) {
	parallelRows(len(x), workers, func(lo, hi int) { AxpyF4(alpha, x[lo:hi], y[lo:hi]) })
}

// DotF2Parallel is DotF2 with per-worker partial sums.
func DotF2Parallel[T eft.Float](x, y []mf.F2[T], workers int) mf.F2[T] {
	return dotParallelN(len(x), workers,
		func(lo, hi int) mf.F2[T] { return DotF2(x[lo:hi], y[lo:hi]) },
		func(a, b mf.F2[T]) mf.F2[T] { return a.Add(b) }, mf.F2[T]{})
}

// DotF3Parallel is DotF3 with per-worker partial sums.
func DotF3Parallel[T eft.Float](x, y []mf.F3[T], workers int) mf.F3[T] {
	return dotParallelN(len(x), workers,
		func(lo, hi int) mf.F3[T] { return DotF3(x[lo:hi], y[lo:hi]) },
		func(a, b mf.F3[T]) mf.F3[T] { return a.Add(b) }, mf.F3[T]{})
}

// DotF4Parallel is DotF4 with per-worker partial sums.
func DotF4Parallel[T eft.Float](x, y []mf.F4[T], workers int) mf.F4[T] {
	return dotParallelN(len(x), workers,
		func(lo, hi int) mf.F4[T] { return DotF4(x[lo:hi], y[lo:hi]) },
		func(a, b mf.F4[T]) mf.F4[T] { return a.Add(b) }, mf.F4[T]{})
}

// ---- native base-type kernels (the 53-bit / 24-bit rows) ----

// AxpyNative computes y[i] += alpha·x[i] on the native base type.
func AxpyNative[T eft.Float](alpha T, x, y []T, workers int) {
	parallelRows(len(x), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			y[i] += alpha * x[i] //mf:allow fpcontract -- native-precision baseline kernel: it makes no error-compensation claim, and contraction can only tighten its result
		}
	})
}

// DotNative returns Σ x[i]·y[i] on the native base type.
func DotNative[T eft.Float](x, y []T, workers int) T {
	return dotParallelN(len(x), workers, func(lo, hi int) T {
		var s T
		for i := lo; i < hi; i++ {
			s += x[i] * y[i] //mf:allow fpcontract -- native-precision baseline kernel: it makes no error-compensation claim, and contraction can only tighten its result
		}
		return s
	}, func(a, b T) T { return a + b }, 0)
}

// GemvNative computes y = A·x on the native base type.
func GemvNative[T eft.Float](a []T, n, m int, x, y []T, workers int) {
	parallelRows(n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			var s T
			row := a[i*m : (i+1)*m]
			for j := 0; j < m; j++ {
				s += row[j] * x[j] //mf:allow fpcontract -- native-precision baseline kernel: it makes no error-compensation claim, and contraction can only tighten its result
			}
			y[i] = s
		}
	})
}

// GemmNative computes C += A·B (ikj) on the native base type.
func GemmNative[T eft.Float](a, b, c []T, n, workers int) {
	parallelRows(n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ci := c[i*n : (i+1)*n]
			for k := 0; k < n; k++ {
				aik := a[i*n+k]
				bk := b[k*n : (k+1)*n]
				for j := 0; j < n; j++ {
					ci[j] += aik * bk[j] //mf:allow fpcontract -- native-precision baseline kernel: it makes no error-compensation claim, and contraction can only tighten its result
				}
			}
		}
	})
}
