package client

import (
	"context"
	"fmt"
	"slices"

	"multifloats/mf"
	"multifloats/serve/internal/slab"
	"multifloats/serve/wire"
)

// Typed calls mirroring the mf and blas packages, written once for
// every width as mf's F2/F3/F4 are: the expansion width is the type
// argument's. Scalar costs one round trip per value, and the server's
// scheduler coalesces concurrent ones into shared slab executions;
// Elementwise applies an op to whole vectors in one request and is the
// preferred shape for bulk work. Results are bit-identical to the
// corresponding local call: the server runs the same kernels.
//
// Operands are sent as copies: a scalar frame waits in the multiplexed
// connection's queue, and may be written after its call has timed out
// and its caller has reused the memory. Results are views of the
// call's own decoded response slab, which nothing else holds.

// Expansion is the element type of the typed calls.
type Expansion interface {
	mf.Float64x2 | mf.Float64x3 | mf.Float64x4
}

// Scalar returns op(x, y) for one expansion, computed remotely. op is
// any elementwise op (wire.Op.Scalar), arithmetic or transcendental; a
// unary one ignores y. wire.OpAtan2 takes the y-coordinate as x,
// matching mf.Atan2F2(y, x), and wire.OpPow's x is the base.
func Scalar[E Expansion](ctx context.Context, c *Client, op wire.Op, x, y E) (E, error) {
	return first(Elementwise(ctx, c, op, []E{x}, []E{y}))
}

// Elementwise returns op(x[i], y[i]) for every i in one request. op is
// as for Scalar; a unary op ignores y.
func Elementwise[E Expansion](ctx context.Context, c *Client, op wire.Op, x, y []E) ([]E, error) {
	if !op.Scalar() {
		return nil, fmt.Errorf("%w: %v is not an elementwise op", ErrBadRequest, op)
	}
	var ys []float64
	if !op.Unary() {
		if len(y) != len(x) {
			return nil, fmt.Errorf("%w: operand lengths %d and %d differ", ErrBadRequest, len(x), len(y))
		}
		ys = operand(y)
	}
	return call[E](ctx, c, &wire.Request{Op: op, Width: slab.Width[E](), Count: len(x), X: operand(x), Y: ys})
}

// Axpy returns y + alpha·x elementwise, the remote blas.AxpyF2Parallel
// (or F3, F4).
func Axpy[E Expansion](ctx context.Context, c *Client, alpha E, x, y []E) ([]E, error) {
	if len(x) != len(y) {
		return nil, fmt.Errorf("%w: axpy operand lengths %d and %d differ", ErrBadRequest, len(x), len(y))
	}
	return call[E](ctx, c, &wire.Request{Op: wire.OpAxpy, Width: slab.Width[E](), Count: len(x),
		Alpha: slab.Flat([]E{alpha}), X: operand(x), Y: operand(y)})
}

// Dot returns Σ x[i]·y[i], the remote blas.DotF2Parallel (or F3, F4).
func Dot[E Expansion](ctx context.Context, c *Client, x, y []E) (E, error) {
	if len(x) != len(y) {
		return first[E](nil, fmt.Errorf("%w: dot operand lengths %d and %d differ", ErrBadRequest, len(x), len(y)))
	}
	return first(call[E](ctx, c, &wire.Request{Op: wire.OpDot, Width: slab.Width[E](), Count: len(x),
		X: operand(x), Y: operand(y)}))
}

// Gemv returns A·x for a row-major n×m matrix A.
func Gemv[E Expansion](ctx context.Context, c *Client, a []E, n, m int, x []E) ([]E, error) {
	if len(a) != n*m || len(x) != m {
		return nil, fmt.Errorf("%w: gemv shape a=%d x=%d, want %d/%d", ErrBadRequest, len(a), len(x), n*m, m)
	}
	return call[E](ctx, c, &wire.Request{Op: wire.OpGemv, Width: slab.Width[E](), Count: n, M: m,
		X: operand(a), Y: operand(x)})
}

// Gemm returns A·B for row-major n×n matrices (the remote blocked
// GEMM).
func Gemm[E Expansion](ctx context.Context, c *Client, a, b []E, n int) ([]E, error) {
	if len(a) != n*n || len(b) != n*n {
		return nil, fmt.Errorf("%w: gemm shape a=%d b=%d, want %d", ErrBadRequest, len(a), len(b), n*n)
	}
	return call[E](ctx, c, &wire.Request{Op: wire.OpGemm, Width: slab.Width[E](), Count: n,
		X: operand(a), Y: operand(b)})
}

// operand returns a copy of v's component slab.
func operand[E Expansion](v []E) []float64 { return slices.Clone(slab.Flat(v)) }

// call sends req and returns its result slab as expansions.
func call[E Expansion](ctx context.Context, c *Client, req *wire.Request) ([]E, error) {
	out, err := c.do(ctx, req)
	return slab.As[E](out), err
}

// first returns the one element of a single-value result.
func first[E any](out []E, err error) (E, error) {
	if err != nil {
		var zero E
		return zero, err
	}
	return out[0], nil
}
