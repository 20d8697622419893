package server_test

// End-to-end loopback test: a real server on 127.0.0.1:0, the real
// client, mixed scalar + BLAS traffic from N concurrent goroutines, and
// a bit-for-bit comparison of every remote result against the
// corresponding direct in-process mf/blas call.
// Adversarial operands come from internal/diffuzz. The server runs with
// Workers=1 so the BLAS reduction order matches the sequential local
// kernels exactly (determinism is per (shape, workers); the scalar ops
// are elementwise and bit-exact at any worker count — a second pass
// below pins that with the default worker configuration).
//
// `make race` runs this file under the race detector.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"multifloats/internal/blas"
	"multifloats/internal/diffuzz"
	"multifloats/mf"
	"multifloats/serve/client"
	"multifloats/serve/internal/slab"
	"multifloats/serve/server"
	"multifloats/serve/wire"
)

func startE2E(t *testing.T, cfg server.Config) (*server.Server, *client.Client) {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	s := server.New(cfg)
	if err := s.Listen(); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve() }()
	c, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() {
		c.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return s, c
}

// eq reports whether a and b hold the same bits.
func eq[E client.Expansion](a, b E) bool { return same([]E{a}, []E{b}) }

// TestE2EBitExactParity drives every op at every width concurrently and
// demands bit-identical results to the in-process calls.
func TestE2EBitExactParity(t *testing.T) {
	_, c := startE2E(t, server.Config{
		BatchWindow: 100 * time.Microsecond,
		MaxBatch:    64,
		Workers:     1, // sequential-equivalent kernel order for BLAS parity
	})
	ctx := context.Background()

	const goroutines = 8
	const iters = 40
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			gen := diffuzz.NewGen(int64(1000 + g))
			for it := 0; it < iters; it++ {
				if err := errors.Join(
					oneParityRound(ctx, c, gen, it, kernels2),
					oneParityRound(ctx, c, gen, it, kernels3),
					oneParityRound(ctx, c, gen, it, kernels4),
				); err != nil {
					errs <- err
					return
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

func e2eErr(what string, err error) error {
	return errors.Join(errors.New(what), err)
}

// expansion is a typed-call element type with mf's local arithmetic.
type expansion[E any] interface {
	client.Expansion
	Add(E) E
	Sub(E) E
	Mul(E) E
	Div(E) E
	Sqrt() E
}

// blasKernels are one width's local BLAS kernels, the references for
// the remote BLAS calls.
type blasKernels[E any] struct {
	dot  func(x, y []E, workers int) E
	axpy func(alpha E, x, y []E, workers int)
	gemv func(a []E, n, m int, x, y []E, workers int)
	gemm func(a, b, c []E, n, workers int)
}

var (
	kernels2 = blasKernels[mf.Float64x2]{blas.DotF2Parallel[float64], blas.AxpyF2Parallel[float64],
		blas.GemvTiledF2Parallel[float64], blas.GemmBlockedF2Parallel[float64]}
	kernels3 = blasKernels[mf.Float64x3]{blas.DotF3Parallel[float64], blas.AxpyF3Parallel[float64],
		blas.GemvTiledF3Parallel[float64], blas.GemmBlockedF3Parallel[float64]}
	kernels4 = blasKernels[mf.Float64x4]{blas.DotF4Parallel[float64], blas.AxpyF4Parallel[float64],
		blas.GemvTiledF4Parallel[float64], blas.GemmBlockedF4Parallel[float64]}
)

// same reports whether got and want hold the same bits.
func same[E client.Expansion](got, want []E) bool {
	g, w := slab.Flat(got), slab.Flat(want)
	for i := range g {
		if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
			return false
		}
	}
	return len(g) == len(w)
}

// oneParityRound exercises one iteration of mixed traffic at E's width:
// every scalar, elementwise and BLAS call, against the local kernels.
func oneParityRound[E expansion[E]](ctx context.Context, c *client.Client, gen *diffuzz.Gen, it int, k blasKernels[E]) error {
	w := slab.Width[E]()
	elem := func(comps []float64) E { return slab.As[E](comps)[0] }
	vector := func(n int) []E {
		v := make([]E, n)
		for i := range v {
			v[i] = elem(gen.BlasElement(w))
		}
		return v
	}
	check := func(what string, got, want []E, err error) error {
		if err != nil || !same(got, want) {
			return e2eErr(fmt.Sprintf("%s width %d parity", what, w), err)
		}
		return nil
	}

	// --- scalar ops, adversarial operands ---
	x, y, pos := elem(gen.Expansion(w, 200)), elem(gen.NonZero(w, 120)), elem(gen.Positive(w, 100))
	var none E
	for _, tc := range []struct {
		op         wire.Op
		x, y, want E
	}{
		{wire.OpAdd, x, y, x.Add(y)},
		{wire.OpSub, x, y, x.Sub(y)},
		{wire.OpMul, x, y, x.Mul(y)},
		{wire.OpDiv, x, y, x.Div(y)},
		{wire.OpSqrt, pos, none, pos.Sqrt()},
	} {
		got, err := client.Scalar(ctx, c, tc.op, tc.x, tc.y)
		if err := check(tc.op.String(), []E{got}, []E{tc.want}, err); err != nil {
			return err
		}
	}

	// --- elementwise slices ---
	n := 16 + it%17
	xs, ys := vector(n), vector(n)
	sums, prods := make([]E, n), make([]E, n)
	for i := range xs {
		sums[i], prods[i] = xs[i].Add(ys[i]), xs[i].Mul(ys[i])
	}
	got, err := client.Elementwise(ctx, c, wire.OpAdd, xs, ys)
	if err := check("elementwise add", got, sums, err); err != nil {
		return err
	}
	got, err = client.Elementwise(ctx, c, wire.OpMul, xs, ys)
	if err := check("elementwise mul", got, prods, err); err != nil {
		return err
	}

	// --- BLAS: dot, axpy, gemv, gemm ---
	dot, err := client.Dot(ctx, c, xs, ys)
	if err := check("dot", []E{dot}, []E{k.dot(xs, ys, 1)}, err); err != nil {
		return err
	}
	alpha := elem(gen.BlasElement(w))
	want := slices.Clone(ys)
	k.axpy(alpha, xs, want, 1)
	got, err = client.Axpy(ctx, c, alpha, xs, ys)
	if err := check("axpy", got, want, err); err != nil {
		return err
	}
	rows, cols := 8+it%5, 8+it%7
	a, v := vector(rows*cols), vector(cols)
	want = make([]E, rows)
	k.gemv(a, rows, cols, v, want, 1)
	got, err = client.Gemv(ctx, c, a, rows, cols, v)
	if err := check("gemv", got, want, err); err != nil {
		return err
	}
	dim := 6 + it%4
	a, b := vector(dim*dim), vector(dim*dim)
	want = make([]E, dim*dim)
	k.gemm(a, b, want, dim, 1)
	got, err = client.Gemm(ctx, c, a, b, dim)
	return check("gemm", got, want, err)
}

// TestE2EScalarParityParallelWorkers re-runs the scalar paths against a
// server with full worker parallelism: elementwise slabs must be
// bit-exact regardless of how the batch was split across the pool.
func TestE2EScalarParityParallelWorkers(t *testing.T) {
	_, c := startE2E(t, server.Config{BatchWindow: 150 * time.Microsecond, MaxBatch: 128})
	ctx := context.Background()
	gen := diffuzz.NewGen(0xe2e)
	const n = 512
	xs := make([]mf.Float64x4, n)
	ys := make([]mf.Float64x4, n)
	for i := range xs {
		copy(xs[i][:], gen.Expansion(4, 150))
		copy(ys[i][:], gen.Expansion(4, 150))
	}
	got, err := client.Elementwise(ctx, c, wire.OpAdd, xs, ys)
	if err != nil {
		t.Fatalf("AddSlice4: %v", err)
	}
	for i := range xs {
		if !eq(got[i], xs[i].Add(ys[i])) {
			t.Fatalf("AddSlice4[%d]: not bit-exact", i)
		}
	}
}

// TestE2EDeadlineFailFast: a request whose deadline lands inside a long
// batch window is answered StatusDeadlineExceeded at (not after) its
// deadline, and well before the window would have flushed.
func TestE2EDeadlineFailFast(t *testing.T) {
	s, c := startE2E(t, server.Config{BatchWindow: 2 * time.Second, MaxBatch: 1 << 20})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := client.Scalar(ctx, c, wire.OpAdd, mf.New2(1.0), mf.New2(2.0))
	elapsed := time.Since(start)
	if !errors.Is(err, client.ErrDeadlineExceeded) && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed > time.Second {
		t.Fatalf("deadline answer took %v; server waited out the batch window instead of failing fast", elapsed)
	}
	if got := s.Stats().DeadlineMisses.Load(); got != 1 {
		t.Fatalf("deadline_misses = %d, want 1", got)
	}
}

// TestE2EExpiredBlasRequest: BLAS requests also honor deadlines (checked
// before execution on the conn goroutine).
func TestE2EExpiredBlasRequest(t *testing.T) {
	s, c := startE2E(t, server.Config{})
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	x := make([]mf.Float64x2, 32)
	_, err := client.Dot(ctx, c, x, x)
	if !errors.Is(err, client.ErrDeadlineExceeded) && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	// The miss may be counted server-side (if the frame made it out) or
	// rejected client-side; either way no result was produced.
	_ = s
}

// TestE2ESpecialValues: the §4.4 collapse states survive the wire.
func TestE2ESpecialValues(t *testing.T) {
	_, c := startE2E(t, server.Config{})
	ctx := context.Background()
	nan2 := mf.Float64x2{math.NaN(), 0}
	got, err := client.Scalar(ctx, c, wire.OpAdd, nan2, mf.New2(1.0))
	if err != nil {
		t.Fatalf("Add2(NaN): %v", err)
	}
	if !got.IsNaN() {
		t.Fatalf("NaN did not propagate: %v", got)
	}
	inf3 := mf.Float64x3{math.Inf(1), 0, 0}
	got3, err := client.Scalar(ctx, c, wire.OpMul, inf3, mf.New3(2.0))
	if err != nil {
		t.Fatalf("Mul3(Inf): %v", err)
	}
	want3 := inf3.Mul(mf.New3(2.0))
	if !eq(got3, want3) {
		t.Fatalf("Inf collapse mismatch: got %v want %v", got3, want3)
	}
	zneg := mf.Float64x2{math.Copysign(0, -1), 0}
	gotz, err := client.Scalar(ctx, c, wire.OpSqrt, zneg, mf.Float64x2{})
	if err != nil {
		t.Fatalf("Sqrt2(-0): %v", err)
	}
	wantz := zneg.Sqrt()
	if math.Float64bits(gotz[0]) != math.Float64bits(wantz[0]) {
		t.Fatalf("Sqrt2(-0): got %x want %x", math.Float64bits(gotz[0]), math.Float64bits(wantz[0]))
	}
}

// Guard against silent wire/op drift: every op the client can issue is
// accepted by a default server.
func TestE2EAllOpsAccepted(t *testing.T) {
	_, c := startE2E(t, server.Config{})
	ctx := context.Background()
	x2, y2 := mf.New2(9.0), mf.New2(4.0)
	for name, call := range map[string]func() error{
		"add": func() error { _, err := client.Scalar(ctx, c, wire.OpAdd, x2, y2); return err },
		"sub": func() error { _, err := client.Scalar(ctx, c, wire.OpSub, x2, y2); return err },
		"mul": func() error { _, err := client.Scalar(ctx, c, wire.OpMul, x2, y2); return err },
		"div": func() error { _, err := client.Scalar(ctx, c, wire.OpDiv, x2, y2); return err },
		"sqrt": func() error {
			got, err := client.Scalar(ctx, c, wire.OpSqrt, x2, mf.Float64x2{})
			if err == nil && got.Float() != 3 {
				return errors.New("sqrt(9) != 3")
			}
			return err
		},
		"axpy": func() error {
			_, err := client.Axpy(ctx, c, x2, []mf.Float64x2{y2}, []mf.Float64x2{x2})
			return err
		},
		"dot": func() error { _, err := client.Dot(ctx, c, []mf.Float64x2{x2}, []mf.Float64x2{y2}); return err },
		"gemv": func() error {
			_, err := client.Gemv(ctx, c, []mf.Float64x2{x2, y2, y2, x2}, 2, 2, []mf.Float64x2{x2, y2})
			return err
		},
		"gemm": func() error {
			a := []mf.Float64x2{x2, y2, y2, x2}
			_, err := client.Gemm(ctx, c, a, a, 2)
			return err
		},
	} {
		if err := call(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
