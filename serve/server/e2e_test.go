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
	"math"
	"sync"
	"testing"
	"time"

	"multifloats/internal/blas"
	"multifloats/internal/diffuzz"
	"multifloats/mf"
	"multifloats/serve/client"
	"multifloats/serve/server"
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

func eq2(a, b mf.Float64x2) bool {
	return math.Float64bits(a[0]) == math.Float64bits(b[0]) &&
		math.Float64bits(a[1]) == math.Float64bits(b[1])
}
func eq3(a, b mf.Float64x3) bool {
	for k := 0; k < 3; k++ {
		if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
			return false
		}
	}
	return true
}
func eq4(a, b mf.Float64x4) bool {
	for k := 0; k < 4; k++ {
		if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
			return false
		}
	}
	return true
}

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
				if err := oneParityRound(ctx, c, gen, it); err != nil {
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

// oneParityRound exercises one iteration of mixed traffic at all widths.
func oneParityRound(ctx context.Context, c *client.Client, gen *diffuzz.Gen, it int) error {
	// --- scalar ops, width 2/3/4, adversarial operands ---
	var x2, y2 mf.Float64x2
	copy(x2[:], gen.Expansion(2, 200))
	copy(y2[:], gen.Expansion(2, 200))
	if got, err := c.Add2(ctx, x2, y2); err != nil || !eq2(got, x2.Add(y2)) {
		return e2eErr("Add2 parity", err)
	}
	if got, err := c.Mul2(ctx, x2, y2); err != nil || !eq2(got, x2.Mul(y2)) {
		return e2eErr("Mul2 parity", err)
	}

	var x3, y3 mf.Float64x3
	copy(x3[:], gen.Expansion(3, 120))
	copy(y3[:], gen.NonZero(3, 120))
	if got, err := c.Sub3(ctx, x3, y3); err != nil || !eq3(got, x3.Sub(y3)) {
		return e2eErr("Sub3 parity", err)
	}
	if got, err := c.Div3(ctx, x3, y3); err != nil || !eq3(got, x3.Div(y3)) {
		return e2eErr("Div3 parity", err)
	}

	var x4 mf.Float64x4
	copy(x4[:], gen.Positive(4, 100))
	if got, err := c.Sqrt4(ctx, x4); err != nil || !eq4(got, x4.Sqrt()) {
		return e2eErr("Sqrt4 parity", err)
	}

	// --- elementwise slices ---
	n := 16 + it%17
	xs := make([]mf.Float64x2, n)
	ys := make([]mf.Float64x2, n)
	for i := range xs {
		copy(xs[i][:], gen.BlasElement(2))
		copy(ys[i][:], gen.BlasElement(2))
	}
	gotS, err := c.MulSlice2(ctx, xs, ys)
	if err != nil {
		return e2eErr("MulSlice2", err)
	}
	for i := range xs {
		if !eq2(gotS[i], xs[i].Mul(ys[i])) {
			return errors.New("MulSlice2 parity: element mismatch")
		}
	}

	// --- BLAS: dot / axpy / gemv / gemm at rotating widths ---
	switch it % 3 {
	case 0:
		vx := make([]mf.Float64x2, n)
		vy := make([]mf.Float64x2, n)
		for i := range vx {
			copy(vx[i][:], gen.BlasElement(2))
			copy(vy[i][:], gen.BlasElement(2))
		}
		got, err := c.Dot2(ctx, vx, vy)
		if err != nil || !eq2(got, blas.DotF2Parallel(vx, vy, 1)) {
			return e2eErr("Dot2 parity", err)
		}
		var alpha mf.Float64x2
		copy(alpha[:], gen.BlasElement(2))
		want := append([]mf.Float64x2(nil), vy...)
		blas.AxpyF2Parallel(alpha, vx, want, 1)
		gotA, err := c.Axpy2(ctx, alpha, vx, vy)
		if err != nil {
			return e2eErr("Axpy2", err)
		}
		for i := range want {
			if !eq2(gotA[i], want[i]) {
				return errors.New("Axpy2 parity: element mismatch")
			}
		}
	case 1:
		rows, cols := 8+it%5, 8+it%7
		a := make([]mf.Float64x3, rows*cols)
		vx := make([]mf.Float64x3, cols)
		for i := range a {
			copy(a[i][:], gen.BlasElement(3))
		}
		for i := range vx {
			copy(vx[i][:], gen.BlasElement(3))
		}
		got, err := c.Gemv3(ctx, a, rows, cols, vx)
		if err != nil {
			return e2eErr("Gemv3", err)
		}
		want := make([]mf.Float64x3, rows)
		blas.GemvTiledF3Parallel(a, rows, cols, vx, want, 1)
		for i := range want {
			if !eq3(got[i], want[i]) {
				return errors.New("Gemv3 parity: element mismatch")
			}
		}
	default:
		dim := 6 + it%4
		a := make([]mf.Float64x4, dim*dim)
		b := make([]mf.Float64x4, dim*dim)
		for i := range a {
			copy(a[i][:], gen.BlasElement(4))
			copy(b[i][:], gen.BlasElement(4))
		}
		got, err := c.Gemm4(ctx, a, b, dim)
		if err != nil {
			return e2eErr("Gemm4", err)
		}
		want := make([]mf.Float64x4, dim*dim)
		blas.GemmBlockedF4Parallel(a, b, want, dim, 1)
		for i := range want {
			if !eq4(got[i], want[i]) {
				return errors.New("Gemm4 parity: element mismatch")
			}
		}
	}
	return nil
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
	got, err := c.AddSlice4(ctx, xs, ys)
	if err != nil {
		t.Fatalf("AddSlice4: %v", err)
	}
	for i := range xs {
		if !eq4(got[i], xs[i].Add(ys[i])) {
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
	_, err := c.Add2(ctx, mf.New2(1.0), mf.New2(2.0))
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
	_, err := c.Dot2(ctx, x, x)
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
	got, err := c.Add2(ctx, nan2, mf.New2(1.0))
	if err != nil {
		t.Fatalf("Add2(NaN): %v", err)
	}
	if !got.IsNaN() {
		t.Fatalf("NaN did not propagate: %v", got)
	}
	inf3 := mf.Float64x3{math.Inf(1), 0, 0}
	got3, err := c.Mul3(ctx, inf3, mf.New3(2.0))
	if err != nil {
		t.Fatalf("Mul3(Inf): %v", err)
	}
	want3 := inf3.Mul(mf.New3(2.0))
	if !eq3(got3, want3) {
		t.Fatalf("Inf collapse mismatch: got %v want %v", got3, want3)
	}
	zneg := mf.Float64x2{math.Copysign(0, -1), 0}
	gotz, err := c.Sqrt2(ctx, zneg)
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
		"add": func() error { _, err := c.Add2(ctx, x2, y2); return err },
		"sub": func() error { _, err := c.Sub2(ctx, x2, y2); return err },
		"mul": func() error { _, err := c.Mul2(ctx, x2, y2); return err },
		"div": func() error { _, err := c.Div2(ctx, x2, y2); return err },
		"sqrt": func() error {
			got, err := c.Sqrt2(ctx, x2)
			if err == nil && got.Float() != 3 {
				return errors.New("sqrt(9) != 3")
			}
			return err
		},
		"axpy": func() error {
			_, err := c.Axpy2(ctx, x2, []mf.Float64x2{y2}, []mf.Float64x2{x2})
			return err
		},
		"dot": func() error { _, err := c.Dot2(ctx, []mf.Float64x2{x2}, []mf.Float64x2{y2}); return err },
		"gemv": func() error {
			_, err := c.Gemv2(ctx, []mf.Float64x2{x2, y2, y2, x2}, 2, 2, []mf.Float64x2{x2, y2})
			return err
		},
		"gemm": func() error {
			a := []mf.Float64x2{x2, y2, y2, x2}
			_, err := c.Gemm2(ctx, a, a, 2)
			return err
		},
	} {
		if err := call(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
