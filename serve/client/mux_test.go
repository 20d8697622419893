package client

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"multifloats/internal/diffuzz"
	"multifloats/internal/testutil"
	"multifloats/mf"
	"multifloats/serve/server"
	"multifloats/serve/wire"
)

// countingListener counts the connections a server accepts.
type countingListener struct {
	net.Listener
	accepts atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err == nil {
		l.accepts.Add(1)
	}
	return nc, err
}

// TestScalarCallsShareOneConnection: 256 goroutines of typed scalar
// calls through one Client ride a single connection to a real server,
// and every result is bit-identical to the local mf call.
func TestScalarCallsShareOneConnection(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &countingListener{Listener: ln}
	s := server.New(server.Config{})
	done := make(chan error, 1)
	go func() { done <- s.ServeListener(cl) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("ServeListener: %v", err)
		}
	})

	c, err := Dial(ln.Addr().String(), WithLazyDial())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const goroutines, calls = 256, 4
	ops := []wire.Op{wire.OpAdd, wire.OpSub, wire.OpMul, wire.OpDiv, wire.OpSqrt}
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			gen := diffuzz.NewGen(int64(g))
			for i := 0; i < calls; i++ {
				op, width := ops[(g+i)%len(ops)], 2+(g/len(ops)+i)%3
				if err := scalarCall(context.Background(), c, gen, op, width); err != nil {
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
	if n := cl.accepts.Load(); n != 1 {
		t.Fatalf("server accepted %d connections for %d concurrent scalar callers, want 1", n, goroutines)
	}
}

// scalarCall makes one typed scalar call of op at width on adversarial
// operands and checks the result bit for bit against the local mf call.
func scalarCall(ctx context.Context, c *Client, gen *diffuzz.Gen, op wire.Op, width int) error {
	var got, want []float64
	var err error
	switch width {
	case 2:
		var x, y, r, w mf.Float64x2
		copy(x[:], gen.Positive(2, 200))
		copy(y[:], gen.NonZero(2, 200))
		switch op {
		case wire.OpAdd:
			r, err = c.Add2(ctx, x, y)
			w = x.Add(y)
		case wire.OpSub:
			r, err = c.Sub2(ctx, x, y)
			w = x.Sub(y)
		case wire.OpMul:
			r, err = c.Mul2(ctx, x, y)
			w = x.Mul(y)
		case wire.OpDiv:
			r, err = c.Div2(ctx, x, y)
			w = x.Div(y)
		case wire.OpSqrt:
			r, err = c.Sqrt2(ctx, x)
			w = x.Sqrt()
		}
		got, want = r[:], w[:]
	case 3:
		var x, y, r, w mf.Float64x3
		copy(x[:], gen.Positive(3, 200))
		copy(y[:], gen.NonZero(3, 200))
		switch op {
		case wire.OpAdd:
			r, err = c.Add3(ctx, x, y)
			w = x.Add(y)
		case wire.OpSub:
			r, err = c.Sub3(ctx, x, y)
			w = x.Sub(y)
		case wire.OpMul:
			r, err = c.Mul3(ctx, x, y)
			w = x.Mul(y)
		case wire.OpDiv:
			r, err = c.Div3(ctx, x, y)
			w = x.Div(y)
		case wire.OpSqrt:
			r, err = c.Sqrt3(ctx, x)
			w = x.Sqrt()
		}
		got, want = r[:], w[:]
	case 4:
		var x, y, r, w mf.Float64x4
		copy(x[:], gen.Positive(4, 200))
		copy(y[:], gen.NonZero(4, 200))
		switch op {
		case wire.OpAdd:
			r, err = c.Add4(ctx, x, y)
			w = x.Add(y)
		case wire.OpSub:
			r, err = c.Sub4(ctx, x, y)
			w = x.Sub(y)
		case wire.OpMul:
			r, err = c.Mul4(ctx, x, y)
			w = x.Mul(y)
		case wire.OpDiv:
			r, err = c.Div4(ctx, x, y)
			w = x.Div(y)
		case wire.OpSqrt:
			r, err = c.Sqrt4(ctx, x)
			w = x.Sqrt()
		}
		got, want = r[:], w[:]
	}
	if err != nil {
		return fmt.Errorf("%v width %d: %w", op, width, err)
	}
	if !sameBits(got, want) {
		return fmt.Errorf("%v width %d: got %v, want %v", op, width, got, want)
	}
	return nil
}

func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}

// pendingCalls is how many calls the failure cases keep waiting on the
// shared connection when the fault strikes.
const pendingCalls = 32

// addOperands returns call i's Add2 operands, distinct for every i, so a
// response handed to the wrong call cannot pass its check.
func addOperands(i int) (x, y mf.Float64x2) {
	return mf.New2(float64(i + 1)).Div(mf.New2(7.0)), mf.New2(1.0).Div(mf.New2(float64(i + 3)))
}

// startCalls starts pendingCalls concurrent Add2 calls and returns a
// wait for their results.
func startCalls(ctx context.Context, c *Client) func() ([]mf.Float64x2, []error) {
	got := make([]mf.Float64x2, pendingCalls)
	errs := make([]error, pendingCalls)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x, y := addOperands(i)
			got[i], errs[i] = c.Add2(ctx, x, y)
		}()
	}
	return func() ([]mf.Float64x2, []error) {
		wg.Wait()
		return got, errs
	}
}

// waitFor polls cond for up to 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for end := time.Now().Add(5 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(end) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestMuxFailures pins the shared connection's failure contract against
// a scripted peer. In the fault cases the peer leaves the first
// pendingCalls-1 requests unanswered, so every call is waiting on the
// one connection when the fault strikes. The clients dial lazily, so
// the peer's accept count is the shared connection's dial count.
func TestMuxFailures(t *testing.T) {
	ctx := context.Background()

	t.Run("drop-with-calls-pending", func(t *testing.T) {
		fs := newFakeServer(t, func(n int64, req *wire.Request) *wire.Response {
			switch {
			case n < pendingCalls:
				return noReply
			case n == pendingCalls:
				return nil // drop the connection under every waiting call
			default:
				return okAdd2(req)
			}
		})
		c, err := Dial(fs.ln.Addr().String(), WithLazyDial(), WithBackoff(time.Millisecond, 5*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		got, errs := startCalls(ctx, c)()
		for i := range got {
			x, y := addOperands(i)
			if want := x.Add(y); errs[i] != nil || !sameBits(got[i][:], want[:]) {
				t.Errorf("call %d = %v, %v; want %v after a retry", i, got[i], errs[i], want)
			}
		}
		// The retries share one re-dial.
		if n := fs.accepts.Load(); n != 2 {
			t.Fatalf("server accepted %d connections, want 2 (the dropped one and one re-dial)", n)
		}
	})

	t.Run("unknown-response-id", func(t *testing.T) {
		fs := newFakeServer(t, func(n int64, req *wire.Request) *wire.Response {
			switch {
			case n < pendingCalls:
				return noReply
			case n == pendingCalls:
				return &wire.Response{ID: req.ID + 1<<32, Status: wire.StatusOK, Data: make([]float64, 2)}
			default:
				return okAdd2(req)
			}
		})
		c, err := Dial(fs.ln.Addr().String(), WithLazyDial(), WithMaxRetries(0))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		_, errs := startCalls(ctx, c)()
		for i, err := range errs {
			if !IsRetryable(err) || !errors.Is(err, ErrIntegrity) {
				t.Errorf("call %d: err %v, want a retryable ErrIntegrity", i, err)
			}
		}
		got, err := c.Add2(ctx, mf.New2(2.0), mf.New2(3.0))
		if err != nil || got.Float() != 5 {
			t.Fatalf("call after the desync = %v, %v; want 5", got, err)
		}
		if n := fs.accepts.Load(); n != 2 {
			t.Fatalf("server accepted %d connections, want 2 (the desynced one and a fresh one)", n)
		}
	})

	t.Run("close-with-calls-pending", func(t *testing.T) {
		testutil.VerifyNoLeaks(t)
		fs := newFakeServer(t, func(int64, *wire.Request) *wire.Response { return noReply })
		c, err := Dial(fs.ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		wait := startCalls(ctx, c)
		waitFor(t, "every call to reach the server", func() bool { return fs.requests.Load() == pendingCalls })
		start := time.Now()
		c.Close()
		_, errs := wait()
		// Close answers the waiting calls itself; they must not sit out
		// the 30 s I/O timeout first.
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Errorf("calls returned %v after Close", elapsed)
		}
		for i, err := range errs {
			if !errors.Is(err, ErrClosed) {
				t.Errorf("call %d: err %v, want ErrClosed", i, err)
			}
		}
	})

	t.Run("deadline-unanswered", func(t *testing.T) {
		fs := newFakeServer(t, func(int64, *wire.Request) *wire.Response { return noReply })
		const budget, ioTimeout = 150 * time.Millisecond, time.Second
		c, err := Dial(fs.ln.Addr().String(), WithLazyDial(), WithIOTimeout(ioTimeout), WithMaxRetries(0))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		timedOut := func(err error) bool { return IsRetryable(err) && errors.Is(err, os.ErrDeadlineExceeded) }
		dctx, cancel := context.WithTimeout(ctx, budget)
		defer cancel()
		start := time.Now()
		_, err = c.Add2(dctx, mf.New2(1.0), mf.New2(2.0))
		elapsed := time.Since(start)
		if !timedOut(err) {
			t.Fatalf("err = %v, want a retryable timeout", err)
		}
		// The call waits past its deadline for the server's own answer,
		// up to the 100 ms grace, and no longer.
		if elapsed < budget+50*time.Millisecond || elapsed > budget+500*time.Millisecond {
			t.Fatalf("call returned after %v, want about %v", elapsed, budget+100*time.Millisecond)
		}
		// Its expiry answers only the call: the connection has been silent
		// for less than the I/O timeout, so the next call goes out on it.
		// That call has no deadline and waits the whole I/O timeout. By
		// then the connection has read nothing for longer than that, so
		// the call's expiry closes it.
		_, err = c.Add2(ctx, mf.New2(1.0), mf.New2(2.0))
		if !timedOut(err) {
			t.Fatalf("second call: err = %v, want a retryable timeout", err)
		}
		if quiet := time.Since(start); quiet < ioTimeout+budget {
			t.Fatalf("second call returned after %v of silence, want at least %v", quiet, ioTimeout+budget)
		}
		if n := fs.accepts.Load(); n != 1 {
			t.Fatalf("server accepted %d connections, want 1: the first call's expiry must leave its connection open", n)
		}
		waitFor(t, "the silent connection to close", func() bool { return fs.peerCloses.Load() == 1 })
	})

	t.Run("reads-keep-the-connection", func(t *testing.T) {
		// The first call is never answered, so a response stays owed
		// throughout; only the answered calls in between show that the
		// connection is alive when the last call runs out.
		fs := newFakeServer(t, func(_ int64, req *wire.Request) *wire.Response {
			if req.X[0] == 99 {
				return noReply
			}
			return okAdd2(req)
		})
		const ioTimeout = 500 * time.Millisecond
		c, err := Dial(fs.ln.Addr().String(), WithLazyDial(), WithIOTimeout(ioTimeout))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		unanswered := func() {
			dctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
			defer cancel()
			if _, err := c.Add2(dctx, mf.New2(99.0), mf.New2(1.0)); !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("unanswered call: err = %v, want context.DeadlineExceeded", err)
			}
		}
		unanswered()
		for end := time.Now().Add(2 * ioTimeout); time.Now().Before(end); time.Sleep(time.Millisecond) {
			if got, err := c.Add2(ctx, mf.New2(2.0), mf.New2(3.0)); err != nil || got.Float() != 5 {
				t.Fatalf("answered call = %v, %v; want 5", got, err)
			}
		}
		unanswered()
		// A call after the expiry must find the connection open, not
		// re-dial.
		if got, err := c.Add2(ctx, mf.New2(2.0), mf.New2(3.0)); err != nil || got.Float() != 5 {
			t.Fatalf("call after the expiry = %v, %v; want 5", got, err)
		}
		if n, closes := fs.accepts.Load(), fs.peerCloses.Load(); n != 1 || closes != 0 {
			t.Fatalf("server accepted %d connections and saw %d closed, want 1 and 0", n, closes)
		}
	})

	t.Run("expiry-answers-only-its-call", func(t *testing.T) {
		// Request 1 is never answered. Request 2 is answered only after
		// both short calls have given up. Request 3, the long call's, is
		// read and answered after that.
		release := make(chan struct{})
		var releaseOnce sync.Once
		releaseAll := func() { releaseOnce.Do(func() { close(release) }) }
		defer releaseAll()
		fs := newFakeServer(t, func(n int64, req *wire.Request) *wire.Response {
			switch n {
			case 1:
				return noReply
			case 2:
				<-release
			}
			return okAdd2(req)
		})
		c, err := Dial(fs.ln.Addr().String(), WithLazyDial())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		short := func(n int64, errc chan<- error) {
			dctx, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
			go func() {
				defer cancel()
				_, err := c.Add2(dctx, mf.New2(1.0), mf.New2(2.0))
				errc <- err
			}()
			waitFor(t, fmt.Sprintf("request %d to reach the server", n), func() bool { return fs.requests.Load() == n })
		}
		unanswered, late := make(chan error, 1), make(chan error, 1)
		short(1, unanswered)
		short(2, late)
		long := make(chan error, 1)
		go func() {
			x, y := addOperands(0)
			got, err := c.Add2(ctx, x, y)
			if want := x.Add(y); err == nil && !sameBits(got[:], want[:]) {
				err = fmt.Errorf("got %v, want %v", got, want)
			}
			long <- err
		}()
		for _, errc := range []chan error{unanswered, late} {
			if err := <-errc; !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("short call: err = %v, want context.DeadlineExceeded", err)
			}
		}
		// The late answer must be dropped, not taken for a desync, and
		// the long call must finish on the same connection.
		releaseAll()
		if err := <-long; err != nil {
			t.Fatalf("long call beside the expired ones: %v", err)
		}
		if n, closes := fs.accepts.Load(), fs.peerCloses.Load(); n != 1 || closes != 0 {
			t.Fatalf("server accepted %d connections and saw %d closed, want 1 and 0", n, closes)
		}
	})
}
