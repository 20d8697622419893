package client

import (
	"context"
	"errors"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"multifloats/internal/testutil"
	"multifloats/mf"
	"multifloats/serve/wire"
)

// callMode starts one call of req on c and returns a wait for its
// result. TestGoKeepsDoContract runs every case through both modes.
type callMode struct {
	name  string
	start func(ctx context.Context, c *Client, req *wire.Request) func() ([]float64, error)
}

// doneCounts records how often each Go callback ran, so a case can
// demand exactly once.
type doneCounts []*atomic.Int32

func (d *doneCounts) check(t *testing.T) {
	t.Helper()
	for i, n := range *d {
		if got := n.Load(); got != 1 {
			t.Errorf("Go call %d: done ran %d times, want 1", i, got)
		}
	}
}

func callModes(dones *doneCounts) []callMode {
	return []callMode{
		{"Do", func(ctx context.Context, c *Client, req *wire.Request) func() ([]float64, error) {
			type result struct {
				data []float64
				err  error
			}
			ch := make(chan result, 1)
			go func() {
				data, err := c.Do(ctx, req)
				ch <- result{data, err}
			}()
			return func() ([]float64, error) { r := <-ch; return r.data, r.err }
		}},
		{"Go", func(ctx context.Context, c *Client, req *wire.Request) func() ([]float64, error) {
			n := new(atomic.Int32)
			*dones = append(*dones, n)
			// Room for a second, wrong, delivery: done must never block.
			data, errs := make(chan []float64, 2), make(chan error, 2)
			c.Go(ctx, req, func(d []float64, err error) {
				n.Add(1)
				data <- d
				errs <- err
			})
			return func() ([]float64, error) { return <-data, <-errs }
		}},
	}
}

// addRequest is an Add2 request of call i's distinct operands.
func addRequest(i int) *wire.Request {
	x, y := addOperands(i)
	return &wire.Request{Op: wire.OpAdd, Width: 2, Count: 1, X: x[:], Y: y[:]}
}

// wantAdd is call i's bit-exact result.
func wantAdd(i int) []float64 {
	x, y := addOperands(i)
	w := x.Add(y)
	return w[:]
}

// TestGoKeepsDoContract runs one table through Do and Go on the scripted
// fakeServer, demanding the same results, attempt counts and errors from
// both, and from Go that every done ran exactly once.
func TestGoKeepsDoContract(t *testing.T) {
	ctx := context.Background()
	fast := WithBackoff(time.Millisecond, 5*time.Millisecond)

	cases := []struct {
		name     string
		handler  func(n int64, req *wire.Request) *wire.Response
		opts     []Option
		calls    int
		ctx      func() (context.Context, context.CancelFunc)
		close    bool  // close the client once every call reached the server
		attempts int64 // requests the server sees
		accepts  int64 // connections it accepts; 0 skips the check
		minTime  time.Duration
		maxTime  time.Duration // 0 skips the check
		check    func(i int, data []float64, err error) error
	}{
		{
			name:     "ok",
			handler:  func(_ int64, req *wire.Request) *wire.Response { return okAdd2(req) },
			calls:    1,
			attempts: 1,
			check:    wantOK,
		},
		{
			// Two 20 ms retry-after hints, under a 5 ms backoff cap: the
			// hint is the floor of each wait.
			name: "overloaded-twice",
			handler: func(n int64, req *wire.Request) *wire.Response {
				if n <= 2 {
					return &wire.Response{Status: wire.StatusOverloaded, RetryAfterMs: 20}
				}
				return okAdd2(req)
			},
			opts:     []Option{fast},
			calls:    1,
			attempts: 3,
			minTime:  40 * time.Millisecond,
			check:    wantOK,
		},
		{
			name: "bad-request",
			handler: func(int64, *wire.Request) *wire.Response {
				return &wire.Response{Status: wire.StatusBadRequest}
			},
			calls:    1,
			attempts: 1,
			check:    wantErr(ErrBadRequest, false),
		},
		{
			name: "unknown-response-id",
			handler: func(_ int64, req *wire.Request) *wire.Response {
				return &wire.Response{ID: req.ID + 1<<32, Status: wire.StatusOK, Data: make([]float64, 2)}
			},
			opts:     []Option{WithMaxRetries(0)},
			calls:    1,
			attempts: 1,
			check:    wantErr(ErrIntegrity, true),
		},
		{
			// The peer leaves the first 31 requests unanswered and drops the
			// connection on the 32nd, so all 32 calls are waiting when it
			// goes. Each is retried, bit-exact, over one re-dial.
			name: "drop-with-calls-queued",
			handler: func(n int64, req *wire.Request) *wire.Response {
				switch {
				case n < pendingCalls:
					return noReply
				case n == pendingCalls:
					return nil
				default:
					return okAdd2(req)
				}
			},
			opts:     []Option{fast},
			calls:    pendingCalls,
			attempts: 2 * pendingCalls,
			accepts:  2,
			check:    wantOK,
		},
		{
			name:    "expired-ctx",
			handler: func(_ int64, req *wire.Request) *wire.Response { return okAdd2(req) },
			calls:   1,
			ctx: func() (context.Context, context.CancelFunc) {
				cctx, cancel := context.WithCancel(context.Background())
				cancel()
				return cctx, cancel
			},
			attempts: 0,
			check:    wantErr(context.Canceled, false),
		},
		{
			// A 1000 ms retry-after hint outlasts the 100 ms deadline: the
			// backoff ends when the ctx does, not when the hint runs out.
			name: "deadline-during-backoff",
			handler: func(int64, *wire.Request) *wire.Response {
				return &wire.Response{Status: wire.StatusOverloaded, RetryAfterMs: 1000}
			},
			calls: 1,
			ctx: func() (context.Context, context.CancelFunc) {
				return context.WithTimeout(context.Background(), 100*time.Millisecond)
			},
			attempts: 1,
			maxTime:  500 * time.Millisecond,
			check:    wantErr(context.DeadlineExceeded, false),
		},
		{
			name:     "close",
			handler:  func(int64, *wire.Request) *wire.Response { return noReply },
			calls:    pendingCalls,
			close:    true,
			attempts: pendingCalls,
			check:    wantErr(ErrClosed, false),
		},
	}

	for _, tc := range cases {
		var dones doneCounts
		for _, mode := range callModes(&dones) {
			t.Run(tc.name+"/"+mode.name, func(t *testing.T) {
				if tc.close {
					testutil.VerifyNoLeaks(t)
				}
				fs := newFakeServer(t, tc.handler)
				c, err := Dial(fs.ln.Addr().String(), append([]Option{WithLazyDial()}, tc.opts...)...)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				cctx := ctx
				if tc.ctx != nil {
					var cancel context.CancelFunc
					cctx, cancel = tc.ctx()
					defer cancel()
				}
				start := time.Now()
				waits := make([]func() ([]float64, error), tc.calls)
				for i := range waits {
					waits[i] = mode.start(cctx, c, addRequest(i))
				}
				if tc.close {
					waitFor(t, "every call to reach the server", func() bool { return fs.requests.Load() == int64(tc.calls) })
					c.Close()
				}
				for i, wait := range waits {
					data, err := wait()
					if err := tc.check(i, data, err); err != nil {
						t.Errorf("call %d: %v", i, err)
					}
				}
				elapsed := time.Since(start)
				if elapsed < tc.minTime {
					t.Errorf("calls returned after %v, want at least the retry-after floors' %v", elapsed, tc.minTime)
				}
				if tc.maxTime != 0 && elapsed > tc.maxTime {
					t.Errorf("calls returned after %v, want under %v", elapsed, tc.maxTime)
				}
				if n := fs.requests.Load(); n != tc.attempts {
					t.Errorf("server saw %d requests, want %d", n, tc.attempts)
				}
				if n := fs.accepts.Load(); tc.accepts != 0 && n != tc.accepts {
					t.Errorf("server accepted %d connections, want %d", n, tc.accepts)
				}
				c.Close()
				dones.check(t)
			})
		}
	}
}

// wantOK checks call i's result bit for bit.
func wantOK(i int, data []float64, err error) error {
	if err != nil {
		return err
	}
	if want := wantAdd(i); !sameBits(data, want) {
		return errors.New("result not bit-exact")
	}
	return nil
}

// wantErr demands a failure matching target, and retryable or not.
func wantErr(target error, retryable bool) func(int, []float64, error) error {
	return func(_ int, data []float64, err error) error {
		if !errors.Is(err, target) || IsRetryable(err) != retryable || data != nil {
			return errors.Join(errors.New("unexpected result"), err)
		}
		return nil
	}
}

// TestDoLeavesRequestUnchanged: Do on a BLAS request, which runs on a
// pooled connection, never writes the caller's *req. Each attempt, a
// retried one too, goes out with its own ID and the ctx's deadline.
func TestDoLeavesRequestUnchanged(t *testing.T) {
	ctxDeadline := time.Now().Add(time.Hour)
	ids := make(chan uint64, 8) // room for every attempt the retry budget allows
	fs := newFakeServer(t, func(n int64, req *wire.Request) *wire.Response {
		ids <- req.ID
		if !req.Deadline.Equal(ctxDeadline) {
			return &wire.Response{Status: wire.StatusBadRequest}
		}
		if n == 1 {
			return &wire.Response{Status: wire.StatusOverloaded}
		}
		return &wire.Response{Status: wire.StatusOK, Data: make([]float64, 2)}
	})
	c, err := Dial(fs.ln.Addr().String(), WithLazyDial(), WithBackoff(time.Millisecond, 5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithDeadline(context.Background(), ctxDeadline)
	defer cancel()

	callerDeadline := time.Now().Add(time.Minute)
	req := &wire.Request{ID: 42, Deadline: callerDeadline, Op: wire.OpDot, Width: 2, Count: 1,
		X: []float64{1, 0}, Y: []float64{2, 0}}
	if _, err := c.Do(ctx, req); err != nil {
		t.Fatalf("Do: %v", err)
	}
	if req.ID != 42 || !req.Deadline.Equal(callerDeadline) {
		t.Errorf("after Do, req has ID %d and deadline %v; want 42 and %v as passed", req.ID, req.Deadline, callerDeadline)
	}
	close(ids)
	var seen []uint64
	for id := range ids {
		seen = append(seen, id)
	}
	if len(seen) != 2 || seen[0] == seen[1] || seen[0] == 42 || seen[1] == 42 {
		t.Errorf("attempts carried IDs %v, want two fresh ones", seen)
	}
}

// TestGoCostsNoGoroutinePerCall: 1000 outstanding Go calls on one
// connection add no goroutine per call, and Close answers them all.
func TestGoCostsNoGoroutinePerCall(t *testing.T) {
	fs := newFakeServer(t, func(n int64, req *wire.Request) *wire.Response {
		if n == 1 {
			return okAdd2(req)
		}
		return noReply
	})
	c, err := Dial(fs.ln.Addr().String(), WithLazyDial())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Bring the connection, its reader and writer up first.
	if _, err := Scalar(context.Background(), c, wire.OpAdd, mf.New2(1.0), mf.New2(2.0)); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()

	const calls = 1000
	var answered atomic.Int64
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		c.Go(context.Background(), addRequest(i), func(_ []float64, err error) {
			answered.Add(1)
			errs <- err
		})
	}
	waitFor(t, "every call to reach the server", func() bool { return fs.requests.Load() == calls+1 })
	if n := runtime.NumGoroutine(); n > base+16 {
		t.Errorf("%d goroutines with %d Go calls outstanding, baseline %d", n, calls, base)
	}
	c.Close()
	for i := 0; i < calls; i++ {
		if err := <-errs; !errors.Is(err, ErrClosed) {
			t.Fatalf("outstanding call after Close: err %v, want ErrClosed", err)
		}
	}
	if n := answered.Load(); n != calls {
		t.Fatalf("%d callbacks ran, want %d", n, calls)
	}
}

// TestGoDoesNotWaitForDial: with a dialer that takes a second, Go
// returns at once; the call is sent when the dial completes.
func TestGoDoesNotWaitForDial(t *testing.T) {
	fs := newFakeServer(t, func(_ int64, req *wire.Request) *wire.Response { return okAdd2(req) })
	slowDial := func(addr string, timeout time.Duration) (net.Conn, error) {
		time.Sleep(time.Second)
		return net.DialTimeout("tcp", addr, timeout)
	}
	c, err := Dial(fs.ln.Addr().String(), WithLazyDial(), WithDialer(slowDial))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	type result struct {
		data []float64
		err  error
	}
	res := make(chan result, 1)
	start := time.Now()
	c.Go(context.Background(), addRequest(0), func(data []float64, err error) { res <- result{data, err} })
	if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
		t.Fatalf("Go returned after %v behind a 1 s dial, want under 50 ms", elapsed)
	}
	r := <-res
	if err := wantOK(0, r.data, r.err); err != nil {
		t.Fatal(err)
	}
}
