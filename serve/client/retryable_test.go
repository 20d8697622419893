package client

import (
	"context"
	"errors"
	"testing"
	"time"

	"multifloats/mf"
	"multifloats/serve/wire"
)

// TestIsRetryable pins the public classification for every typed error,
// each produced by a real client call against a scripted peer — not by
// hand-wrapping — so the predicate and the error paths cannot drift.
func TestIsRetryable(t *testing.T) {
	ctx := context.Background()
	status := func(st wire.Status, retryMs uint32) func(int64, *wire.Request) *wire.Response {
		return func(int64, *wire.Request) *wire.Response {
			return &wire.Response{Status: st, RetryAfterMs: retryMs}
		}
	}
	cases := []struct {
		name      string
		err       func(t *testing.T) error
		retryable bool
		is        error // sentinel the error must unwrap to, nil to skip
	}{
		{"overloaded-budget-exhausted", func(t *testing.T) error {
			fs := newFakeServer(t, status(wire.StatusOverloaded, 1))
			c, err := Dial(fs.ln.Addr().String(), WithMaxRetries(1), WithBackoff(time.Millisecond, 2*time.Millisecond))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			_, err = Scalar(ctx, c, wire.OpAdd, mf.New2(1.0), mf.New2(2.0))
			return err
		}, true, ErrOverloaded},
		{"conn-drop", func(t *testing.T) error {
			fs := newFakeServer(t, func(int64, *wire.Request) *wire.Response { return nil })
			c, err := Dial(fs.ln.Addr().String(), WithMaxRetries(0))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			_, err = Scalar(ctx, c, wire.OpAdd, mf.New2(1.0), mf.New2(2.0))
			return err
		}, true, nil},
		{"dial-failure", func(t *testing.T) error {
			c, err := Dial("127.0.0.1:1", WithLazyDial(), WithMaxRetries(0), WithDialTimeout(200*time.Millisecond))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			_, err = Scalar(ctx, c, wire.OpAdd, mf.New2(1.0), mf.New2(2.0))
			return err
		}, true, nil},
		{"integrity", func(t *testing.T) error {
			fs := newFakeServer(t, func(_ int64, req *wire.Request) *wire.Response {
				return &wire.Response{ID: req.ID + 1, Status: wire.StatusOK, Data: make([]float64, 2)}
			})
			c, err := Dial(fs.ln.Addr().String(), WithMaxRetries(0))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			_, err = Scalar(ctx, c, wire.OpAdd, mf.New2(1.0), mf.New2(2.0))
			return err
		}, true, ErrIntegrity},
		{"deadline", func(t *testing.T) error {
			fs := newFakeServer(t, status(wire.StatusDeadlineExceeded, 0))
			c, err := Dial(fs.ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			_, err = Scalar(ctx, c, wire.OpAdd, mf.New2(1.0), mf.New2(2.0))
			return err
		}, false, ErrDeadlineExceeded},
		{"bad-request", func(t *testing.T) error {
			fs := newFakeServer(t, status(wire.StatusBadRequest, 0))
			c, err := Dial(fs.ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			_, err = Scalar(ctx, c, wire.OpAdd, mf.New2(1.0), mf.New2(2.0))
			return err
		}, false, ErrBadRequest},
		{"server-error", func(t *testing.T) error {
			fs := newFakeServer(t, status(wire.Status(200), 0))
			c, err := Dial(fs.ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			_, err = Scalar(ctx, c, wire.OpAdd, mf.New2(1.0), mf.New2(2.0))
			return err
		}, false, ErrServer},
		{"closed", func(t *testing.T) error {
			fs := newFakeServer(t, func(_ int64, req *wire.Request) *wire.Response { return okAdd2(req) })
			c, err := Dial(fs.ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			c.Close()
			_, err = Scalar(ctx, c, wire.OpAdd, mf.New2(1.0), mf.New2(2.0))
			return err
		}, false, ErrClosed},
		{"context-canceled", func(t *testing.T) error {
			fs := newFakeServer(t, func(_ int64, req *wire.Request) *wire.Response { return okAdd2(req) })
			c, err := Dial(fs.ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			cctx, cancel := context.WithCancel(ctx)
			cancel()
			_, err = Scalar(cctx, c, wire.OpAdd, mf.New2(1.0), mf.New2(2.0))
			return err
		}, false, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.err(t)
			if err == nil {
				t.Fatal("call unexpectedly succeeded")
			}
			if got := IsRetryable(err); got != tc.retryable {
				t.Fatalf("IsRetryable(%v) = %v, want %v", err, got, tc.retryable)
			}
			if tc.is != nil && !errors.Is(err, tc.is) {
				t.Fatalf("err %v does not unwrap to %v", err, tc.is)
			}
		})
	}
	if IsRetryable(nil) {
		t.Fatal("IsRetryable(nil) = true")
	}
	if IsRetryable(errors.New("arbitrary")) {
		t.Fatal("IsRetryable(arbitrary) = true")
	}
}

// TestLazyDial: a client to a dead backend constructs fine lazily,
// fails retryably while the backend is down, and recovers once the
// backend exists — the proxy's backend-restart lifecycle in miniature.
func TestLazyDial(t *testing.T) {
	ctx := context.Background()
	if _, err := Dial("127.0.0.1:1", WithDialTimeout(200*time.Millisecond)); err == nil {
		t.Fatal("eager Dial to a dead address succeeded")
	}
	fs := newFakeServer(t, func(_ int64, req *wire.Request) *wire.Response { return okAdd2(req) })
	addr := fs.ln.Addr().String()
	fs.ln.Close() // now dead, but the port is known

	c, err := Dial(addr, WithLazyDial(), WithMaxRetries(0), WithDialTimeout(200*time.Millisecond))
	if err != nil {
		t.Fatalf("lazy Dial: %v", err)
	}
	defer c.Close()
	if _, err := Scalar(ctx, c, wire.OpAdd, mf.New2(1.0), mf.New2(2.0)); !IsRetryable(err) {
		t.Fatalf("call against dead backend: err %v, want retryable", err)
	}
}

// TestDoForwardsShape: Do sends Op/Width/Count/M/Hops as given — the
// proxy's forwarding contract — and validates the response slab length
// for the request's shape.
func TestDoForwardsShape(t *testing.T) {
	var seen *wire.Request
	fs := newFakeServer(t, func(_ int64, req *wire.Request) *wire.Response {
		seen = req
		return &wire.Response{Status: wire.StatusOK, Data: make([]float64, wire.RespElems(req.Op, req.Width, req.Count, req.M))}
	})
	c, err := Dial(fs.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	req := &wire.Request{Op: wire.OpSumExact, Width: 3, Count: 2, Hops: 2,
		M: wire.FlagReduceFinal | wire.FlagReduceRaw, X: make([]float64, 6)}
	data, err := c.Do(context.Background(), req)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if len(data) != wire.ReduceRawElems {
		t.Fatalf("raw final returned %d elements", len(data))
	}
	if seen.Hops != 2 || seen.M != wire.FlagReduceFinal|wire.FlagReduceRaw || seen.Op != wire.OpSumExact || seen.Width != 3 {
		t.Fatalf("server saw %+v", seen)
	}
}
