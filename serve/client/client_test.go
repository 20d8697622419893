package client

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"multifloats/internal/testutil"
	"multifloats/mf"
	"multifloats/serve/wire"
)

// fakeServer speaks raw wire frames with a scripted per-request handler,
// so the client's retry/backoff behavior can be pinned without a real
// compute server. A nil response from the handler closes the connection
// (simulating a transient failure); noReply leaves the request
// unanswered and goes on reading.
type fakeServer struct {
	ln         net.Listener
	requests   atomic.Int64
	accepts    atomic.Int64 // connections accepted
	peerCloses atomic.Int64 // connections the client ended
	handler    func(n int64, req *wire.Request) *wire.Response
}

// noReply is the fakeServer handler result that answers nothing.
var noReply = &wire.Response{}

func newFakeServer(t *testing.T, handler func(n int64, req *wire.Request) *wire.Response) *fakeServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fs := &fakeServer{ln: ln, handler: handler}
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			fs.accepts.Add(1)
			go func() {
				defer nc.Close()
				br := bufio.NewReader(nc)
				bw := bufio.NewWriter(nc)
				for {
					req, err := wire.ReadRequest(br)
					if err != nil {
						fs.peerCloses.Add(1)
						return
					}
					n := fs.requests.Add(1)
					resp := fs.handler(n, req)
					if resp == nil {
						return
					}
					if resp == noReply {
						continue
					}
					if resp.ID == 0 {
						resp.ID = req.ID
					}
					if err := wire.WriteResponse(bw, resp); err != nil {
						return
					}
					bw.Flush()
				}
			}()
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return fs
}

func okAdd2(req *wire.Request) *wire.Response {
	x := wire.Unpack2(req.X)
	y := wire.Unpack2(req.Y)
	out := make([]mf.Float64x2, len(x))
	for i := range x {
		out[i] = x[i].Add(y[i])
	}
	return &wire.Response{Status: wire.StatusOK, Data: wire.Pack2(out)}
}

func TestRetryAfterOverload(t *testing.T) {
	fs := newFakeServer(t, func(n int64, req *wire.Request) *wire.Response {
		if n <= 2 {
			return &wire.Response{Status: wire.StatusOverloaded, RetryAfterMs: 2}
		}
		return okAdd2(req)
	})
	c, err := Dial(fs.ln.Addr().String(), WithBackoff(time.Millisecond, 5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	got, err := Scalar(context.Background(), c, wire.OpAdd, mf.New2(1.0), mf.New2(2.0))
	if err != nil {
		t.Fatalf("Add2 after overloads: %v", err)
	}
	if got.Float() != 3 {
		t.Fatalf("got %v", got)
	}
	if n := fs.requests.Load(); n != 3 {
		t.Fatalf("server saw %d requests, want 3 (2 overloads + success)", n)
	}
}

func TestRetryAfterConnDrop(t *testing.T) {
	fs := newFakeServer(t, func(n int64, req *wire.Request) *wire.Response {
		if n == 1 {
			return nil // slam the connection shut mid-request
		}
		return okAdd2(req)
	})
	c, err := Dial(fs.ln.Addr().String(), WithBackoff(time.Millisecond, 5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := Scalar(context.Background(), c, wire.OpAdd, mf.New2(4.0), mf.New2(5.0))
	if err != nil {
		t.Fatalf("Add2 after conn drop: %v", err)
	}
	if got.Float() != 9 {
		t.Fatalf("got %v", got)
	}
}

func TestNoRetryOnBadRequest(t *testing.T) {
	fs := newFakeServer(t, func(n int64, req *wire.Request) *wire.Response {
		return &wire.Response{Status: wire.StatusBadRequest}
	})
	c, err := Dial(fs.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = Scalar(context.Background(), c, wire.OpAdd, mf.New2(1.0), mf.New2(2.0))
	if !errors.Is(err, ErrBadRequest) {
		t.Fatalf("err = %v, want ErrBadRequest", err)
	}
	if n := fs.requests.Load(); n != 1 {
		t.Fatalf("server saw %d requests, want 1 (no retry on permanent failure)", n)
	}
}

func TestDeadlineNotRetried(t *testing.T) {
	fs := newFakeServer(t, func(n int64, req *wire.Request) *wire.Response {
		if req.Deadline.IsZero() {
			t.Error("request carried no deadline despite context deadline")
		}
		return &wire.Response{Status: wire.StatusDeadlineExceeded}
	})
	c, err := Dial(fs.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_, err = Scalar(ctx, c, wire.OpSqrt, mf.New3(2.0), mf.Float64x3{})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	if n := fs.requests.Load(); n != 1 {
		t.Fatalf("server saw %d requests, want 1", n)
	}
}

func TestRetriesExhausted(t *testing.T) {
	fs := newFakeServer(t, func(n int64, req *wire.Request) *wire.Response {
		return &wire.Response{Status: wire.StatusOverloaded, RetryAfterMs: 1}
	})
	c, err := Dial(fs.ln.Addr().String(),
		WithMaxRetries(2), WithBackoff(time.Millisecond, 2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = Scalar(context.Background(), c, wire.OpMul, mf.New4(1.0), mf.New4(2.0))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want wrapped ErrOverloaded", err)
	}
	if n := fs.requests.Load(); n != 3 {
		t.Fatalf("server saw %d requests, want 3 (1 + 2 retries)", n)
	}
}

func TestIDMismatchPoisonsConn(t *testing.T) {
	fs := newFakeServer(t, func(n int64, req *wire.Request) *wire.Response {
		if n == 1 {
			// Deliver a stale-looking response: wrong ID.
			return &wire.Response{ID: req.ID + 7, Status: wire.StatusOK, Data: make([]float64, 2)}
		}
		return okAdd2(req)
	})
	c, err := Dial(fs.ln.Addr().String(), WithBackoff(time.Millisecond, 2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := Scalar(context.Background(), c, wire.OpAdd, mf.New2(2.0), mf.New2(3.0))
	if err != nil || got.Float() != 5 {
		t.Fatalf("Add2 = %v, %v; want 5 after one retry", got, err)
	}
	if n := fs.requests.Load(); n != 2 {
		t.Fatalf("server saw %d requests, want 2", n)
	}
}

func TestClientClosed(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	fs := newFakeServer(t, func(n int64, req *wire.Request) *wire.Response { return okAdd2(req) })
	c, err := Dial(fs.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	c.Close() // idempotent
	if _, err := Scalar(context.Background(), c, wire.OpAdd, mf.New2(1.0), mf.New2(1.0)); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// TestCloseConcurrentWithCalls races Close against in-flight calls that
// are returning connections to the pool. The old pool closed its channel
// in Close, so a concurrent put could panic the process; now calls must
// either complete or fail cleanly. Run under -race to also catch flag
// ordering regressions.
func TestCloseConcurrentWithCalls(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	fs := newFakeServer(t, func(n int64, req *wire.Request) *wire.Response { return okAdd2(req) })
	for i := 0; i < 50; i++ {
		c, err := Dial(fs.ln.Addr().String(), WithMaxRetries(0))
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Success or a clean error are both fine; the test is that
				// nothing panics while Close races the connection return.
				Scalar(context.Background(), c, wire.OpAdd, mf.New2(1.0), mf.New2(2.0))
			}()
		}
		c.Close()
		wg.Wait()
	}
}

// TestIntegrityFailureRetried: a response whose bytes were flipped after
// sealing (mismatched CRC32C trailer — exactly what a faulty network
// produces) is discarded and the call retried on a fresh connection.
func TestIntegrityFailureRetried(t *testing.T) {
	var seen atomic.Int64
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer nc.Close()
				br := bufio.NewReader(nc)
				for {
					req, err := wire.ReadRequest(br)
					if err != nil {
						return
					}
					n := seen.Add(1)
					resp := okAdd2(req)
					resp.ID = req.ID
					var buf bytes.Buffer
					if err := wire.WriteResponse(&buf, resp); err != nil {
						return
					}
					frame := buf.Bytes()
					if n == 1 {
						// Flip one payload bit after sealing: the CRC32C
						// trailer no longer matches.
						frame[wire.HeaderSize+8] ^= 0x10
					}
					if _, err := nc.Write(frame); err != nil {
						return
					}
				}
			}()
		}
	}()

	c, err := Dial(ln.Addr().String(), WithBackoff(time.Millisecond, 2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := Scalar(context.Background(), c, wire.OpAdd, mf.New2(20.0), mf.New2(22.0))
	if err != nil {
		t.Fatalf("Add2 after corrupted response: %v", err)
	}
	if got.Float() != 42 {
		t.Fatalf("got %v, want 42", got)
	}
	if n := seen.Load(); n != 2 {
		t.Fatalf("server saw %d requests, want 2 (corrupted + clean retry)", n)
	}
}

func TestIntegrityFailureTyped(t *testing.T) {
	// Every response corrupted and no retries left: the surfaced error
	// must be ErrIntegrity (transport), not any application error.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer nc.Close()
				br := bufio.NewReader(nc)
				for {
					req, err := wire.ReadRequest(br)
					if err != nil {
						return
					}
					resp := okAdd2(req)
					resp.ID = req.ID
					var buf bytes.Buffer
					if err := wire.WriteResponse(&buf, resp); err != nil {
						return
					}
					frame := buf.Bytes()
					frame[len(frame)-1] ^= 0xFF // trash the trailer itself
					if _, err := nc.Write(frame); err != nil {
						return
					}
				}
			}()
		}
	}()
	c, err := Dial(ln.Addr().String(), WithMaxRetries(1), WithBackoff(time.Millisecond, 2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = Scalar(context.Background(), c, wire.OpAdd, mf.New2(1.0), mf.New2(2.0))
	if !errors.Is(err, ErrIntegrity) {
		t.Fatalf("err = %v, want ErrIntegrity", err)
	}
	if errors.Is(err, ErrBadRequest) || errors.Is(err, ErrServer) || errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("integrity failure misclassified as application error: %v", err)
	}
}

// TestLocalRejections: a typed call whose operands cannot form a valid
// request returns ErrBadRequest without sending a frame. A pooled call
// waits for its answer, so its frame would be counted by the time it
// returns; the valid call at the end rides the same multiplexed
// connection as the scalar rows, so a frame one of them had queued
// would be counted before it.
func TestLocalRejections(t *testing.T) {
	fs := newFakeServer(t, func(n int64, req *wire.Request) *wire.Response { return okAdd2(req) })
	c, err := Dial(fs.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	x2, x3 := make([]mf.Float64x2, 3), make([]mf.Float64x3, 4)
	for _, tc := range []struct {
		name string
		call func() error
	}{
		{"elementwise-lengths", func() error {
			_, err := Elementwise(ctx, c, wire.OpMul, x2, x2[:2])
			return err
		}},
		{"axpy-lengths", func() error {
			_, err := Axpy(ctx, c, mf.Float64x3{}, x3, x3[:3])
			return err
		}},
		{"dot-lengths", func() error {
			_, err := Dot(ctx, c, x2, make([]mf.Float64x2, 4))
			return err
		}},
		{"dotexact-lengths", func() error {
			_, err := DotExact(ctx, c, []float64{1, 2}, []float64{3})
			return err
		}},
		{"gemv-matrix", func() error {
			_, err := Gemv(ctx, c, x3, 2, 3, x3[:3])
			return err
		}},
		{"gemv-vector", func() error {
			_, err := Gemv(ctx, c, x3, 2, 2, x3[:3])
			return err
		}},
		{"gemm-shape", func() error {
			_, err := Gemm(ctx, c, x3, x3[:3], 2)
			return err
		}},
		{"scalar-blas-op", func() error {
			_, err := Scalar(ctx, c, wire.OpDot, mf.New2(1.0), mf.New2(2.0))
			return err
		}},
		{"scalar-reduction-op", func() error {
			_, err := Scalar(ctx, c, wire.OpSumExact, mf.New4(1.0), mf.New4(2.0))
			return err
		}},
		{"elementwise-blas-op", func() error {
			_, err := Elementwise(ctx, c, wire.OpGemm, x3, x3)
			return err
		}},
		{"elementwise-unknown-op", func() error {
			_, err := Elementwise(ctx, c, wire.Op(99), x2, x2)
			return err
		}},
	} {
		if err := tc.call(); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: err = %v, want ErrBadRequest", tc.name, err)
		}
	}
	if n := fs.requests.Load(); n != 0 {
		t.Fatalf("server read %d requests from rejected calls", n)
	}
	if _, err := Scalar(ctx, c, wire.OpAdd, mf.New2(1.0), mf.New2(2.0)); err != nil {
		t.Fatal(err)
	}
	if n := fs.requests.Load(); n != 1 {
		t.Fatalf("server read %d requests, want only the valid call's", n)
	}
}
