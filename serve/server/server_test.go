package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"math"
	"net"
	"runtime"
	"testing"
	"time"

	"multifloats/internal/blas"
	"multifloats/internal/testutil"
	"multifloats/mf"
	"multifloats/serve/wire"
)

// startTestServer returns a running server on a loopback port and a
// cleanup-registered shutdown.
func startTestServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	s := New(cfg)
	if err := s.Listen(); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve() }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return s
}

type testConn struct {
	nc net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

func dialTest(t testing.TB, s *Server) *testConn {
	t.Helper()
	nc, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { nc.Close() })
	return &testConn{nc: nc, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc)}
}

func (c *testConn) send(t *testing.T, req *wire.Request) {
	t.Helper()
	if err := wire.WriteRequest(c.bw, req); err != nil {
		t.Fatalf("WriteRequest: %v", err)
	}
	if err := c.bw.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
}

func (c *testConn) recv(t *testing.T) *wire.Response {
	t.Helper()
	c.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := wire.ReadResponse(c.br)
	if err != nil {
		t.Fatalf("ReadResponse: %v", err)
	}
	return resp
}

// TestBatchCoalescing pins the scheduler's core behavior: pipelined
// compatible scalar requests land in one slab execution, and each result
// matches the in-process mf call bit for bit.
func TestBatchCoalescing(t *testing.T) {
	s := startTestServer(t, Config{BatchWindow: 30 * time.Millisecond, MaxBatch: 64})
	c := dialTest(t, s)

	const k = 10
	xs := make([]mf.Float64x2, k)
	ys := make([]mf.Float64x2, k)
	for i := range xs {
		xs[i] = mf.New2(float64(i + 1)).DivFloat(3)
		ys[i] = mf.New2(float64(i + 2)).DivFloat(7)
	}
	for i := 0; i < k; i++ {
		c.send(t, &wire.Request{
			ID: uint64(i), Op: wire.OpMul, Width: 2, Count: 1,
			X: xs[i][:], Y: ys[i][:],
		})
	}
	got := make(map[uint64][]float64, k)
	for i := 0; i < k; i++ {
		resp := c.recv(t)
		if resp.Status != wire.StatusOK {
			t.Fatalf("resp %d: status %v", resp.ID, resp.Status)
		}
		got[resp.ID] = resp.Data
	}
	for i := 0; i < k; i++ {
		want := xs[i].Mul(ys[i])
		data := got[uint64(i)]
		if len(data) != 2 || math.Float64bits(data[0]) != math.Float64bits(want[0]) ||
			math.Float64bits(data[1]) != math.Float64bits(want[1]) {
			t.Fatalf("req %d: got %v want %v", i, data, want)
		}
	}
	st := s.Stats().Snapshot()
	if st.Batches != 1 || st.BatchedReqs != k {
		t.Fatalf("batches=%d batched_requests=%d, want 1/%d (requests did not coalesce)",
			st.Batches, st.BatchedReqs, k)
	}
	if st.QueueDepth != 0 {
		t.Fatalf("queue depth %d after drain, want 0", st.QueueDepth)
	}
}

// TestMaxBatchFlush: hitting MaxBatch flushes immediately instead of
// waiting out the window.
func TestMaxBatchFlush(t *testing.T) {
	s := startTestServer(t, Config{BatchWindow: 10 * time.Second, MaxBatch: 4})
	c := dialTest(t, s)
	start := time.Now()
	for i := 0; i < 4; i++ {
		c.send(t, &wire.Request{ID: uint64(i), Op: wire.OpAdd, Width: 2, Count: 1,
			X: []float64{1, 0}, Y: []float64{2, 0}})
	}
	for i := 0; i < 4; i++ {
		if resp := c.recv(t); resp.Status != wire.StatusOK {
			t.Fatalf("status %v", resp.Status)
		}
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("size-triggered flush took %v; server waited for the window", elapsed)
	}
}

// TestExpiredScalarFrame: a scalar frame whose deadline has already
// passed is answered StatusDeadlineExceeded by its lane at once, long
// before the window, without executing: it counts as a deadline miss
// and runs no batch.
func TestExpiredScalarFrame(t *testing.T) {
	s := startTestServer(t, Config{BatchWindow: 10 * time.Second, MaxBatch: 64})
	c := dialTest(t, s)
	c.send(t, &wire.Request{ID: 7, Deadline: time.Now().Add(-time.Second), Op: wire.OpAdd, Width: 2, Count: 1,
		X: []float64{1, 0}, Y: []float64{2, 0}})
	if resp := c.recv(t); resp.ID != 7 || resp.Status != wire.StatusDeadlineExceeded || len(resp.Data) != 0 {
		t.Fatalf("response %d: status %v, %d elements; want 7: DeadlineExceeded, none", resp.ID, resp.Status, len(resp.Data))
	}
	st := s.Stats().Snapshot()
	if st.DeadlineMisses != 1 || st.Batches != 0 || st.QueueDepth != 0 {
		t.Fatalf("deadline_misses=%d batches=%d queue_depth=%d, want 1/0/0", st.DeadlineMisses, st.Batches, st.QueueDepth)
	}
}

// BenchmarkScalarDeadline pipelines single-element width-2 add frames
// over one loopback connection, once without a deadline and once with a
// far-future one, and reports ns and allocs per frame (server and client
// side together). The difference between the two is the cost of the
// scalar lane's deadline path: the flush pulled toward a member deadline
// in enqueue and the per-member expiry check in exec.
func BenchmarkScalarDeadline(b *testing.B) {
	for _, bc := range []struct {
		name     string
		deadline time.Duration
	}{{"no-deadline", 0}, {"far-deadline", time.Hour}} {
		b.Run(bc.name, func(b *testing.B) {
			const burst = 256 // the default MaxBatch: each burst flushes its lane on size
			s := startTestServer(b, Config{})
			c := dialTest(b, s)
			req := &wire.Request{Op: wire.OpAdd, Width: 2, Count: 1, X: []float64{1, 0}, Y: []float64{2, 0}}
			if bc.deadline > 0 {
				req.Deadline = time.Now().Add(bc.deadline)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for sent := 0; sent < b.N; {
				k := min(burst, b.N-sent)
				for i := 0; i < k; i++ {
					req.ID = uint64(sent + i)
					if err := wire.WriteRequest(c.bw, req); err != nil {
						b.Fatalf("WriteRequest: %v", err)
					}
				}
				if err := c.bw.Flush(); err != nil {
					b.Fatalf("flush: %v", err)
				}
				// ReadResponse, not recv: recv arms a read deadline per
				// response, which costs more than the path measured here.
				for i := 0; i < k; i++ {
					resp, err := wire.ReadResponse(c.br)
					if err != nil {
						b.Fatalf("ReadResponse: %v", err)
					}
					if resp.Status != wire.StatusOK {
						b.Fatalf("response %d: status %v", resp.ID, resp.Status)
					}
				}
				sent += k
			}
		})
	}
}

// TestOverloadBackpressure: a full lane queue answers StatusOverloaded
// with a retry hint instead of blocking or dropping silently.
func TestOverloadBackpressure(t *testing.T) {
	s := startTestServer(t, Config{BatchWindow: time.Second, MaxBatch: 1 << 20, QueueDepth: 2})
	c := dialTest(t, s)
	const k = 6
	for i := 0; i < k; i++ {
		c.send(t, &wire.Request{ID: uint64(i), Op: wire.OpAdd, Width: 3, Count: 1,
			X: []float64{1, 0, 0}, Y: []float64{2, 0, 0}})
	}
	overloaded := 0
	for i := 0; i < k; i++ {
		resp := c.recv(t)
		if resp.Status == wire.StatusOverloaded {
			overloaded++
			if resp.RetryAfterMs == 0 {
				t.Fatal("overload response missing retry-after hint")
			}
		}
	}
	if overloaded != k-2 {
		t.Fatalf("overloaded %d of %d, want %d (queue depth 2)", overloaded, k, k-2)
	}
	if got := s.Stats().Overloads.Load(); got != int64(k-2) {
		t.Fatalf("stats.Overloads = %d, want %d", got, k-2)
	}
}

// TestMalformedFrameClosesConn: a framing violation is counted and the
// connection is closed (the stream can no longer be trusted).
func TestMalformedFrameClosesConn(t *testing.T) {
	s := startTestServer(t, Config{})
	c := dialTest(t, s)
	c.nc.Write([]byte("GET / HTTP/1.1\r\n\r\n this is not an mf frame"))
	c.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := c.nc.Read(buf); err == nil {
		t.Fatal("connection still open after malformed frame")
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.Stats().ProtocolErrors.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := s.Stats().ProtocolErrors.Load(); got == 0 {
		t.Fatal("protocol error not counted")
	}
}

// TestOversizedDimRejected: a structurally valid request beyond MaxDim is
// answered StatusBadRequest rather than executed, and counted; the
// connection stays usable for the next request.
func TestOversizedDimRejected(t *testing.T) {
	s := startTestServer(t, Config{MaxDim: 8})
	c := dialTest(t, s)
	n := 16
	c.send(t, &wire.Request{ID: 1, Op: wire.OpDot, Width: 2, Count: n,
		X: make([]float64, n*2), Y: make([]float64, n*2)})
	if resp := c.recv(t); resp.ID != 1 || resp.Status != wire.StatusBadRequest {
		t.Fatalf("id %d status %v, want 1 bad-request", resp.ID, resp.Status)
	}
	if got := s.Stats().ProtocolErrors.Load(); got != 1 {
		t.Fatalf("protocol errors = %d, want 1", got)
	}
	c.send(t, &wire.Request{ID: 2, Op: wire.OpDot, Width: 2, Count: 8,
		X: make([]float64, 16), Y: make([]float64, 16)})
	if resp := c.recv(t); resp.ID != 2 || resp.Status != wire.StatusOK {
		t.Fatalf("next request: id %d status %v, want 2 ok", resp.ID, resp.Status)
	}
}

// TestOversizedHeaderAllocatesNothing: the MaxDim bound applies from the
// frame header, so a bare header declaring a huge body (which then never
// comes) cannot make the server allocate that body.
func TestOversizedHeaderAllocatesNothing(t *testing.T) {
	s := startTestServer(t, Config{MaxDim: 8})
	c := dialTest(t, s)
	// A full round trip first, so the connection's own buffers exist
	// before the baseline.
	c.send(t, &wire.Request{ID: 1, Op: wire.OpAdd, Width: 2, Count: 1, X: []float64{1, 0}, Y: []float64{2, 0}})
	c.recv(t)
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	base := m.HeapAlloc

	// Width-4 Dot over 1M elements: a 64 MiB body.
	const n, w = 1 << 20, 4
	h := make([]byte, wire.HeaderSize+12)
	h[0], h[1], h[2], h[3] = 'M', 'F', wire.Version, 1
	binary.LittleEndian.PutUint32(h[4:], 12+2*n*w*8)
	binary.LittleEndian.PutUint64(h[8:], 2)
	h[wire.HeaderSize], h[wire.HeaderSize+1] = byte(wire.OpDot), w
	binary.LittleEndian.PutUint32(h[wire.HeaderSize+4:], n)
	if _, err := c.nc.Write(h); err != nil {
		t.Fatal(err)
	}
	// The server has nothing to report until the body arrives, so watch
	// its heap for a while.
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); time.Sleep(10 * time.Millisecond) {
		runtime.ReadMemStats(&m)
		if m.HeapAlloc > base+1<<20 {
			t.Fatalf("heap grew by %d bytes after a bare oversized header", m.HeapAlloc-base)
		}
	}
}

// TestShutdownDrains: requests admitted before Shutdown are executed and
// answered during the drain, not dropped.
func TestShutdownDrains(t *testing.T) {
	// The blas worker pool is process-wide and spawns lazily on first use;
	// warm it so the leak baseline includes it, then everything the server
	// itself started (acceptor, lanes, conn handlers) must be gone after
	// Shutdown.
	blas.Parallel(4, 2, func(lo, hi int) {})
	testutil.VerifyNoLeaks(t)
	cfg := Config{Addr: "127.0.0.1:0", BatchWindow: 10 * time.Second, MaxBatch: 1 << 20}
	s := New(cfg)
	if err := s.Listen(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve() }()

	c := dialTest(t, s)
	const k = 5
	for i := 0; i < k; i++ {
		c.send(t, &wire.Request{ID: uint64(i), Op: wire.OpMul, Width: 4, Count: 1,
			X: []float64{3, 0, 0, 0}, Y: []float64{5, 0, 0, 0}})
	}
	// Wait for the requests to be admitted before draining.
	deadline := time.Now().Add(2 * time.Second)
	for s.Stats().QueueDepth.Load() < k && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	for i := 0; i < k; i++ {
		resp := c.recv(t)
		if resp.Status != wire.StatusOK {
			t.Fatalf("drained request %d: status %v", resp.ID, resp.Status)
		}
		if resp.Data[0] != 15 {
			t.Fatalf("drained request %d: got %v", resp.ID, resp.Data)
		}
	}
}

// TestSilentPeerDoesNotStallOthers: a connection that pipelines requests
// whose answers overflow the socket buffers, and never reads them,
// stalls only its own writer. Another connection's answers from the same
// lane keep arriving, window after window, long before WriteTimeout.
func TestSilentPeerDoesNotStallOthers(t *testing.T) {
	blas.Parallel(4, 2, func(lo, hi int) {})
	testutil.VerifyNoLeaks(t)
	s := startTestServer(t, Config{BatchWindow: 20 * time.Millisecond, WriteTimeout: 10 * time.Second})
	a, b := dialTest(t, s), dialTest(t, s)
	// A small receive buffer makes a few unread answers fill A's socket.
	a.nc.(*net.TCPConn).SetReadBuffer(1 << 16)

	// Width-4 Adds of 1<<16 elements: 2 MiB per answer. One goroutine
	// writes them, one per window, as long as the server reads them;
	// closing A's connection at cleanup ends it.
	const n = 1 << 16
	big := wire.Request{Op: wire.OpAdd, Width: 4, Count: n, X: make([]float64, 4*n), Y: make([]float64, 4*n)}
	sendA := make(chan uint64)
	defer close(sendA)
	go func() {
		for id := range sendA {
			big.ID = id
			if wire.WriteRequest(a.bw, &big) != nil || a.bw.Flush() != nil {
				return
			}
		}
	}()

	for k := uint64(0); k < 10; k++ {
		select {
		case sendA <- k:
			time.Sleep(5 * time.Millisecond) // let A's request reach the lane first
		case <-time.After(10 * time.Millisecond): // A's last write is stuck
		}
		b.send(t, &wire.Request{ID: k, Op: wire.OpAdd, Width: 4, Count: 1,
			X: []float64{1, 0, 0, 0}, Y: []float64{2, 0, 0, 0}})
		b.nc.SetReadDeadline(time.Now().Add(2 * time.Second))
		resp, err := wire.ReadResponse(b.br)
		if err != nil {
			t.Fatalf("window %d: B's answer did not arrive within 2 s: %v", k, err)
		}
		if resp.ID != k || resp.Status != wire.StatusOK || len(resp.Data) != 4 || resp.Data[0] != 3 {
			t.Fatalf("window %d: got id %d status %v data %v, want id %d ok [3 0 0 0]", k, resp.ID, resp.Status, resp.Data, k)
		}
	}
}
