package proxy

import (
	"bufio"
	"context"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"multifloats/internal/diffuzz"
	"multifloats/serve/server"
	"multifloats/serve/wire"
)

// TestProxyForwardsWithoutGoroutines parks 512 unique scalar forwards
// behind a backend's 2 s batch window. While they are parked the
// proxy's goroutine count stays near its baseline: a forward costs no
// goroutine. Then every forward is answered bit-exact.
func TestProxyForwardsWithoutGoroutines(t *testing.T) {
	s := server.New(server.Config{BatchWindow: 2 * time.Second, MaxBatch: 1024, Workers: 1})
	if err := s.Listen(); err != nil {
		t.Fatal(err)
	}
	b := &testBackend{s: s, done: make(chan error, 1), t: t}
	go func() { b.done <- s.Serve() }()
	t.Cleanup(b.stop)
	p := startProxy(t, Config{Backends: []string{b.addr()}, CacheBytes: -1, Seed: 1})
	base := runtime.NumGoroutine()

	const n = 512
	gen := diffuzz.NewGen(3)
	reqs := make([]*wire.Request, n)
	for i := range reqs {
		reqs[i] = &wire.Request{ID: uint64(i + 1), Op: wire.OpMul, Width: 2, Count: 1,
			X: gen.Positive(2, 200), Y: gen.NonZero(2, 200)}
	}
	nc := sendAll(t, p.Addr().String(), reqs)

	for deadline := time.Now().Add(5 * time.Second); s.Stats().Requests.Load() < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("backend received %d of %d forwards", s.Stats().Requests.Load(), n)
		}
	}
	if got := runtime.NumGoroutine(); got >= base+64 {
		t.Errorf("%d goroutines with %d forwards parked, baseline %d: want fewer than baseline + 64", got, n, base)
	}
	checkAnswers(t, nc, reqs)
}

// sendAll writes reqs on a fresh raw connection to addr and returns it.
func sendAll(t *testing.T, addr string, reqs []*wire.Request) net.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	bw := bufio.NewWriter(nc)
	for _, req := range reqs {
		if err := wire.WriteRequest(bw, req); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return nc
}

// checkAnswers reads one response per request from nc and checks each
// bit for bit against the local computation.
func checkAnswers(t *testing.T, nc net.Conn, reqs []*wire.Request) {
	t.Helper()
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(nc)
	for range reqs {
		resp, err := wire.ReadResponse(br)
		if err != nil {
			t.Fatal(err)
		}
		if resp.ID == 0 || resp.ID > uint64(len(reqs)) {
			t.Fatalf("response for unknown request %d", resp.ID)
		}
		req := reqs[resp.ID-1]
		if want := localScalar(req.Op, req.Width, req.X, req.Y); resp.Status != wire.StatusOK || !bitsEqual(resp.Data, want) {
			t.Fatalf("request %d: status %v, data %v, want %v", resp.ID, resp.Status, resp.Data, want)
		}
	}
}

// dropFirstBackend is a scripted backend that answers scalar frames by
// local computation, except on its first connection: that one answers
// nothing and is dropped once it has taken dropAfter frames, so every
// forward on it fails at once.
type dropFirstBackend struct {
	ln      net.Listener
	accepts atomic.Int64
}

func startDropFirstBackend(t *testing.T, dropAfter int) *dropFirstBackend {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fb := &dropFirstBackend{ln: ln}
	var wg sync.WaitGroup
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			first := fb.accepts.Add(1) == 1
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer nc.Close()
				br, bw := bufio.NewReader(nc), bufio.NewWriter(nc)
				for taken := 1; ; taken++ {
					req, err := wire.ReadRequest(br)
					if err != nil {
						return
					}
					if first {
						if taken == dropAfter {
							return
						}
						continue
					}
					resp := &wire.Response{ID: req.ID, Status: wire.StatusOK, Data: localScalar(req.Op, req.Width, req.X, req.Y)}
					if wire.WriteResponse(bw, resp) != nil {
						return
					}
					if br.Buffered() == 0 && bw.Flush() != nil {
						return
					}
				}
			}()
		}
	}()
	return fb
}

// TestProxyNoEjectionOnDroppedUpstream drops a backend's first upstream
// connection under 64 forwards. Each forward spends the backend
// client's retry budget over one re-dial before the proxy would fail
// over, so every request is answered OK and bit-exact, and the backend
// is never ejected.
func TestProxyNoEjectionOnDroppedUpstream(t *testing.T) {
	const dropAfter = 64
	fb := startDropFirstBackend(t, dropAfter)
	p := startProxy(t, Config{Backends: []string{fb.ln.Addr().String()}, CacheBytes: -1, FailThreshold: 3, Seed: 2})
	if err := pipelineScalars(p.Addr().String(), 9, 4*dropAfter, 2*dropAfter); err != nil {
		t.Fatal(err)
	}
	if n := fb.accepts.Load(); n != 2 {
		t.Errorf("backend accepted %d connections, want 2: the dropped one and one re-dial", n)
	}
	if n := p.Stats().Ejections.Load(); n != 0 {
		t.Errorf("Ejections = %d after one dropped upstream connection, want 0", n)
	}
}

// TestProxyStuckPeerStallsNoOne: one downstream peer sends and never
// reads. Another connection's requests still complete promptly and
// bit-exact; the proxy stops reading from the stuck peer once its
// queued responses pass one write buffer; and Shutdown, with that peer
// still stuck, returns within its ctx.
func TestProxyStuckPeerStallsNoOne(t *testing.T) {
	b := startBackendAt(t, "127.0.0.1:0")
	p, err := New(Config{Backends: []string{b.addr()}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Listen(); err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- p.Serve() }()
	// Shuts the proxy down if the test stops early; a no-op after the
	// Shutdown below.
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		p.Shutdown(ctx)
	})

	stuck, err := net.Dial("tcp", p.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stuck.Close()
	stuck.(*net.TCPConn).SetReadBuffer(4096)
	// The same 4096-element multiply over and over: after the first it is
	// a cache hit, so each request queues a 64 KiB response at once.
	x := make([]float64, 2*4096)
	for i := range x {
		x[i] = float64(i%97) + 0.5
	}
	writing := make(chan struct{})
	go func() {
		defer close(writing)
		bw := bufio.NewWriter(stuck)
		for id := uint64(1); ; id++ {
			req := &wire.Request{ID: id, Op: wire.OpMul, Width: 2, Count: 4096, X: x, Y: x}
			if wire.WriteRequest(bw, req) != nil || bw.Flush() != nil {
				return
			}
		}
	}()

	// Wait for the proxy to stop reading the stuck peer.
	requests := &p.Stats().Requests
	last := int64(-1)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(300 * time.Millisecond) {
		n := requests.Load()
		if n == last && n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("proxy still reading the stuck peer after 10 s: %d requests", n)
		}
		last = n
	}

	const frames = 1000
	start := time.Now()
	if err := pipelineScalars(p.Addr().String(), 11, frames, 64); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("%d requests beside a stuck peer took %v, want under 2 s", frames, elapsed)
	}
	time.Sleep(200 * time.Millisecond)
	if n := requests.Load(); n != last+frames {
		t.Errorf("proxy read %d more requests from the stuck peer", n-last-frames)
	}
	select {
	case <-writing:
		t.Fatal("the stuck peer's writes failed; it should still be blocked writing")
	default:
	}

	const budget = time.Second
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	start = time.Now()
	p.Shutdown(ctx)
	if elapsed := time.Since(start); elapsed > budget+500*time.Millisecond {
		t.Errorf("Shutdown beside a stuck peer took %v, want at most its %v ctx", elapsed, budget)
	}
	if err := <-served; err != nil {
		t.Errorf("Serve: %v", err)
	}
}
