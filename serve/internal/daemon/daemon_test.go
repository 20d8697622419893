package daemon_test

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"multifloats/serve/proxy"
	"multifloats/serve/server"
	"multifloats/serve/wire"
)

// The edge cases of the shared read loop, run against both daemons that
// embed it. Each case gets a fresh daemon, so every counter starts at 0.

// daemonUnderTest is the part of a Server or Proxy the edge cases use.
type daemonUnderTest struct {
	serveListener func(net.Listener) error
	shutdown      func(context.Context) error

	checksumErrors, protocolErrors *atomic.Int64
	idleTimeouts, activeConns      *atomic.Int64
}

var daemons = []struct {
	name string
	new  func(t *testing.T, idle time.Duration) daemonUnderTest
}{
	{"server", func(t *testing.T, idle time.Duration) daemonUnderTest {
		s := server.New(server.Config{IdleTimeout: idle})
		st := s.Stats()
		return daemonUnderTest{s.ServeListener, s.Shutdown,
			&st.ChecksumErrors, &st.ProtocolErrors, &st.IdleTimeouts, &st.ActiveConns}
	}},
	{"proxy", func(t *testing.T, idle time.Duration) daemonUnderTest {
		// Backends dial lazily, so only a case that forwards a request
		// contacts the backend.
		p, err := proxy.New(proxy.Config{Backends: []string{backend(t)}, IdleTimeout: idle})
		if err != nil {
			t.Fatal(err)
		}
		st := p.Stats()
		return daemonUnderTest{p.ServeListener, p.Shutdown,
			&st.ChecksumErrors, &st.ProtocolErrors, &st.IdleTimeouts, &st.ActiveConns}
	}},
}

// backend starts a server on loopback for a proxy to forward to and
// returns its address. Cleanup shuts it down.
func backend(t *testing.T) string {
	t.Helper()
	s := server.New(server.Config{})
	if err := s.Listen(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve() }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("backend Shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("backend Serve: %v", err)
		}
	})
	return s.Addr().String()
}

// serve starts d on a loopback listener and returns a connection to it.
// Cleanup shuts d down and checks that its accept loop returned nil.
func serve(t *testing.T, d daemonUnderTest) net.Conn {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- d.serveListener(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := d.shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("ServeListener: %v", err)
		}
	})
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return nc
}

// validFrame is a well-formed add request.
func validFrame(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	req := wire.Request{ID: 1, Op: wire.OpAdd, Width: 2, Count: 1, X: []float64{1, 0}, Y: []float64{2, 0}}
	if err := wire.WriteRequest(&buf, &req); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// roundTrip writes req and returns its answer, failing unless one
// carrying req's ID arrives within a few seconds.
func roundTrip(t *testing.T, nc net.Conn, br *bufio.Reader, req *wire.Request) *wire.Response {
	t.Helper()
	if err := wire.WriteRequest(nc, req); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := wire.ReadResponse(br)
	if err != nil {
		t.Fatalf("request %d: no answer: %v", req.ID, err)
	}
	if resp.ID != req.ID {
		t.Fatalf("request %d: answer carries id %d", req.ID, resp.ID)
	}
	return resp
}

// waitClosed fails unless the peer closes nc within a few seconds.
func waitClosed(t *testing.T, nc net.Conn) {
	t.Helper()
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	var buf [64]byte
	for {
		_, err := nc.Read(buf[:])
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			t.Fatal("connection still open")
		}
		if err != nil {
			return
		}
	}
}

// waitFor polls until v reaches want, failing after a few seconds.
func waitFor(t *testing.T, what string, v *atomic.Int64, want int64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); v.Load() != want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, want %d", what, v.Load(), want)
		}
	}
}

func TestDaemonEdges(t *testing.T) {
	cases := []struct {
		name string
		idle time.Duration // 0 takes the default
		run  func(t *testing.T, d daemonUnderTest)
	}{
		{"checksum", 0, func(t *testing.T, d daemonUnderTest) {
			nc := serve(t, d)
			f := validFrame(t)
			f[wire.HeaderSize+12] ^= 0x10 // a payload bit: the CRC32C trailer no longer matches
			nc.Write(f)
			waitClosed(t, nc)
			waitFor(t, "ChecksumErrors", d.checksumErrors, 1)
			if got := d.protocolErrors.Load(); got != 0 {
				t.Fatalf("ProtocolErrors = %d, want 0", got)
			}
		}},
		{"bad-magic", 0, func(t *testing.T, d daemonUnderTest) {
			nc := serve(t, d)
			f := validFrame(t)
			f[0] = 'X'
			nc.Write(f)
			waitClosed(t, nc)
			waitFor(t, "ProtocolErrors", d.protocolErrors, 1)
			if got := d.checksumErrors.Load(); got != 0 {
				t.Fatalf("ChecksumErrors = %d, want 0", got)
			}
		}},
		{"bad-request", 0, func(t *testing.T, d daemonUnderTest) {
			nc := serve(t, d)
			br := bufio.NewReader(nc)
			// An Add with a nonzero M decodes but fails Validate: the read
			// loop answers it and reads on.
			x, y := []float64{1, 0}, []float64{2, 0}
			if resp := roundTrip(t, nc, br, &wire.Request{ID: 7, Op: wire.OpAdd, Width: 2, Count: 1, M: 1, X: x, Y: y}); resp.Status != wire.StatusBadRequest {
				t.Fatalf("status %v, want %v", resp.Status, wire.StatusBadRequest)
			}
			waitFor(t, "ProtocolErrors", d.protocolErrors, 1)
			// The next frame is one both daemons answer themselves: the
			// server computes it, and the proxy rejects it as a loop
			// without forwarding.
			roundTrip(t, nc, br, &wire.Request{ID: 8, Op: wire.OpAdd, Width: 2, Count: 1, Hops: wire.MaxProxyHops, X: x, Y: y})
			if got := d.protocolErrors.Load(); got != 1 {
				t.Fatalf("ProtocolErrors = %d after a valid frame, want 1", got)
			}
		}},
		{"open-reductions", 0, func(t *testing.T, d daemonUnderTest) {
			nc := serve(t, d)
			br := bufio.NewReader(nc)
			chunk := func(id uint64, final bool) *wire.Request {
				req := &wire.Request{ID: id, Op: wire.OpSumExact, Width: 1, Count: 1, X: []float64{float64(id)}}
				if final {
					req.M = wire.FlagReduceFinal
				}
				return req
			}
			for id := uint64(1); id <= wire.MaxOpenReductions; id++ {
				if resp := roundTrip(t, nc, br, chunk(id, false)); resp.Status != wire.StatusOK {
					t.Fatalf("stream %d: status %v, want %v", id, resp.Status, wire.StatusOK)
				}
			}
			over := uint64(wire.MaxOpenReductions + 1)
			if resp := roundTrip(t, nc, br, chunk(over, false)); resp.Status != wire.StatusBadRequest {
				t.Fatalf("stream %d past the cap: status %v, want %v", over, resp.Status, wire.StatusBadRequest)
			}
			waitFor(t, "ProtocolErrors", d.protocolErrors, 1)
			// The connection still serves: stream 1 completes with the sum
			// of its two chunks, which frees a slot for the refused stream.
			resp := roundTrip(t, nc, br, chunk(1, true))
			if resp.Status != wire.StatusOK || len(resp.Data) != 1 || resp.Data[0] != 2 {
				t.Fatalf("stream 1 final: status %v data %v, want %v [2]", resp.Status, resp.Data, wire.StatusOK)
			}
			if resp := roundTrip(t, nc, br, chunk(over, false)); resp.Status != wire.StatusOK {
				t.Fatalf("stream %d after a slot freed: status %v, want %v", over, resp.Status, wire.StatusOK)
			}
			if got := d.protocolErrors.Load(); got != 1 {
				t.Fatalf("ProtocolErrors = %d, want 1", got)
			}
		}},
		{"idle-timeout", 100 * time.Millisecond, func(t *testing.T, d daemonUnderTest) {
			nc := serve(t, d)
			waitClosed(t, nc)
			waitFor(t, "IdleTimeouts", d.idleTimeouts, 1)
		}},
		{"shutdown-parked-reader", 0, func(t *testing.T, d daemonUnderTest) {
			nc := serve(t, d)
			waitFor(t, "ActiveConns", d.activeConns, 1)
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := d.shutdown(ctx); err != nil {
				t.Fatalf("Shutdown: %v", err)
			}
			waitClosed(t, nc)
			waitFor(t, "ActiveConns", d.activeConns, 0)
			if got := d.idleTimeouts.Load(); got != 0 {
				t.Fatalf("IdleTimeouts = %d after Shutdown woke a parked reader, want 0", got)
			}
		}},
		{"shutdown-before-serve", 0, func(t *testing.T, d daemonUnderTest) {
			if err := d.shutdown(context.Background()); err != nil {
				t.Fatalf("Shutdown: %v", err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() { done <- d.serveListener(ln) }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("ServeListener after Shutdown = %v, want nil", err)
				}
			case <-time.After(5 * time.Second):
				ln.Close()
				t.Fatal("ServeListener after Shutdown is accepting")
			}
			if _, err := ln.Accept(); !errors.Is(err, net.ErrClosed) {
				t.Fatalf("Accept on the handed-over listener = %v, want net.ErrClosed", err)
			}
		}},
	}
	for _, dm := range daemons {
		for _, tc := range cases {
			t.Run(dm.name+"/"+tc.name, func(t *testing.T) {
				tc.run(t, dm.new(t, tc.idle))
			})
		}
	}
}
