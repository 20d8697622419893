package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"multifloats/serve/proxy"
	"multifloats/serve/server"
)

// serverConfig is the configuration of every benchmarked server: the
// documented defaults, spelled out so the printed host facts are the
// values in force.
func serverConfig(workers int) server.Config {
	return server.Config{
		Addr:        "127.0.0.1:0",
		BatchWindow: 200 * time.Microsecond,
		MaxBatch:    256,
		QueueDepth:  4096,
		Workers:     workers,
		MaxDim:      1 << 20,
	}
}

// proxyConfig is the mfproxy configuration in front of two backends: the
// documented defaults, except a fixed probe-jitter seed and a 1 MiB
// result cache. Unique requests fill that during warm-up, so the
// measured phases see a full cache evicting at a steady rate rather than
// one whose memory grows with the request count.
func proxyConfig(backends []string, seed int64) proxy.Config {
	return proxy.Config{
		Addr:          "127.0.0.1:0",
		Backends:      backends,
		CacheBytes:    1 << 20,
		MaxInflight:   1024,
		FailThreshold: 3,
		ProbeAfter:    500 * time.Millisecond,
		LoadFactor:    1.25,
		ReduceShards:  2,
		ReplayBudget:  32 << 20,
		Seed:          seed,
	}
}

// stack is the set of in-process servers one run talks to.
type stack struct {
	backends []*server.Server // backends[0] is the direct target
	proxy    *proxy.Proxy
	pipe     *server.Server // served over an in-memory listener
	pipeLn   *pipeListener
	nowindow *server.Server // coalescing off: the batch window's counterfactual

	stops []func() error // in start order
}

// serve runs a server's accept loop and registers its shutdown.
func (st *stack) serve(serve func() error, shutdown func(context.Context) error) {
	done := make(chan error, 1)
	go func() { done <- serve() }()
	st.stops = append(st.stops, func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := shutdown(ctx)
		return errors.Join(err, <-done)
	})
}

func (st *stack) addServer(cfg server.Config) (*server.Server, error) {
	s := server.New(cfg)
	if err := s.Listen(); err != nil {
		return nil, fmt.Errorf("server listen: %w", err)
	}
	st.serve(s.Serve, s.Shutdown)
	return s, nil
}

// addBackends starts n TCP servers.
func (st *stack) addBackends(n, workers int) error {
	for i := 0; i < n; i++ {
		s, err := st.addServer(serverConfig(workers))
		if err != nil {
			return err
		}
		st.backends = append(st.backends, s)
	}
	return nil
}

// addProxy starts an mfproxy in front of every backend.
func (st *stack) addProxy(seed int64) error {
	addrs := make([]string, len(st.backends))
	for i, b := range st.backends {
		addrs[i] = b.Addr().String()
	}
	p, err := proxy.New(proxyConfig(addrs, seed))
	if err != nil {
		return err
	}
	if err := p.Listen(); err != nil {
		return fmt.Errorf("proxy listen: %w", err)
	}
	st.proxy = p
	st.serve(p.Serve, p.Shutdown)
	return nil
}

// addPipe starts a server on an in-memory listener.
func (st *stack) addPipe(workers int) {
	st.pipeLn = newPipeListener()
	st.pipe = server.New(serverConfig(workers))
	st.serve(func() error { return st.pipe.ServeListener(st.pipeLn) }, st.pipe.Shutdown)
}

// close shuts every server down, the last started first (the proxy before
// its backends), and waits for their accept loops to return.
func (st *stack) close() error {
	var errs []error
	for i := len(st.stops) - 1; i >= 0; i-- {
		errs = append(errs, st.stops[i]())
	}
	st.stops = nil
	return errors.Join(errs...)
}

func (st *stack) direct() target { return tcpTarget("server", st.backends[0].Addr().String()) }

func (st *stack) viaProxy() target { return tcpTarget("proxy", st.proxy.Addr().String()) }

func (st *stack) inMemory() target { return target{"in-memory server", st.pipeLn.dial} }

// pipeListener is a net.Listener whose connections live in memory, so the
// server's framing, CRC, batching and flushing run without TCP or any
// other kernel transport.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

// dial returns the client end of a new in-memory connection whose server
// end the listener accepts.
func (l *pipeListener) dial() (net.Conn, error) {
	up, down := newMemBuf(), newMemBuf()
	select {
	case l.conns <- &memConn{in: up, out: down}:
		return &memConn{in: down, out: up}, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "memory" }
func (pipeAddr) String() string  { return "in-memory" }

// memConn is one end of an in-memory connection. Writes append to the
// peer's inbound buffer and never block: like a socket's kernel buffers
// (and unlike net.Pipe), this lets both peers write ahead of each
// other's reads, which pipelined requests and streamed reduction chunks
// rely on. The protocol's own windows bound the buffered bytes.
type memConn struct {
	in, out *memBuf
}

func (c *memConn) Read(p []byte) (int, error)  { return c.in.read(p) }
func (c *memConn) Write(p []byte) (int, error) { return c.out.write(p) }

func (c *memConn) Close() error {
	c.in.close()
	c.out.close()
	return nil
}

func (c *memConn) LocalAddr() net.Addr  { return pipeAddr{} }
func (c *memConn) RemoteAddr() net.Addr { return pipeAddr{} }

func (c *memConn) SetDeadline(t time.Time) error { return c.SetReadDeadline(t) }

func (c *memConn) SetReadDeadline(t time.Time) error {
	c.in.mu.Lock()
	c.in.deadline = t
	c.in.mu.Unlock()
	c.in.wake()
	return nil
}

// SetWriteDeadline has nothing to bound: writes never block.
func (c *memConn) SetWriteDeadline(time.Time) error { return nil }

// memBuf is one direction of a memConn, read by one goroutine at a time.
type memBuf struct {
	mu       sync.Mutex
	buf      []byte
	off      int // read position in buf
	closed   bool
	deadline time.Time
	ready    chan struct{} // capacity 1: new bytes, close, or a new deadline
}

func newMemBuf() *memBuf { return &memBuf{ready: make(chan struct{}, 1)} }

func (b *memBuf) wake() {
	select {
	case b.ready <- struct{}{}:
	default:
	}
}

func (b *memBuf) write(p []byte) (int, error) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return 0, net.ErrClosed
	}
	b.buf = append(b.buf, p...)
	b.mu.Unlock()
	b.wake()
	return len(p), nil
}

func (b *memBuf) read(p []byte) (int, error) {
	for {
		b.mu.Lock()
		if b.off < len(b.buf) {
			n := copy(p, b.buf[b.off:])
			b.off += n
			if b.off == len(b.buf) {
				b.buf, b.off = b.buf[:0], 0
			} else if b.off > 1<<16 && b.off > len(b.buf)/2 {
				// A reader that never quite catches up: reclaim the front.
				b.buf, b.off = b.buf[:copy(b.buf, b.buf[b.off:])], 0
			}
			b.mu.Unlock()
			return n, nil
		}
		closed, deadline := b.closed, b.deadline
		b.mu.Unlock()
		if closed {
			return 0, io.EOF
		}
		if deadline.IsZero() {
			<-b.ready
			continue
		}
		wait := time.Until(deadline)
		if wait <= 0 {
			return 0, os.ErrDeadlineExceeded
		}
		t := time.NewTimer(wait)
		select {
		case <-b.ready:
		case <-t.C:
		}
		t.Stop()
	}
}

func (b *memBuf) close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	b.wake()
}
