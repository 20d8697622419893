// Package daemon is the connection machinery mfserved (serve/server) and
// mfproxy (serve/proxy) share: the listener and its accept loop, the
// connection set and the graceful-drain order, coarse deadline arming,
// the frame read loop with its failure classification, the locked
// write+flush of responses, and the counters every daemon keeps. A
// daemon supplies only what differs: a Handler per connection and its
// shutdown hooks.
package daemon

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"multifloats/serve/wire"
)

// Config is the part of a daemon's configuration the skeleton runs on.
type Config struct {
	// Addr is the TCP listen address (default "127.0.0.1:0").
	Addr string
	// IdleTimeout bounds how long a connection may take to deliver its
	// next complete request frame (default 2 minutes; negative disables).
	IdleTimeout time.Duration
	// WriteTimeout bounds each response write+flush (default 30 seconds;
	// negative disables).
	WriteTimeout time.Duration
	// Stats receives the skeleton's counts.
	Stats *Counters
	// Open returns the handler for a newly accepted connection.
	Open func(*Conn) Handler
	// Drain, if set, runs during Shutdown once the listener is closed and
	// new requests are fenced off, before parked readers are woken.
	Drain func()
	// Closed, if set, runs last in Shutdown, after every connection is
	// closed.
	Closed func()
}

// Handler serves the requests of one connection. Its methods run on the
// connection's reader goroutine.
type Handler interface {
	// Handle serves one request that passed wire.Request.Validate. A
	// non-nil return closes the connection.
	Handle(req *wire.Request) error
	// Close releases the handler's state once the connection has ended.
	Close()
}

// Daemon owns a listener and the connections accepted on it.
type Daemon struct {
	cfg    Config
	ln     net.Listener
	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	conns    map[*Conn]struct{}
	draining bool
	connWG   sync.WaitGroup
}

// New returns an unstarted daemon. Zero Addr, IdleTimeout and
// WriteTimeout take their defaults.
func New(cfg Config) *Daemon {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = 2 * time.Minute
	}
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = 30 * time.Second
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Daemon{cfg: cfg, ctx: ctx, cancel: cancel, conns: make(map[*Conn]struct{})}
}

// Listen binds the configured address. Call before Serve; Addr is valid
// afterwards (useful with ":0").
func (d *Daemon) Listen() error {
	ln, err := net.Listen("tcp", d.cfg.Addr)
	if err != nil {
		return err
	}
	d.ln = ln
	return nil
}

// Addr returns the bound listen address (nil before Listen).
func (d *Daemon) Addr() net.Addr {
	if d.ln == nil {
		return nil
	}
	return d.ln.Addr()
}

// Serve accepts connections until Shutdown (or a fatal listener error).
// It returns nil after a clean shutdown.
func (d *Daemon) Serve() error {
	if d.ln == nil {
		if err := d.Listen(); err != nil {
			return err
		}
	}
	for {
		nc, err := d.ln.Accept()
		if err != nil {
			if d.isDraining() || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		if tc, ok := nc.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		c := &Conn{
			d:  d,
			nc: nc,
			br: bufio.NewReaderSize(nc, 1<<16),
			bw: bufio.NewWriterSize(nc, 1<<16),
		}
		d.mu.Lock()
		if d.draining {
			d.mu.Unlock()
			nc.Close()
			continue
		}
		d.conns[c] = struct{}{}
		d.mu.Unlock()
		d.cfg.Stats.ActiveConns.Add(1)
		d.connWG.Add(1)
		go func() {
			defer d.connWG.Done()
			c.serve(d.cfg.Open(c))
		}()
	}
}

// ListenAndServe is Listen followed by Serve.
func (d *Daemon) ListenAndServe() error {
	if err := d.Listen(); err != nil {
		return err
	}
	return d.Serve()
}

// ServeListener serves on a caller-provided listener instead of binding
// the configured address — the hook for wrapping the accept path (e.g.
// internal/netfault's fault-injecting listener, or a TLS listener). The
// daemon takes ownership: Shutdown closes it.
func (d *Daemon) ServeListener(ln net.Listener) error {
	// The assignment is fenced by mu because Shutdown (another goroutine)
	// reads d.ln; losing the race to a concurrent Shutdown means the
	// daemon was stopped before it started — close and exit rather than
	// accept on a listener nobody will ever close.
	d.mu.Lock()
	d.ln = ln
	draining := d.draining
	d.mu.Unlock()
	if draining {
		ln.Close()
		return nil
	}
	return d.Serve()
}

func (d *Daemon) isDraining() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.draining
}

// Shutdown drains gracefully: stop accepting, fence new requests (they
// are answered StatusOverloaded), run the Drain hook, then unblock
// connection readers and wait for them up to ctx's deadline; finally
// close every connection and run the Closed hook. Later calls return nil
// at once.
func (d *Daemon) Shutdown(ctx context.Context) error {
	d.mu.Lock()
	if d.draining {
		d.mu.Unlock()
		return nil
	}
	d.draining = true
	ln := d.ln
	d.mu.Unlock()

	if ln != nil {
		ln.Close()
	}
	if d.cfg.Drain != nil {
		d.cfg.Drain()
	}
	// Unblock readers parked in Read; draining readers exit on the timeout
	// error instead of treating it as a peer failure.
	d.mu.Lock()
	for c := range d.conns {
		c.nc.SetReadDeadline(time.Now())
	}
	d.mu.Unlock()

	done := make(chan struct{})
	go func() {
		d.connWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	d.cancel()
	d.mu.Lock()
	for c := range d.conns {
		c.nc.Close()
	}
	d.mu.Unlock()
	if d.cfg.Closed != nil {
		d.cfg.Closed()
	}
	return err
}

// Conn is one accepted connection.
type Conn struct {
	d  *Daemon
	nc net.Conn
	br *bufio.Reader

	// rArmed/wArmed are when the read/write deadlines were last pushed
	// out. Deadline arming is coarse: SetReadDeadline/SetWriteDeadline go
	// through the runtime poller's timer bookkeeping, which is far too
	// expensive to pay per frame at millions of frames per second, so the
	// deadline is re-armed only once it is stale by a quarter of the
	// budget. A peer that goes silent is therefore cut off after between
	// 0.75× and 1× the configured timeout — the guarantee never loosens.
	rArmed time.Time

	wmu    sync.Mutex
	bw     *bufio.Writer
	wArmed time.Time
}

// serve is the connection's read loop: read a frame, classify a failed
// read, fence requests that arrive during a drain, reject invalid ones,
// and hand the rest to h.
func (c *Conn) serve(h Handler) {
	d := c.d
	defer func() {
		d.mu.Lock()
		delete(d.conns, c)
		d.mu.Unlock()
		d.cfg.Stats.ActiveConns.Add(-1)
		c.nc.Close()
		h.Close()
	}()
	for {
		// Arm the idle/stall timeout for the next frame: the deadline
		// covers the whole frame read, so a peer that trickles a frame one
		// byte at a time is bounded exactly like a silent one.
		if t := d.cfg.IdleTimeout; t > 0 {
			if now := time.Now(); now.Sub(c.rArmed) > t/4 {
				c.rArmed = now
				c.nc.SetReadDeadline(now.Add(t))
				// Shutdown sets draining before it wakes parked readers, so
				// a re-arm that lands after the wake-up sees the flag here
				// and wakes this reader itself.
				if d.isDraining() {
					c.nc.SetReadDeadline(now)
				}
			}
		}
		req, err := wire.ReadRequest(c.br)
		if err != nil {
			// EOF and peer resets are normal disconnects; framing errors
			// poison the stream; a checksum mismatch means the bytes cannot
			// be trusted at all. Every case ends the connection — but the
			// recognizable failure classes are counted first.
			var ne net.Error
			switch {
			case errors.Is(err, wire.ErrChecksum):
				d.cfg.Stats.ChecksumErrors.Add(1)
			case wire.Untrusted(err):
				d.cfg.Stats.ProtocolErrors.Add(1)
			case errors.As(err, &ne) && ne.Timeout() && !d.isDraining():
				d.cfg.Stats.IdleTimeouts.Add(1)
			}
			return
		}
		d.cfg.Stats.Requests.Add(1)
		switch {
		case d.isDraining():
			c.WriteResponse(&wire.Response{ID: req.ID, Status: wire.StatusOverloaded, RetryAfterMs: 1000})
			return
		case req.Validate() != nil:
			d.cfg.Stats.ProtocolErrors.Add(1)
			err = c.WriteResponse(&wire.Response{ID: req.ID, Status: wire.StatusBadRequest})
		default:
			err = h.Handle(req)
		}
		if err != nil {
			return
		}
	}
}

// RequestContext returns the context a request runs under: the daemon's
// base context (cancelled at the end of Shutdown), bounded by the
// request's deadline when it carries one.
func (c *Conn) RequestContext(req *wire.Request) (context.Context, context.CancelFunc) {
	if req.Deadline.IsZero() {
		return c.d.ctx, func() {}
	}
	return context.WithDeadline(c.d.ctx, req.Deadline)
}

// lockWriter takes the write lock and arms the write deadline (coarsely,
// like the read side).
func (c *Conn) lockWriter() {
	c.wmu.Lock()
	if t := c.d.cfg.WriteTimeout; t > 0 {
		if now := time.Now(); now.Sub(c.wArmed) > t/4 {
			c.wArmed = now
			c.nc.SetWriteDeadline(now.Add(t))
		}
	}
}

// WriteResponse writes resp and flushes. Write errors are swallowed (the
// reader goroutine observes the broken connection and tears down); the
// error return only signals "stop serving this conn".
func (c *Conn) WriteResponse(resp *wire.Response) error {
	c.lockWriter()
	defer c.wmu.Unlock()
	if err := wire.WriteResponse(c.bw, resp); err != nil {
		return fmt.Errorf("write response: %w", err)
	}
	c.d.cfg.Stats.Responses.Add(1)
	return c.bw.Flush()
}

// WriteResponses writes a group of responses and flushes once: one lock
// hold, one counter update, one syscall for the whole group. Write
// errors are swallowed, as in WriteResponse.
func (c *Conn) WriteResponses(resps []wire.Response) {
	c.lockWriter()
	n := 0
	for i := range resps {
		if wire.WriteResponse(c.bw, &resps[i]) != nil {
			break
		}
		n++
	}
	c.bw.Flush()
	c.wmu.Unlock()
	c.d.cfg.Stats.Responses.Add(int64(n))
}
