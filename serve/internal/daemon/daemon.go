// Package daemon is the connection machinery mfserved (serve/server) and
// mfproxy (serve/proxy) share: the listener and its accept loop, the
// connection set and the graceful-drain order, coarse deadline arming,
// the frame read loop with its failure classification, the one way to
// send a response (QueueResponse: a per-connection queue that a writer
// goroutine drains with one flush), and the counters every daemon keeps.
// A daemon supplies only what differs: a Handler per connection and its
// shutdown hooks.
package daemon

import (
	"bufio"
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
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
	// WriteTimeout bounds each write+flush of a connection's queued
	// responses; a write that runs past it ends the connection (default
	// 30 seconds; negative disables).
	WriteTimeout time.Duration
	// MaxDim, if positive, bounds each request's operand slabs in
	// expansion elements. The decoder applies it from the frame header
	// (wire.ReadRequestMax), so an oversized request's body is never
	// buffered; the request is answered StatusBadRequest.
	MaxDim int
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
	// Handle serves one request that passed wire.Request.Validate. It
	// answers through Conn.QueueResponse and must not block on the peer.
	Handle(req *wire.Request)
	// Close releases the handler's state once the connection has ended.
	Close()
}

// Daemon owns a listener and the connections accepted on it.
type Daemon struct {
	cfg    Config
	ln     net.Listener
	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	conns  map[*Conn]struct{}
	drainc chan struct{} // closed under mu when draining starts
	connWG sync.WaitGroup
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
	return &Daemon{cfg: cfg, ctx: ctx, cancel: cancel, conns: make(map[*Conn]struct{}), drainc: make(chan struct{})}
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
			d:     d,
			nc:    nc,
			br:    bufio.NewReaderSize(nc, 1<<16),
			bw:    bufio.NewWriterSize(nc, 1<<16),
			kick:  make(chan struct{}, 1),
			room:  make(chan struct{}, 1),
			wdone: make(chan struct{}),
		}
		d.mu.Lock()
		if d.isDraining() {
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
	draining := d.isDraining()
	d.mu.Unlock()
	if draining {
		ln.Close()
		return nil
	}
	return d.Serve()
}

// isDraining reports whether Shutdown has begun.
func (d *Daemon) isDraining() bool {
	select {
	case <-d.drainc:
		return true
	default:
		return false
	}
}

// Shutdown drains gracefully: stop accepting, fence new requests (they
// are answered StatusOverloaded), run the Drain hook, then unblock
// connection readers and wait for them up to ctx's deadline; finally
// close every connection and run the Closed hook. Later calls return nil
// at once.
func (d *Daemon) Shutdown(ctx context.Context) error {
	d.mu.Lock()
	if d.isDraining() {
		d.mu.Unlock()
		return nil
	}
	close(d.drainc)
	ln := d.ln
	d.mu.Unlock()

	if ln != nil {
		ln.Close()
	}
	if d.cfg.Drain != nil {
		d.cfg.Drain()
	}
	// Unblock readers parked in Read; draining readers exit on the timeout
	// error instead of treating it as a peer failure. Readers parked on a
	// full response queue woke when drainc closed.
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

	// The queued writer (QueueResponse). Producers append to queue under
	// qmu; the writer goroutine, started by the first of them, takes the
	// whole queue at once and writes it through bw, which only it
	// touches, as it does wArmed.
	bw       *bufio.Writer
	wArmed   time.Time
	qmu      sync.Mutex
	queue    []wire.Response
	qstarted bool          // the writer goroutine runs
	qclosed  bool          // the connection is ending: drop new responses
	queued   atomic.Int64  // bytes queued and not yet written
	kick     chan struct{} // cap 1: the queue has work, or is closing
	room     chan struct{} // cap 1: the writer wrote a batch
	wdone    chan struct{} // closed when the writer goroutine exits
}

// maxQueued is how many bytes of queued responses a connection may hold
// before its reader stops reading: one write buffer.
const maxQueued = 1 << 16

// serve is the connection's read loop: read a frame, classify a failed
// read, fence requests that arrive during a drain, reject oversized and
// invalid ones, and hand the rest to h.
func (c *Conn) serve(h Handler) {
	d := c.d
	defer func() {
		c.stopWriter()
		d.mu.Lock()
		delete(d.conns, c)
		d.mu.Unlock()
		d.cfg.Stats.ActiveConns.Add(-1)
		c.nc.Close()
		h.Close()
	}()
	for {
		if !c.waitRoom() {
			return
		}
		// Arm the idle/stall timeout for the next frame: the deadline
		// covers the whole frame read, so a peer that trickles a frame one
		// byte at a time is bounded exactly like a silent one.
		if t := d.cfg.IdleTimeout; t > 0 {
			if now := time.Now(); now.Sub(c.rArmed) > t/4 {
				c.rArmed = now
				c.nc.SetReadDeadline(now.Add(t))
				// Shutdown closes drainc before it wakes parked readers, so
				// a re-arm that lands after the wake-up sees the flag here
				// and wakes this reader itself.
				if d.isDraining() {
					c.nc.SetReadDeadline(now)
				}
			}
		}
		req, err := wire.ReadRequestMax(c.br, d.cfg.MaxDim)
		oversized := errors.Is(err, wire.ErrMaxDim)
		if err != nil && !oversized {
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
			// Queued, then written by stopWriter on the way out.
			c.QueueResponse(&wire.Response{ID: req.ID, Status: wire.StatusOverloaded, RetryAfterMs: 1000})
			return
		case oversized || req.Validate() != nil:
			// The frame was read whole, so the stream is still aligned:
			// answer and read on.
			d.cfg.Stats.ProtocolErrors.Add(1)
			c.QueueResponse(&wire.Response{ID: req.ID, Status: wire.StatusBadRequest})
		default:
			h.Handle(req)
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

// QueueResponse hands resp to the connection's writer goroutine and
// returns without touching the socket, so it never blocks on the peer.
// It is the only way a daemon answers: the writer takes everything
// queued at once and writes it with one flush, so responses that arrive
// together from many goroutines (lanes flushing on one timer tick,
// upstream completions) share a syscall, and a slow peer stalls only
// its own writer. Once the connection has ended, or its writer has
// failed, responses are dropped. Write errors and WriteTimeout end the
// connection.
func (c *Conn) QueueResponse(resp *wire.Response) {
	c.qmu.Lock()
	if c.qclosed {
		c.qmu.Unlock()
		return
	}
	c.queue = append(c.queue, *resp)
	c.queued.Add(int64(wire.ResponseSize(resp)))
	if !c.qstarted {
		c.qstarted = true
		go c.writeLoop()
	}
	first := len(c.queue) == 1
	c.qmu.Unlock()
	if first {
		wake(c.kick)
	}
}

// wake posts a wake-up on a capacity-1 channel; one already pending
// suffices.
func wake(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// writeLoop is the queued writer: on each wake-up it takes the whole
// queue, writes it and flushes once. It exits after the batch that finds
// the queue closed, or on a write error, which also closes the
// connection so its reader stops.
func (c *Conn) writeLoop() {
	defer close(c.wdone)
	var spare []wire.Response
	for range c.kick {
		c.qmu.Lock()
		batch, closing := c.queue, c.qclosed
		c.queue = spare[:0]
		c.qmu.Unlock()
		if len(batch) > 0 {
			var n int64
			for i := range batch {
				n += int64(wire.ResponseSize(&batch[i]))
			}
			err := c.writeResponses(batch)
			clear(batch) // release the response slabs
			c.queued.Add(-n)
			wake(c.room)
			if err != nil {
				c.qmu.Lock()
				c.qclosed = true
				c.queue = nil
				c.qmu.Unlock()
				c.nc.Close()
				return
			}
		}
		spare = batch
		if closing {
			return
		}
	}
}

// writeResponses writes a drained batch and flushes once: one counter
// update and one syscall for the whole batch (more only for a response
// too large for the buffer, which streams straight from its slab). It
// arms the write deadline coarsely, like the read side, and returns the
// first write error.
func (c *Conn) writeResponses(resps []wire.Response) error {
	if t := c.d.cfg.WriteTimeout; t > 0 {
		if now := time.Now(); now.Sub(c.wArmed) > t/4 {
			c.wArmed = now
			c.nc.SetWriteDeadline(now.Add(t))
		}
	}
	n := 0
	var err error
	for i := range resps {
		if err = wire.WriteResponse(c.bw, &resps[i]); err != nil {
			break
		}
		n++
	}
	if err == nil {
		err = c.bw.Flush()
	}
	c.d.cfg.Stats.Responses.Add(int64(n))
	return err
}

// waitRoom parks the reader while more than maxQueued bytes of responses
// wait for the writer, so a peer that stops reading stops being read.
// Only the reader waits; producers always queue. It reports false when
// the connection should end instead: its writer failed, or the daemon
// is draining.
func (c *Conn) waitRoom() bool {
	for c.queued.Load() > maxQueued {
		select {
		case <-c.room:
		case <-c.wdone:
			return false
		case <-c.d.drainc:
			return false
		}
	}
	return true
}

// stopWriter closes the queue and, if the writer runs, waits for it to
// write what is queued and exit. A peer that does not read bounds that
// wait by WriteTimeout, or by Shutdown closing the connection.
func (c *Conn) stopWriter() {
	c.qmu.Lock()
	c.qclosed = true
	started := c.qstarted
	c.qmu.Unlock()
	if started {
		wake(c.kick)
		<-c.wdone
	}
}
