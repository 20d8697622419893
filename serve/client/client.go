// Package client is the client for the mfserve compute service. It
// mirrors the mf package's API surface over the network: typed scalar
// and BLAS calls on Float64x2/x3/x4 values, with request deadlines
// taken from the context, transparent retries with jittered
// exponential backoff on transient failures (dial/IO errors, server
// overload — honoring the server's retry-after hint, and response
// integrity failures — see ErrIntegrity), and bit-exact results (the
// wire encoding is the raw component bit pattern, and every frame is
// CRC32C-verified, so a result that reaches the caller is exactly the
// one the server computed).
package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"multifloats/serve/wire"
)

// Typed failures. Transient conditions are retried internally up to the
// configured attempt budget; these surface once it is exhausted (or
// immediately for the non-retryable ones).
var (
	// ErrDeadlineExceeded: the server reported the request's deadline
	// passed before completion. Not retried (the deadline is gone).
	ErrDeadlineExceeded = errors.New("mfserve: deadline exceeded")
	// ErrOverloaded: the server shed the request and the retry budget ran
	// out.
	ErrOverloaded = errors.New("mfserve: server overloaded")
	// ErrBadRequest: the server rejected the request as invalid.
	ErrBadRequest = errors.New("mfserve: bad request")
	// ErrServer: the server reported an internal failure.
	ErrServer = errors.New("mfserve: internal server error")
	// ErrClosed: the client has been closed.
	ErrClosed = errors.New("mfserve: client closed")
	// ErrIntegrity: a response failed an integrity check — CRC32C trailer
	// mismatch, unparseable framing, or a request-ID desync. The bytes on
	// that connection cannot be trusted, so the connection is discarded
	// and the attempt retried on a fresh one (the request itself was fine;
	// only its transport failed). Distinct from the application-level
	// errors above: the server never vouched for a corrupted result.
	ErrIntegrity = errors.New("mfserve: response integrity failure")
)

// Option configures a Client.
type Option func(*Client)

// WithPoolSize caps idle pooled connections (default 8). Pooled
// connections carry BLAS calls, reductions and ReduceStreams; scalar
// calls share the client's one multiplexed connection instead.
func WithPoolSize(n int) Option { return func(c *Client) { c.poolSize = n } }

// WithMaxRetries sets the transient-failure retry budget per call
// (default 3 retries, i.e. up to 4 attempts).
func WithMaxRetries(n int) Option { return func(c *Client) { c.maxRetries = n } }

// WithBackoff sets the base and cap of the jittered exponential backoff
// between retries (defaults 2ms base, 250ms cap).
func WithBackoff(base, max time.Duration) Option {
	return func(c *Client) { c.backoffBase, c.backoffMax = base, max }
}

// WithDialTimeout bounds each dial attempt (default 5s).
func WithDialTimeout(d time.Duration) Option { return func(c *Client) { c.dialTimeout = d } }

// WithIOTimeout bounds each request/response exchange when the context
// carries no deadline (default 30s).
func WithIOTimeout(d time.Duration) Option { return func(c *Client) { c.ioTimeout = d } }

// WithReduceChunk sets how many expansion elements each streamed chunk
// of a reduction call carries (default 65536). The result is
// bit-identical for every chunk size — the server's superaccumulator is
// exact and order-independent — so this tunes only frame sizes and
// pipelining, never values.
func WithReduceChunk(n int) Option { return func(c *Client) { c.reduceChunk = n } }

// WithLazyDial skips Dial's eager reachability probe: the client is
// created immediately and connections are established on first use.
// This is what a proxy wants for its backends — a replica that is down
// at proxy start must not prevent the proxy from starting; it simply
// fails health checks until it comes back.
func WithLazyDial() Option { return func(c *Client) { c.lazyDial = true } }

// WithDialer overrides how connections are established — the hook for
// fault-injection harnesses (internal/netfault), proxies, or custom
// transports. The dialer must honor the timeout it is given.
func WithDialer(dial func(addr string, timeout time.Duration) (net.Conn, error)) Option {
	return func(c *Client) { c.dialFn = dial }
}

// Client is an mfserve client. Safe for concurrent use. Scalar calls
// (wire.Op.Scalar) are pipelined over one lazily dialed connection that
// they all share (mux.go). Every other call holds one pooled connection
// for its exchange.
type Client struct {
	addr        string
	poolSize    int
	maxRetries  int
	backoffBase time.Duration
	backoffMax  time.Duration
	dialTimeout time.Duration
	ioTimeout   time.Duration
	reduceChunk int
	lazyDial    bool
	dialFn      func(addr string, timeout time.Duration) (net.Conn, error)

	conns  chan *poolConn
	nextID atomic.Uint64
	closed atomic.Bool

	// muxMu guards the multiplexed connection's lifecycle: the live
	// connection and the dial in flight.
	muxMu   sync.Mutex
	mux     *muxConn
	muxDial *muxDial

	rngMu sync.Mutex
	rng   *rand.Rand
}

type poolConn struct {
	nc net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

// Dial creates a client for the server at addr and verifies reachability
// by establishing one pooled connection.
func Dial(addr string, opts ...Option) (*Client, error) {
	c := &Client{
		addr:        addr,
		poolSize:    8,
		maxRetries:  3,
		backoffBase: 2 * time.Millisecond,
		backoffMax:  250 * time.Millisecond,
		dialTimeout: 5 * time.Second,
		ioTimeout:   30 * time.Second,
		reduceChunk: 1 << 16,
		rng:         rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	for _, o := range opts {
		o(c)
	}
	if c.poolSize < 1 {
		c.poolSize = 1
	}
	if c.reduceChunk < 1 {
		c.reduceChunk = 1
	}
	c.conns = make(chan *poolConn, c.poolSize)
	if !c.lazyDial {
		pc, err := c.dial()
		if err != nil {
			return nil, fmt.Errorf("mfserve: dial %s: %w", addr, err)
		}
		c.put(pc)
	}
	return c, nil
}

// Close releases the client's connections. In-flight calls fail; those
// waiting on the multiplexed connection return ErrClosed. The pool
// channel is never closed (a concurrent put could panic on it); Close
// drains it non-blockingly and put discards stragglers.
func (c *Client) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	c.drainPool()
	c.closeMux()
	return nil
}

// drainPool closes every connection currently sitting idle in the pool.
func (c *Client) drainPool() {
	for {
		select {
		case pc := <-c.conns:
			pc.nc.Close()
		default:
			return
		}
	}
}

func (c *Client) dial() (*poolConn, error) {
	var nc net.Conn
	var err error
	if c.dialFn != nil {
		nc, err = c.dialFn(c.addr, c.dialTimeout)
	} else {
		nc, err = net.DialTimeout("tcp", c.addr, c.dialTimeout)
	}
	if err != nil {
		return nil, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return &poolConn{
		nc: nc,
		br: bufio.NewReaderSize(nc, 1<<16),
		bw: bufio.NewWriterSize(nc, 1<<16),
	}, nil
}

// get returns a pooled connection or dials a fresh one. A dial failure
// is retryable; a closed client is not.
func (c *Client) get() (*poolConn, error) {
	if c.closed.Load() {
		return nil, ErrClosed
	}
	select {
	case pc := <-c.conns:
		return pc, nil
	default:
	}
	pc, err := c.dial()
	if err != nil {
		return nil, &transientError{err: err}
	}
	return pc, nil
}

func (c *Client) put(pc *poolConn) {
	if c.closed.Load() {
		pc.nc.Close()
		return
	}
	select {
	case c.conns <- pc:
		// Close may have flipped the flag and finished its drain between
		// our check and the send; sweep again so the conn cannot leak.
		if c.closed.Load() {
			c.drainPool()
		}
	default:
		pc.nc.Close()
	}
}

// backoff returns the jittered delay before attempt n (1-based), at
// least floor (the server's retry-after hint when present).
func (c *Client) backoff(attempt int, floor time.Duration) time.Duration {
	d := c.backoffBase << uint(attempt-1)
	if d > c.backoffMax {
		d = c.backoffMax
	}
	c.rngMu.Lock()
	jittered := d/2 + time.Duration(c.rng.Int63n(int64(d/2)+1))
	c.rngMu.Unlock()
	if jittered < floor {
		jittered = floor
	}
	return jittered
}

// do performs one request with retries, returning the OK result slab.
func (c *Client) do(ctx context.Context, req *wire.Request) ([]float64, error) {
	return c.withRetries(ctx, func() ([]float64, error) { return c.try(ctx, req) })
}

// Do sends one already-shaped request and returns the OK result slab,
// with the same connection, retry, and typed-error behavior as the
// typed calls: a scalar request shares the multiplexed connection, any
// other holds a pooled one. This is the forwarding primitive for
// proxies and other wire-aware callers: req's Op/Width/Count/M/Hops and
// operand slabs are sent as given, while ID is assigned fresh per
// attempt and Deadline is taken from ctx (any caller-set values are
// overwritten). Failed attempts may leave req mutated; callers must not
// reuse the struct concurrently.
func (c *Client) Do(ctx context.Context, req *wire.Request) ([]float64, error) {
	return c.do(ctx, req)
}

// IsRetryable reports whether err — from any call on this package's
// clients — is a transient failure: one the client already retried up
// to its budget, and one a caller holding other replicas (a proxy, a
// multi-target loader) may safely fail over on, because the request
// was never definitively accepted-and-answered. Dial and transport
// errors, server overload, and response-integrity failures
// (ErrIntegrity) are retryable; ErrDeadlineExceeded, ErrBadRequest,
// ErrServer, ErrClosed, and context cancellation are terminal.
func IsRetryable(err error) bool {
	var te *transientError
	return errors.As(err, &te)
}

// withRetries runs one attempt of a call until it succeeds, fails
// permanently, or the transient-retry budget runs out — the shared
// engine behind single-request calls (do) and streaming reductions,
// whose unit of retry is the whole stream.
func (c *Client) withRetries(ctx context.Context, attemptFn func() ([]float64, error)) ([]float64, error) {
	var lastErr error
	var retryAfter time.Duration
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if attempt > c.maxRetries {
				return nil, fmt.Errorf("mfserve: %d attempts failed: %w", attempt, lastErr)
			}
			t := time.NewTimer(c.backoff(attempt, retryAfter))
			select {
			case <-ctx.Done():
				t.Stop()
				return nil, ctx.Err()
			case <-t.C:
			}
			retryAfter = 0
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		data, err := attemptFn()
		if err == nil {
			return data, nil
		}
		lastErr = err
		var to *transientError
		if !errors.As(err, &to) {
			return nil, err
		}
		retryAfter = to.retryAfter
	}
}

// transientError wraps retryable failures.
type transientError struct {
	err        error
	retryAfter time.Duration
}

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// integrityErr types a transport-integrity violation: still retryable
// (a fresh connection carries no taint), but distinguishable from the
// server rejecting or failing the request.
func integrityErr(err error) error {
	return &transientError{err: fmt.Errorf("%w: %w", ErrIntegrity, err)}
}

// readErr types a failed response read: ErrIntegrity when the bytes
// themselves cannot be trusted, a plain retryable error otherwise.
func readErr(err error) error {
	if wire.Untrusted(err) {
		return integrityErr(err)
	}
	return &transientError{err: err}
}

// statusErr maps a response status to its typed error (nil for
// StatusOK).
func statusErr(resp *wire.Response) error {
	switch resp.Status {
	case wire.StatusOK:
		return nil
	case wire.StatusOverloaded:
		return &transientError{
			err:        ErrOverloaded,
			retryAfter: time.Duration(resp.RetryAfterMs) * time.Millisecond,
		}
	case wire.StatusDeadlineExceeded:
		return ErrDeadlineExceeded
	case wire.StatusBadRequest:
		return ErrBadRequest
	default:
		return fmt.Errorf("%w (status %v)", ErrServer, resp.Status)
	}
}

// checkSlab checks an OK result slab against the requested shape.
func checkSlab(data []float64, want int) ([]float64, error) {
	if len(data) != want {
		return nil, fmt.Errorf("%w: result slab %d elements, want %d", ErrServer, len(data), want)
	}
	return data, nil
}

// ctxDeadline is ctx's deadline, or the zero time (no deadline).
func ctxDeadline(ctx context.Context) time.Time {
	if d, ok := ctx.Deadline(); ok {
		return d
	}
	return time.Time{}
}

// exchangeDeadline bounds one request/response exchange: ioTimeout from
// now, or just past the request deadline when that comes first, so the
// server's own deadline answer can still arrive.
func exchangeDeadline(ioTimeout time.Duration, deadline time.Time) time.Time {
	io := time.Now().Add(ioTimeout)
	if !deadline.IsZero() && deadline.Before(io) {
		io = deadline.Add(100 * time.Millisecond)
	}
	return io
}

// armDeadline bounds the connection's next exchange by exchangeDeadline.
func (pc *poolConn) armDeadline(ioTimeout time.Duration, deadline time.Time) {
	pc.nc.SetDeadline(exchangeDeadline(ioTimeout, deadline))
}

// recv reads the next response and checks that it answers request id.
// A failed read or a desynced ID leaves the connection's byte stream
// unusable, so recv closes it and returns a retryable error — typed
// ErrIntegrity when the bytes themselves cannot be trusted.
func (pc *poolConn) recv(id uint64) (*wire.Response, error) {
	resp, err := wire.ReadResponse(pc.br)
	if err == nil && resp.ID == id {
		return resp, nil
	}
	pc.nc.Close()
	if err == nil {
		// Stream desync (e.g. a stale response after a previous timeout
		// on this conn).
		return nil, integrityErr(fmt.Errorf("response id %d for request %d", resp.ID, id))
	}
	return nil, readErr(err)
}

// try performs a single attempt: a scalar request on the multiplexed
// connection, any other on one pooled connection.
func (c *Client) try(ctx context.Context, req *wire.Request) ([]float64, error) {
	req.ID = c.nextID.Add(1)
	req.Deadline = ctxDeadline(ctx)
	var resp *wire.Response
	var err error
	if req.Op.Scalar() {
		resp, err = c.exchangeMux(req)
	} else {
		resp, err = c.exchangePooled(req)
	}
	if err != nil {
		return nil, err
	}
	if err := statusErr(resp); err != nil {
		return nil, err
	}
	return checkSlab(resp.Data, wire.RespElems(req.Op, req.Width, req.Count, req.M))
}

// exchangePooled sends req on a pooled connection and reads its
// response, returning the connection to the pool afterwards.
func (c *Client) exchangePooled(req *wire.Request) (*wire.Response, error) {
	pc, err := c.get()
	if err != nil {
		return nil, err
	}
	pc.armDeadline(c.ioTimeout, req.Deadline)
	if err = wire.WriteRequest(pc.bw, req); err == nil {
		err = pc.bw.Flush()
	}
	if err != nil {
		pc.nc.Close()
		return nil, &transientError{err: err}
	}
	resp, err := pc.recv(req.ID)
	if err != nil {
		return nil, err
	}
	c.put(pc)
	return resp, nil
}
