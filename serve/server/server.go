// Package server implements the mfserve network service: a TCP listener
// speaking the serve/wire protocol, a per-(op,width) batching scheduler
// that coalesces compatible scalar requests into vectorized slabs
// executed on the internal/blas worker pool, bounded queues with
// reject-with-retry-after backpressure, per-request deadline enforcement
// (a scalar request's lane compares its wire deadline with the clock;
// BLAS and reduction frames run under a context bounded by it), and
// graceful drain on shutdown.
//
// Request flow: each connection gets a reader goroutine. Scalar requests
// (the Add/Sub/Mul/Div/Sqrt arithmetic and the Exp..Hypot transcendental
// family) are enqueued on their lane and answered asynchronously when the
// lane flushes (batch full, window expired, or a member deadline
// imminent). BLAS requests (Axpy/Dot/Gemv/Gemm) are
// already slab-shaped, so they execute immediately on the reader
// goroutine against the specialized parallel kernels. Every response is
// queued on its connection's writer goroutine (serve/internal/daemon),
// which writes all that is queued with one flush. The lanes flush
// together on one shared timer tick, so their answers to a connection
// share a write, and neither a lane nor a reader ever waits on a peer.
package server

import (
	"time"

	"multifloats/internal/blas"
	"multifloats/mf"
	"multifloats/serve/internal/daemon"
	"multifloats/serve/wire"
)

// Local aliases keep the executor's signatures readable.
type (
	mfF2 = mf.Float64x2
	mfF3 = mf.Float64x3
	mfF4 = mf.Float64x4
)

// Config tunes a Server. Zero values take the documented defaults.
type Config struct {
	// Addr is the TCP listen address (default "127.0.0.1:0").
	Addr string
	// BatchWindow is the maximum time a scalar request waits for
	// batch-mates before its lane flushes (0 takes the default, 200µs).
	// A negative value disables coalescing: every request executes
	// immediately on arrival.
	BatchWindow time.Duration
	// MaxBatch is the flush threshold in requests per lane (default 256;
	// 1 disables coalescing).
	MaxBatch int
	// QueueDepth bounds each lane's pending queue; arrivals beyond it are
	// rejected with StatusOverloaded (default 4096).
	QueueDepth int
	// Workers is the kernel parallelism for slab and BLAS execution
	// (default blas.Workers(), i.e. GOMAXPROCS).
	Workers int
	// MaxDim bounds a single request's operand size (expansion elements
	// per slab) so one frame cannot monopolize the server (default 1<<20).
	// It is checked from the frame header, before the body is buffered.
	MaxDim int
	// IdleTimeout bounds how long a connection may take to deliver its
	// next complete request frame (covering both idle gaps and mid-frame
	// stalls), so a slow-loris peer cannot pin a reader goroutine forever.
	// 0 takes the default (2 minutes); negative disables the timeout.
	IdleTimeout time.Duration
	// WriteTimeout bounds each write+flush of a connection's queued
	// responses, so a peer that stops reading has its connection closed
	// rather than pinning its writer goroutine on a full TCP window.
	// 0 takes the default (30 seconds); negative disables the timeout.
	WriteTimeout time.Duration
}

func (c *Config) fillDefaults() {
	if c.BatchWindow == 0 {
		c.BatchWindow = 200 * time.Microsecond
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4096
	}
	if c.Workers <= 0 {
		c.Workers = blas.Workers()
	}
	if c.MaxDim <= 0 {
		c.MaxDim = 1 << 20
	}
}

// Server is one mfserve instance. Its Listen, Addr, Serve,
// ListenAndServe, ServeListener and Shutdown methods come from the
// daemon skeleton it shares with mfproxy (serve/internal/daemon): the
// listener, connection set, frame read loop and drain order. Shutdown
// stops accepting, fences new requests (answered StatusOverloaded),
// flushes every lane so already-admitted requests complete, then
// unblocks connection readers and waits for them up to ctx's deadline.
// It does not close the blas worker pool — that is the process owner's
// call (cmd/mfserved closes it on exit).
type Server struct {
	*core
	cfg   Config
	lanes map[laneKey]*lane
	stats Stats
}

// core is daemon.Daemon under an unexported name, so embedding it adds
// methods but no exported field.
type core = daemon.Daemon

// New returns an unstarted server.
func New(cfg Config) *Server {
	cfg.fillDefaults()
	s := &Server{cfg: cfg, lanes: make(map[laneKey]*lane)}
	// Every Scalar op — arithmetic and transcendental — gets a batching
	// lane per width. The op code space has gaps, so walk it and filter.
	for op := wire.OpAdd; op <= wire.OpHypot; op++ {
		if !op.Scalar() {
			continue
		}
		for w := 2; w <= 4; w++ {
			s.lanes[laneKey{op, w}] = &lane{s: s, op: op, width: w}
		}
	}
	s.core = daemon.New(daemon.Config{
		Addr:         cfg.Addr,
		IdleTimeout:  cfg.IdleTimeout,
		WriteTimeout: cfg.WriteTimeout,
		MaxDim:       cfg.MaxDim,
		Stats:        &s.stats.counters,
		Open:         func(c *daemon.Conn) daemon.Handler { return &srvConn{Conn: c, s: s} },
		Drain: func() {
			for _, l := range s.lanes {
				l.drain()
			}
		},
	})
	return s
}

// Stats exposes the server's counters.
func (s *Server) Stats() *Stats { return &s.stats }

// srvConn is one accepted connection's handler.
type srvConn struct {
	*daemon.Conn
	s *Server

	// reds holds this connection's open streaming reductions, keyed by
	// request ID. Only the reader goroutine touches it (reductions
	// execute inline like BLAS ops), so no locking; lazily allocated on
	// the first reduction. See reduce.go.
	reds map[uint64]*reduction
}

// Close releases the connection's open reductions.
func (c *srvConn) Close() { c.dropAllReductions() }

// Handle dispatches one validated request. Every answer goes to the
// connection's queued writer, so Handle never waits on the peer.
func (c *srvConn) Handle(req *wire.Request) {
	if req.Op.Scalar() {
		c.s.lanes[laneKey{req.Op, req.Width}].enqueue(&pending{
			c: c, id: req.ID, deadline: req.Deadline,
			count: req.Count, x: req.X, y: req.Y,
		})
		return
	}
	ctx, cancel := c.RequestContext(req)
	defer cancel()

	// Streaming reductions fold on the reader goroutine, keeping the
	// per-connection accumulator state single-threaded.
	if req.Op.Reduction() {
		resp := c.handleReduce(ctx, req)
		c.QueueResponse(&resp)
		return
	}

	// BLAS ops are already slab-shaped; execute on this goroutine.
	var out []float64
	if ctx.Err() == nil {
		out = execBlas(req, c.s.cfg.Workers)
	}
	if ctx.Err() != nil {
		// Expired before executing, or while computing: the client has
		// given up; honor the contract and fail the request.
		c.s.stats.DeadlineMisses.Add(1)
		c.QueueResponse(&wire.Response{ID: req.ID, Status: wire.StatusDeadlineExceeded})
		return
	}
	c.QueueResponse(&wire.Response{ID: req.ID, Status: wire.StatusOK, Data: out})
}
