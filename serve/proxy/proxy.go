// Package proxy implements mfproxy: a wire-v2-speaking L7 cluster tier
// in front of N mfserved backends. It routes single-frame requests by
// consistent hash over the request's canonical operand-bit digest with
// bounded-load rebalancing (route.go), serves repeated requests from a
// content-addressed LRU result cache that bit-determinism makes always
// exact (cache.go), shards streaming reductions across backends and
// merges their raw superaccumulators (reduce.go), and fails attempts
// over between replicas on the client package's typed retryable errors
// with per-backend health scoring.
//
// The proxy adds no new trust boundary: ingress frames are CRC32C-
// verified by wire.ReadRequest before anything (routing, caching) sees
// them, upstream traffic rides serve/client (which verifies response
// CRCs; scalar forwards to one backend share its one pipelined
// connection), and egress frames are sealed by wire.WriteResponse.
// Proxy loops are structurally impossible past wire.MaxProxyHops: each
// tier increments the frame's hop count and rejects at the ceiling.
package proxy

import (
	"context"
	"errors"
	"fmt"
	"time"

	"multifloats/serve/client"
	"multifloats/serve/internal/daemon"
	"multifloats/serve/wire"
)

// Config tunes a Proxy. Zero values take the documented defaults.
type Config struct {
	// Addr is the TCP listen address (default "127.0.0.1:0").
	Addr string
	// Backends are the mfserved addresses (1..64 of them). Connections
	// are established lazily, so backends may be down at proxy start.
	Backends []string
	// CacheBytes bounds the result cache (default 64 MiB; negative
	// disables caching).
	CacheBytes int64
	// MaxInflight bounds concurrently forwarded single-frame requests;
	// beyond it the proxy answers StatusOverloaded (default 1024).
	MaxInflight int
	// FailThreshold is the consecutive retryable-failure count that
	// ejects a backend (default 3).
	FailThreshold int
	// ProbeAfter is the ejection cooldown before a backend is probed
	// half-open; up to 50% seeded jitter is added (default 500ms).
	ProbeAfter time.Duration
	// LoadFactor is the bounded-load multiple of the fleet-average
	// in-flight count a backend may carry (default 1.25).
	LoadFactor float64
	// ReduceShards is how many backends a streamed reduction is split
	// across (default 2, clamped to len(Backends)).
	ReduceShards int
	// ReplayBudget bounds the bytes of chunks buffered per reduction
	// stream for failover replay; past it the stream completes normally
	// but a shard failure fails the stream instead of resharding
	// (default 32 MiB). The downstream client's whole-stream retry is
	// the backstop either way — results are never inexact.
	ReplayBudget int64
	// Seed seeds the probe-jitter RNG (0 takes a time-based seed). Fixed
	// seeds make chaos campaigns reproducible.
	Seed int64
	// IdleTimeout bounds the wait for a downstream connection's next
	// complete frame (default 2 minutes; negative disables).
	IdleTimeout time.Duration
	// WriteTimeout bounds each downstream response write+flush (default
	// 30 seconds; negative disables).
	WriteTimeout time.Duration
	// ClientOptions are appended to every backend client's options —
	// the hook for fault-injecting dialers and test-sized tuning.
	ClientOptions []client.Option
}

func (c *Config) fillDefaults() {
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 1024
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.ProbeAfter <= 0 {
		c.ProbeAfter = 500 * time.Millisecond
	}
	if c.LoadFactor <= 1 {
		c.LoadFactor = 1.25
	}
	if c.ReduceShards <= 0 {
		c.ReduceShards = 2
	}
	if c.ReduceShards > len(c.Backends) {
		c.ReduceShards = len(c.Backends)
	}
	if c.ReplayBudget == 0 {
		c.ReplayBudget = 32 << 20
	}
	if c.Seed == 0 {
		c.Seed = time.Now().UnixNano()
	}
}

// Proxy is one mfproxy instance. Its Listen, Addr, Serve,
// ListenAndServe, ServeListener and Shutdown methods come from the
// daemon skeleton it shares with mfserved (serve/internal/daemon): the
// listener, connection set, frame read loop and drain order. Shutdown
// mirrors the server's: stop accepting, answer new requests
// StatusOverloaded, let in-flight forwards and open reduction streams
// finish up to ctx's deadline, then close everything including the
// backend clients.
type Proxy struct {
	*core
	cfg    Config
	router *router
	cache  *resultCache

	// sem bounds concurrently forwarded single-frame requests.
	sem chan struct{}

	stats Stats
}

// core is daemon.Daemon under an unexported name, so embedding it adds
// methods but no exported field.
type core = daemon.Daemon

// New returns an unstarted proxy. Backend clients are created lazily-
// dialing, so it never fails on unreachable backends — only on an
// invalid configuration.
func New(cfg Config) (*Proxy, error) {
	cfg.fillDefaults()
	if len(cfg.Backends) == 0 {
		return nil, errors.New("mfproxy: no backends configured")
	}
	if len(cfg.Backends) > maxBackends {
		return nil, fmt.Errorf("mfproxy: %d backends exceeds the maximum %d", len(cfg.Backends), maxBackends)
	}
	p := &Proxy{cfg: cfg, sem: make(chan struct{}, cfg.MaxInflight)}
	backends := make([]*backend, len(cfg.Backends))
	for i, addr := range cfg.Backends {
		opts := append([]client.Option{client.WithLazyDial()}, cfg.ClientOptions...)
		cli, err := client.Dial(addr, opts...)
		if err != nil {
			return nil, fmt.Errorf("mfproxy: backend %s: %w", addr, err)
		}
		backends[i] = &backend{addr: addr, cli: cli}
	}
	p.router = newRouter(backends, cfg.LoadFactor, cfg.FailThreshold, cfg.ProbeAfter, cfg.Seed, &p.stats)
	p.cache = newResultCache(cfg.CacheBytes, &p.stats)
	p.core = daemon.New(daemon.Config{
		Addr:         cfg.Addr,
		IdleTimeout:  cfg.IdleTimeout,
		WriteTimeout: cfg.WriteTimeout,
		Stats:        &p.stats.counters,
		Open:         func(c *daemon.Conn) daemon.Handler { return &pxConn{Conn: c, p: p} },
		Closed: func() {
			for _, b := range p.router.backends {
				b.cli.Close()
			}
		},
	})
	return p, nil
}

// Stats exposes the proxy's counters.
func (p *Proxy) Stats() *Stats { return &p.stats }

// pxConn is one accepted downstream connection's handler.
type pxConn struct {
	*daemon.Conn
	p *Proxy

	// reds holds this connection's open sharded reduction streams,
	// keyed by downstream request ID; reader-goroutine-only (reduction
	// chunks are forwarded inline, like the server folds them inline).
	// See reduce.go.
	reds map[uint64]*pxReduce
}

// Close aborts the connection's open reduction streams.
func (c *pxConn) Close() { c.abortAllReductions() }

// Handle dispatches one validated request. A non-nil return closes the
// connection.
func (c *pxConn) Handle(req *wire.Request) error {
	// Loop guard: forwarding increments the hop count, so a request
	// already at the ceiling cannot go upstream — it has visited
	// MaxProxyHops proxy tiers and is looping.
	if req.Hops+1 > wire.MaxProxyHops {
		c.p.stats.LoopRejects.Add(1)
		return c.WriteResponse(&wire.Response{ID: req.ID, Status: wire.StatusBadRequest})
	}

	// Streamed reductions (a continuation, or a fresh non-final chunk)
	// are forwarded inline on the reader goroutine: chunk order within
	// a stream is the connection's framing order. A single-frame
	// reduction (final, no open stream) is an ordinary request.
	if req.Op.Reduction() {
		if _, open := c.reds[req.ID]; open || req.M&wire.FlagReduceFinal == 0 {
			return c.handleReduce(req)
		}
	}

	// Single-frame request: forward concurrently, bounded by the
	// in-flight budget; beyond it, shed with a retry hint rather than
	// queueing (the client's jittered backoff is the queue).
	select {
	case c.p.sem <- struct{}{}:
	default:
		c.p.stats.Overloads.Add(1)
		return c.WriteResponse(&wire.Response{ID: req.ID, Status: wire.StatusOverloaded, RetryAfterMs: 5})
	}
	go func() {
		defer func() { <-c.p.sem }()
		c.forwardUnary(req)
	}()
	return nil
}

// forwardUnary serves one single-frame request: cache, route, forward
// with failover, respond.
func (c *pxConn) forwardUnary(req *wire.Request) {
	key := cacheKey(req)
	if data, ok := c.p.cache.get(key); ok {
		c.p.stats.CacheHits.Add(1)
		c.WriteResponse(&wire.Response{ID: req.ID, Status: wire.StatusOK, Data: data})
		return
	}
	if c.p.cache != nil {
		c.p.stats.CacheMisses.Add(1)
	}

	ctx, cancel := c.RequestContext(req)
	defer cancel()

	h := ringHash(&key)
	fwd := *req
	fwd.Hops = req.Hops + 1
	var tried uint64
	var lastErr error
	for attempt := 0; attempt < len(c.p.router.backends); attempt++ {
		b := c.p.router.acquire(h, tried)
		if b == nil {
			break
		}
		data, err := b.cli.Do(ctx, &fwd)
		c.p.router.release(b, err)
		if err == nil {
			c.p.cache.put(key, data)
			c.WriteResponse(&wire.Response{ID: req.ID, Status: wire.StatusOK, Data: data})
			return
		}
		lastErr = err
		if !client.IsRetryable(err) || ctx.Err() != nil {
			break
		}
		if i := c.p.router.index(b); i >= 0 {
			tried |= 1 << uint(i)
		}
		c.p.stats.Failovers.Add(1)
	}
	status, retryMs := c.statusFor(lastErr)
	c.WriteResponse(&wire.Response{ID: req.ID, Status: status, RetryAfterMs: retryMs})
}

// statusFor maps an upstream failure to the downstream status (and
// counts it). A nil error here means no backend was even available.
func (c *pxConn) statusFor(err error) (wire.Status, uint32) {
	switch {
	case err == nil:
		c.p.stats.Overloads.Add(1)
		return wire.StatusOverloaded, 50
	case errors.Is(err, client.ErrDeadlineExceeded):
		c.p.stats.DeadlineMisses.Add(1)
		return wire.StatusDeadlineExceeded, 0
	case errors.Is(err, client.ErrBadRequest):
		c.p.stats.ProtocolErrors.Add(1)
		return wire.StatusBadRequest, 0
	case errors.Is(err, context.DeadlineExceeded):
		c.p.stats.DeadlineMisses.Add(1)
		return wire.StatusDeadlineExceeded, 0
	case client.IsRetryable(err):
		// Transient everywhere we tried: shed; the client's retry may
		// land after a backend recovers.
		c.p.stats.Overloads.Add(1)
		return wire.StatusOverloaded, 25
	default:
		return wire.StatusInternal, 0
	}
}
