package proxy

import (
	"context"
	"errors"

	"multifloats/internal/exact"
	"multifloats/serve/client"
	"multifloats/serve/wire"
)

// Sharded streaming reductions.
//
// A downstream reduction stream (chunks sharing one ID on one
// connection) is split round-robin across ReduceShards backends, each
// fed through an incremental client.ReduceStream. Because the
// superaccumulator is exact, commutative, and associative
// (internal/exact), ANY partition of the chunks across shards folds to
// the same integer — so on the final chunk the proxy asks every shard
// for its raw serialized accumulator (wire.FlagReduceRaw), merges them
// with Accumulator.Merge, and rounds once. The result is bit-identical
// to a single server folding the whole stream, for every shard count
// and every interleaving.
//
// Failover: every chunk forwarded to a shard is also retained (chunk
// slabs are per-frame allocations, so retention is free) up to
// ReplayBudget bytes. If a shard's backend dies mid-stream, its chunks
// are replayed to a fresh backend and the stream continues — the
// resharded fold is exact for the same reason the sharded one is.
// Past the budget, or with no healthy replacement, the stream fails
// loudly with a retryable status and the downstream client's
// whole-stream retry is the backstop. A completed response is never
// built from a partial fold.

// errReduceFailover: a shard died and could not be resharded (budget
// exhausted, or no backend left to replay to). Surfaced downstream as
// StatusOverloaded so the client restarts the whole stream.
var errReduceFailover = errors.New("mfproxy: reduction shard lost and not replayable")

type pxReduce struct {
	op     wire.Op
	width  int
	hops   int // hop count stamped on upstream chunks
	ctx    context.Context
	cancel context.CancelFunc

	shards []*pxShard
	rr     int // round-robin cursor over shards

	buffered   int64 // bytes retained for replay
	budget     int64 // Config.ReplayBudget
	replayable bool
	failed     uint64 // bitmask of backends that already failed this stream
}

type pxShard struct {
	b      *backend
	stream *client.ReduceStream
	chunks []savedChunk // replay log for this shard
}

type savedChunk struct {
	count int
	x, y  []float64
}

// shardHash spreads a stream's shard-open picks over the ring
// independent of operand content (streams are routed by load, not by
// key — their state is wherever their chunks went).
//
//mf:branchfree
//mf:hotpath
func shardHash(id uint64, shard int) uint64 {
	h := id + uint64(shard)*0x9e3779b97f4a7c15
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// handleReduce processes one streamed reduction chunk on the reader
// goroutine.
func (c *pxConn) handleReduce(req *wire.Request) {
	fail := func(status wire.Status, retryMs uint32) {
		c.dropReduction(req.ID)
		c.QueueResponse(&wire.Response{ID: req.ID, Status: status, RetryAfterMs: retryMs})
	}
	red := c.reds[req.ID]
	switch {
	case red == nil:
		if len(c.reds) >= wire.MaxOpenReductions {
			c.p.stats.ProtocolErrors.Add(1)
			fail(wire.StatusBadRequest, 0)
			return
		}
		ctx, cancel := c.RequestContext(req)
		nshards := c.p.cfg.ReduceShards
		if nshards < 1 {
			nshards = 1
		}
		red = &pxReduce{
			op: req.Op, width: req.Width, hops: req.Hops + 1,
			ctx: ctx, cancel: cancel,
			shards:     make([]*pxShard, nshards),
			budget:     c.p.cfg.ReplayBudget,
			replayable: true,
		}
		for i := range red.shards {
			red.shards[i] = &pxShard{}
		}
		if c.reds == nil {
			c.reds = make(map[uint64]*pxReduce)
		}
		c.reds[req.ID] = red
	case red.op != req.Op || red.width != req.Width:
		c.p.stats.ProtocolErrors.Add(1)
		fail(wire.StatusBadRequest, 0)
		return
	}
	if red.ctx.Err() != nil {
		c.p.stats.DeadlineMisses.Add(1)
		fail(wire.StatusDeadlineExceeded, 0)
		return
	}

	s := red.shards[red.rr%len(red.shards)]
	red.rr++

	if req.M&wire.FlagReduceFinal != 0 {
		c.handleReduceFinal(red, req, s)
		return
	}

	if err := red.sendChunk(c, req.ID, s, req.Count, req.X, req.Y); err != nil {
		fail(c.reduceStatusFor(err))
		return
	}
	red.retain(s, req)
	c.p.stats.ReduceChunks.Add(1)
	c.QueueResponse(&wire.Response{ID: req.ID, Status: wire.StatusOK})
}

// retain appends the chunk to the shard's replay log, dropping all
// logs once the stream exceeds its replay budget.
func (red *pxReduce) retain(s *pxShard, req *wire.Request) {
	if !red.replayable {
		return
	}
	red.buffered += int64(8 * (len(req.X) + len(req.Y)))
	if red.buffered <= red.budget {
		s.chunks = append(s.chunks, savedChunk{count: req.Count, x: req.X, y: req.Y})
		return
	}
	red.replayable = false
	for _, sh := range red.shards {
		sh.chunks = nil
	}
}

// open gives shard s a live upstream stream on a backend not yet
// failed this stream, replaying the shard's retained chunks (a
// non-empty replay is a reshard). Charges the router for the stream's
// lifetime.
func (red *pxReduce) open(c *pxConn, id uint64, s *pxShard) error {
	shardIdx := 0
	for i, sh := range red.shards {
		if sh == s {
			shardIdx = i
		}
	}
	for {
		if err := red.ctx.Err(); err != nil {
			return err
		}
		b := c.p.router.acquire(shardHash(id, shardIdx), red.failed)
		if b == nil {
			return errReduceFailover
		}
		stream, err := b.cli.StartReduce(red.ctx, red.op, red.width, red.hops)
		if err == nil {
			for _, ch := range s.chunks {
				if err = stream.Send(ch.count, ch.x, ch.y); err != nil {
					break
				}
			}
		}
		if err != nil {
			c.p.router.release(b, err)
			if !client.IsRetryable(err) {
				return err
			}
			if i := c.p.router.index(b); i >= 0 {
				red.failed |= 1 << uint(i)
			}
			continue
		}
		if len(s.chunks) > 0 {
			c.p.stats.Reshards.Add(1)
		}
		s.b, s.stream = b, stream
		return nil
	}
}

// sendChunk forwards one chunk to shard s, resharding on a dead
// backend when the replay log allows.
func (red *pxReduce) sendChunk(c *pxConn, id uint64, s *pxShard, count int, x, y []float64) error {
	for {
		if s.stream == nil {
			if err := red.open(c, id, s); err != nil {
				return err
			}
		}
		err := s.stream.Send(count, x, y)
		if err == nil {
			return nil
		}
		// The stream is poisoned (ReduceStream closed its conn); score
		// the backend and reshard if we can.
		c.p.router.release(s.b, err)
		s.stream = nil
		if !client.IsRetryable(err) {
			return err
		}
		if i := c.p.router.index(s.b); i >= 0 {
			red.failed |= 1 << uint(i)
		}
		if !red.replayable {
			return errReduceFailover
		}
	}
}

// finishShard collects shard s's raw accumulator, carrying the final
// payload (count/x/y; zero for shards that just need closing), with
// the same reshard-on-failure behavior as sendChunk. Returns (nil,
// nil) for a shard the stream never touched.
func (red *pxReduce) finishShard(c *pxConn, id uint64, s *pxShard, count int, x, y []float64) ([]float64, error) {
	for {
		if s.stream == nil {
			if len(s.chunks) == 0 && count == 0 {
				return nil, nil // never opened, nothing to contribute
			}
			if err := red.open(c, id, s); err != nil {
				return nil, err
			}
		}
		data, err := s.stream.Finish(count, x, y, true)
		if err == nil {
			c.p.router.release(s.b, nil)
			s.stream = nil
			return data, nil
		}
		c.p.router.release(s.b, err)
		s.stream = nil
		if !client.IsRetryable(err) {
			return nil, err
		}
		if i := c.p.router.index(s.b); i >= 0 {
			red.failed |= 1 << uint(i)
		}
		if !red.replayable {
			return nil, errReduceFailover
		}
	}
}

// handleReduceFinal completes the stream: finish every shard raw,
// merge, round once, answer downstream. s is the shard the final
// chunk's payload is assigned to.
func (c *pxConn) handleReduceFinal(red *pxReduce, req *wire.Request, s *pxShard) {
	fail := func(status wire.Status, retryMs uint32) {
		c.dropReduction(req.ID)
		c.QueueResponse(&wire.Response{ID: req.ID, Status: status, RetryAfterMs: retryMs})
	}
	merged := new(exact.Accumulator)
	for _, sh := range red.shards {
		var data []float64
		var err error
		if sh == s {
			data, err = red.finishShard(c, req.ID, sh, req.Count, req.X, req.Y)
		} else {
			data, err = red.finishShard(c, req.ID, sh, 0, nil, nil)
		}
		if err != nil {
			fail(c.reduceStatusFor(err))
			return
		}
		if data == nil {
			continue
		}
		dec, derr := exact.DecodeFloats(data)
		if derr != nil {
			// The slab passed the client's CRC and length checks, so a
			// decode failure means a broken backend, not a broken wire.
			fail(wire.StatusInternal, 0)
			return
		}
		merged.Merge(dec)
	}
	c.p.stats.ReduceChunks.Add(1)
	c.p.stats.Reductions.Add(1)
	var out []float64
	if req.M&wire.FlagReduceRaw != 0 {
		out = merged.EncodeFloats() // proxy-behind-proxy: pass raw upward
	} else {
		out = merged.SumExpansion(red.width)
	}
	deadlined := red.ctx.Err() != nil // read before dropReduction cancels the ctx
	c.dropReduction(req.ID)
	if deadlined {
		c.p.stats.DeadlineMisses.Add(1)
		c.QueueResponse(&wire.Response{ID: req.ID, Status: wire.StatusDeadlineExceeded})
		return
	}
	c.QueueResponse(&wire.Response{ID: req.ID, Status: wire.StatusOK, Data: out})
}

// reduceStatusFor maps a shard failure to the downstream status.
func (c *pxConn) reduceStatusFor(err error) (wire.Status, uint32) {
	if errors.Is(err, errReduceFailover) {
		c.p.stats.Overloads.Add(1)
		return wire.StatusOverloaded, 25
	}
	return c.statusFor(err)
}

// dropReduction abandons any open stream state for id: upstream shard
// streams are aborted (their conns closed — the backends drop their
// accumulators with them) and router charges returned.
func (c *pxConn) dropReduction(id uint64) {
	red, ok := c.reds[id]
	if !ok {
		return
	}
	delete(c.reds, id)
	for _, sh := range red.shards {
		if sh.stream != nil {
			sh.stream.Abort()
			c.p.router.release(sh.b, nil)
			sh.stream = nil
		}
	}
	red.cancel()
}

// abortAllReductions releases every open stream; called on connection
// teardown.
func (c *pxConn) abortAllReductions() {
	for id := range c.reds {
		c.dropReduction(id)
	}
}
