package server

import (
	"context"
	"sync"

	"multifloats/internal/blas"
	"multifloats/internal/exact"
	"multifloats/serve/wire"
)

// Streaming exact reductions (wire.OpSumExact / wire.OpDotExact).
//
// A reduction is a sequence of request frames sharing one ID on one
// connection. Each chunk is folded into a per-(connection, ID)
// superaccumulator on the reader goroutine — connection state is only
// ever touched by its own reader, so no locking — and acknowledged
// with an empty StatusOK; the FlagReduceFinal chunk folds, rounds the
// accumulator to the request width, returns the result slab, and
// releases the state. Because the accumulator is exact and
// merge-associative (internal/exact), the response is bit-identical
// for every chunk split, chunk arrival order, and fold parallelism.

// The wire protocol promises a raw-final reduction response is exactly
// one serialized accumulator. wire must not import internal/exact (it
// is protocol-only), so the equality is asserted here, where both sides
// meet: either array length goes negative — a compile error — if the
// constants ever drift apart.
var (
	_ [exact.EncodedWords - wire.ReduceRawElems]struct{}
	_ [wire.ReduceRawElems - exact.EncodedWords]struct{}
)

// parallelFoldElems is the chunk size (in expansion elements) from which
// a fold shards across the configured workers. It sits well above the
// per-shard break-even: on a 2-vCPU Xeon the pool handoff (mfledger's
// blas.parallel_ns) is ~1.1 µs and a shard's slot-table flush 1–2 µs,
// while half a chunk this size holds ≥ 11 µs of deposits even for the
// cheapest fold (exact.sum1, ~5.5 ns/element).
const parallelFoldElems = 4096

type reduction struct {
	op    wire.Op
	width int
	acc   *exact.Accumulator
}

// accPool recycles accumulators across requests and shard folds. Reset
// before Put, so Get always yields an empty sum.
var accPool = sync.Pool{New: func() any { return new(exact.Accumulator) }}

// handleReduce processes one reduction chunk on the reader goroutine
// and returns its answer.
func (c *srvConn) handleReduce(ctx context.Context, req *wire.Request) wire.Response {
	fail := func(status wire.Status) wire.Response {
		c.dropReduction(req.ID)
		return wire.Response{ID: req.ID, Status: status}
	}
	if ctx.Err() != nil {
		c.s.stats.DeadlineMisses.Add(1)
		return fail(wire.StatusDeadlineExceeded)
	}
	red := c.reds[req.ID]
	switch {
	case red == nil:
		if len(c.reds) >= wire.MaxOpenReductions {
			c.s.stats.ProtocolErrors.Add(1)
			return fail(wire.StatusBadRequest)
		}
		red = &reduction{op: req.Op, width: req.Width, acc: accPool.Get().(*exact.Accumulator)}
		if c.reds == nil {
			c.reds = make(map[uint64]*reduction)
		}
		c.reds[req.ID] = red
	case red.op != req.Op || red.width != req.Width:
		// Chunks of one stream must agree on shape; a disagreement is a
		// client bug (or hostility) and poisons the whole stream.
		c.s.stats.ProtocolErrors.Add(1)
		return fail(wire.StatusBadRequest)
	}

	foldChunk(red, req, c.s.cfg.Workers)
	c.s.stats.ReduceChunks.Add(1)
	if req.M&wire.FlagReduceFinal == 0 {
		return wire.Response{ID: req.ID, Status: wire.StatusOK}
	}

	delete(c.reds, req.ID)
	var out []float64
	if req.M&wire.FlagReduceRaw != 0 {
		// Raw final: return the serialized accumulator instead of the
		// rounded expansion, so a cluster tier can Merge per-shard state
		// and round exactly once (wire.FlagReduceRaw; the length contract
		// is pinned by the compile-time assertions below).
		out = red.acc.EncodeFloats()
	} else {
		out = red.acc.SumExpansion(red.width)
	}
	releaseAcc(red.acc)
	if ctx.Err() != nil {
		c.s.stats.DeadlineMisses.Add(1)
		return wire.Response{ID: req.ID, Status: wire.StatusDeadlineExceeded}
	}
	c.s.stats.Reductions.Add(1)
	return wire.Response{ID: req.ID, Status: wire.StatusOK, Data: out}
}

// foldChunk folds one request's operand slab into the reduction's
// accumulator. Large chunks shard across the blas worker pool, each
// shard into its own pooled accumulator that is then merged in under a
// lock; Merge is exact and order-free, so the fold-down is bit-identical
// for every worker count and merge order — reductions need no
// single-worker mode to be reproducible.
func foldChunk(red *reduction, req *wire.Request, workers int) {
	shards := min(workers, req.Count/(parallelFoldElems/2))
	if shards <= 1 {
		foldRange(red.acc, red.op, red.width, req.X, req.Y, 0, req.Count)
		return
	}
	var mu sync.Mutex
	blas.Parallel(req.Count, shards, func(lo, hi int) {
		acc := accPool.Get().(*exact.Accumulator)
		foldRange(acc, red.op, red.width, req.X, req.Y, lo, hi)
		mu.Lock()
		red.acc.Merge(acc)
		mu.Unlock()
		releaseAcc(acc)
	})
}

// foldRange folds elements [lo, hi) of the slabs into acc.
func foldRange(acc *exact.Accumulator, op wire.Op, w int, x, y []float64, lo, hi int) {
	if op == wire.OpSumExact {
		acc.AddValues(x[lo*w : hi*w])
		return
	}
	acc.AddDotSlab(w, x[lo*w:hi*w], y[lo*w:hi*w])
}

func releaseAcc(a *exact.Accumulator) {
	a.Reset()
	accPool.Put(a)
}

// dropReduction abandons any open stream for id (deadline expiry or a
// malformed continuation) and recycles its accumulator.
func (c *srvConn) dropReduction(id uint64) {
	if red, ok := c.reds[id]; ok {
		delete(c.reds, id)
		releaseAcc(red.acc)
	}
}

// dropAllReductions releases every open stream; called when the
// connection tears down.
func (c *srvConn) dropAllReductions() {
	for id, red := range c.reds {
		delete(c.reds, id)
		releaseAcc(red.acc)
	}
}
