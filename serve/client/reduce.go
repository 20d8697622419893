package client

import (
	"context"
	"fmt"

	"multifloats/mf"
	"multifloats/serve/wire"
)

// Streaming exact reductions. SumExact/DotExact compute the correctly
// rounded sum or dot product of arbitrarily long operands on the
// server's superaccumulator (internal/exact): the operand is split into
// chunks of WithReduceChunk elements, streamed pipelined over one
// pooled connection under a single request ID, folded server-side as
// the chunks arrive, and rounded once at the end. Results are
// bit-identical to the local exact.Sum/Dot calls — for every chunk
// size, chunk order, and server worker count.
//
// Retry unit: the whole stream. A chunk is never retried individually
// (server accumulator state lives on the connection it started on), so
// a transport failure discards the connection and restarts the
// reduction from scratch on a fresh one under a fresh ID — a partial
// fold can never be double-counted.

// reduceWindow caps unacknowledged in-flight chunks, so an arbitrarily
// long stream cannot deadlock both peers' flow-control windows on
// unread acks (the server acknowledges every chunk).
const reduceWindow = 64

// SumExact returns the correctly rounded sum of xs, computed remotely.
func (c *Client) SumExact(ctx context.Context, xs []float64) (float64, error) {
	out, err := c.reduce(ctx, wire.OpSumExact, 1, xs, nil)
	if err != nil {
		return 0, err
	}
	return out[0], nil
}

// DotExact returns the correctly rounded dot product of x and y,
// computed remotely.
func (c *Client) DotExact(ctx context.Context, x, y []float64) (float64, error) {
	out, err := c.reduce(ctx, wire.OpDotExact, 1, x, y)
	if err != nil {
		return 0, err
	}
	return out[0], nil
}

// SumExact2 returns the sum of the expansion values in xs as the
// canonical width-2 expansion of the exact result, computed remotely.
func (c *Client) SumExact2(ctx context.Context, xs []mf.Float64x2) (mf.Float64x2, error) {
	out, err := c.reduce(ctx, wire.OpSumExact, 2, wire.Pack2(xs), nil)
	if err != nil {
		return mf.Float64x2{}, err
	}
	return mf.Float64x2(out), nil
}

// SumExact3 is SumExact2 at width 3.
func (c *Client) SumExact3(ctx context.Context, xs []mf.Float64x3) (mf.Float64x3, error) {
	out, err := c.reduce(ctx, wire.OpSumExact, 3, wire.Pack3(xs), nil)
	if err != nil {
		return mf.Float64x3{}, err
	}
	return mf.Float64x3(out), nil
}

// SumExact4 is SumExact2 at width 4.
func (c *Client) SumExact4(ctx context.Context, xs []mf.Float64x4) (mf.Float64x4, error) {
	out, err := c.reduce(ctx, wire.OpSumExact, 4, wire.Pack4(xs), nil)
	if err != nil {
		return mf.Float64x4{}, err
	}
	return mf.Float64x4(out), nil
}

// DotExact2 returns the dot product of the expansion vectors x and y as
// the canonical width-2 expansion of the exact result, computed
// remotely.
func (c *Client) DotExact2(ctx context.Context, x, y []mf.Float64x2) (mf.Float64x2, error) {
	out, err := c.reduce(ctx, wire.OpDotExact, 2, wire.Pack2(x), wire.Pack2(y))
	if err != nil {
		return mf.Float64x2{}, err
	}
	return mf.Float64x2(out), nil
}

// DotExact3 is DotExact2 at width 3.
func (c *Client) DotExact3(ctx context.Context, x, y []mf.Float64x3) (mf.Float64x3, error) {
	out, err := c.reduce(ctx, wire.OpDotExact, 3, wire.Pack3(x), wire.Pack3(y))
	if err != nil {
		return mf.Float64x3{}, err
	}
	return mf.Float64x3(out), nil
}

// DotExact4 is DotExact2 at width 4.
func (c *Client) DotExact4(ctx context.Context, x, y []mf.Float64x4) (mf.Float64x4, error) {
	out, err := c.reduce(ctx, wire.OpDotExact, 4, wire.Pack4(x), wire.Pack4(y))
	if err != nil {
		return mf.Float64x4{}, err
	}
	return mf.Float64x4(out), nil
}

// reduce runs one reduction over the width-w component slabs x (and y
// for dot). Operands that fit one chunk go through the ordinary
// single-request path; longer ones stream through a ReduceStream, and
// a retry restarts the whole stream from chunk 0.
func (c *Client) reduce(ctx context.Context, op wire.Op, width int, x, y []float64) ([]float64, error) {
	if op == wire.OpDotExact && len(y) != len(x) {
		return nil, fmt.Errorf("%w: operand lengths %d and %d differ", ErrBadRequest, len(x)/width, len(y)/width)
	}
	count := len(x) / width
	if count <= c.reduceChunk {
		return c.do(ctx, &wire.Request{Op: op, Width: width, Count: count, M: wire.FlagReduceFinal, X: x, Y: y})
	}
	return c.withRetries(ctx, func() ([]float64, error) {
		s, err := c.StartReduce(ctx, op, width, 0)
		if err != nil {
			return nil, err
		}
		for lo := 0; ; lo += c.reduceChunk {
			hi := min(lo+c.reduceChunk, count)
			xs, ys := x[lo*width:hi*width], y
			if y != nil {
				ys = y[lo*width : hi*width]
			}
			if hi == count {
				return s.Finish(hi-lo, xs, ys, false)
			}
			if err := s.Send(hi-lo, xs, ys); err != nil {
				return nil, err
			}
		}
	})
}
