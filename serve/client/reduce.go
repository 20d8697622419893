package client

import (
	"context"
	"fmt"

	"multifloats/serve/internal/slab"
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

// Element is an operand type of the exact reductions: a plain float64,
// or an expansion.
type Element interface {
	float64 | Expansion
}

// SumExact returns the correctly rounded sum of xs, computed remotely:
// for float64 the rounded sum, for an expansion type the canonical
// expansion of the exact result at that width.
func SumExact[E Element](ctx context.Context, c *Client, xs []E) (E, error) {
	return reduce(ctx, c, wire.OpSumExact, xs, nil)
}

// DotExact returns the correctly rounded dot product of x and y,
// computed remotely, as SumExact rounds its sum.
func DotExact[E Element](ctx context.Context, c *Client, x, y []E) (E, error) {
	if len(x) != len(y) {
		return first[E](nil, fmt.Errorf("%w: operand lengths %d and %d differ", ErrBadRequest, len(x), len(y)))
	}
	return reduce(ctx, c, wire.OpDotExact, x, y)
}

// reduce streams x (and y for dot) through a ReduceStream in chunks of
// reduceChunk elements; a one-chunk stream is its single final frame. A
// retry restarts the whole stream from chunk 0. The stream writes each
// chunk before it returns, so it sends views of the caller's operands.
func reduce[E Element](ctx context.Context, c *Client, op wire.Op, x, y []E) (E, error) {
	out, err := c.withRetries(ctx, func() ([]float64, error) {
		s, err := c.StartReduce(ctx, op, slab.Width[E](), 0)
		if err != nil {
			return nil, err
		}
		for lo := 0; ; lo += c.reduceChunk {
			hi := min(lo+c.reduceChunk, len(x))
			xs, ys := slab.Flat(x[lo:hi]), []float64(nil)
			if y != nil {
				ys = slab.Flat(y[lo:hi])
			}
			if hi == len(x) {
				return s.Finish(hi-lo, xs, ys, false)
			}
			if err := s.Send(hi-lo, xs, ys); err != nil {
				return nil, err
			}
		}
	})
	return first(slab.As[E](out), err)
}
