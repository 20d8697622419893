package client

import (
	"context"
	"fmt"
	"time"

	"multifloats/serve/wire"
)

// ReduceStream is the incremental reduction API: one reduction stream
// on one pooled connection, fed chunk by chunk by the caller instead of
// from a pre-assembled slab. It exists for forwarding callers — a proxy
// relaying a downstream client's chunks as they arrive — and therefore
// does NOT retry internally: any failure poisons the stream, the
// connection is discarded, and the error is typed so the caller can
// decide (IsRetryable) whether to replay the stream elsewhere. The
// whole-slab SumExact/DotExact calls remain the right API for ordinary
// use; they retry the whole stream themselves.
//
// Not safe for concurrent use. Every ReduceStream must end in exactly
// one Finish or Abort, or its connection leaks.
type ReduceStream struct {
	c        *Client
	pc       *poolConn
	ctx      context.Context
	id       uint64
	op       wire.Op
	width    int
	hops     int
	deadline time.Time
	sent     int // chunks written
	read     int // acks consumed
	err      error
	done     bool
}

// StartReduce opens a reduction stream for op at the given expansion
// width. hops is the proxy-hop count stamped on every chunk (0 for
// direct callers). The request deadline is taken from ctx.
func (c *Client) StartReduce(ctx context.Context, op wire.Op, width, hops int) (*ReduceStream, error) {
	if !op.Reduction() {
		return nil, fmt.Errorf("%w: %v is not a reduction", ErrBadRequest, op)
	}
	pc, err := c.get()
	if err != nil {
		return nil, err
	}
	return &ReduceStream{
		c: c, pc: pc, ctx: ctx, id: c.nextID.Add(1), op: op, width: width, hops: hops,
		deadline: ctxDeadline(ctx),
	}, nil
}

// fail poisons the stream: the connection (which may hold server-side
// accumulator state and unread acks) is closed, never pooled.
func (s *ReduceStream) fail(err error) error {
	s.pc.nc.Close()
	s.done = true
	s.err = err
	return err
}

// writeChunk writes one chunk frame and enforces the ack window.
func (s *ReduceStream) writeChunk(m, count int, x, y []float64) error {
	if s.done {
		if s.err != nil {
			return s.err
		}
		return fmt.Errorf("%w: reduction stream already finished", ErrClosed)
	}
	if err := s.ctx.Err(); err != nil {
		return s.fail(err)
	}
	// Re-armed per chunk, so a long stream of timely chunks is never
	// killed by a budget sized for one exchange.
	s.pc.armDeadline(s.c.ioTimeout, s.deadline)
	req := &wire.Request{
		ID: s.id, Deadline: s.deadline, Op: s.op, Width: s.width,
		Hops: s.hops, Count: count, M: m, X: x, Y: y,
	}
	if err := wire.WriteRequest(s.pc.bw, req); err != nil {
		return s.fail(&transientError{err: err})
	}
	s.sent++
	if s.sent-s.read >= reduceWindow {
		if err := s.pc.bw.Flush(); err != nil {
			return s.fail(&transientError{err: err})
		}
		if _, err := s.readOne(false, false); err != nil {
			return err
		}
	}
	return nil
}

// readOne consumes the next in-order response. Any failure, including
// a non-OK status, poisons the stream: acks for already-written chunks
// may still be in the pipe. For the final response it returns the
// result slab, validated against the requested shape.
func (s *ReduceStream) readOne(final, raw bool) ([]float64, error) {
	resp, err := s.pc.recv(s.id)
	if err == nil {
		s.read++
		err = statusErr(resp)
	}
	if err != nil {
		return nil, s.fail(err)
	}
	if !final {
		if len(resp.Data) != 0 {
			return nil, s.fail(integrityErr(fmt.Errorf("chunk ack carried %d elements", len(resp.Data))))
		}
		return nil, nil
	}
	want := s.width
	if raw {
		want = wire.ReduceRawElems
	}
	data, err := checkSlab(resp.Data, want)
	if err != nil {
		return nil, s.fail(err)
	}
	return data, nil
}

// Send streams one non-final chunk of count elements: x (and y for dot)
// are width-w component slabs of count·width floats. The slabs are
// consumed before Send returns and may be reused.
func (s *ReduceStream) Send(count int, x, y []float64) error {
	return s.writeChunk(0, count, x, y)
}

// Finish streams the final chunk (count may be 0 for an empty final)
// and returns the reduction result: the width-w rounded expansion, or,
// with raw, the wire.ReduceRawElems-word serialized accumulator
// (exact.DecodeFloats) for shard merging. On success the connection
// returns to the pool.
func (s *ReduceStream) Finish(count int, x, y []float64, raw bool) ([]float64, error) {
	m := wire.FlagReduceFinal
	if raw {
		m |= wire.FlagReduceRaw
	}
	if err := s.writeChunk(m, count, x, y); err != nil {
		return nil, err
	}
	if err := s.pc.bw.Flush(); err != nil {
		return nil, s.fail(&transientError{err: err})
	}
	var result []float64
	for s.read < s.sent {
		final := s.read == s.sent-1
		data, err := s.readOne(final, raw)
		if err != nil {
			return nil, err
		}
		if final {
			result = data
		}
	}
	s.done = true
	s.c.put(s.pc)
	return result, nil
}

// Abort abandons the stream. The connection is closed, not pooled: the
// server still holds accumulator state for this stream, and acks for
// already-written chunks may be in flight — the conn cannot be reused.
func (s *ReduceStream) Abort() {
	if s.done {
		return
	}
	s.done = true
	s.err = fmt.Errorf("%w: reduction stream aborted", ErrClosed)
	s.pc.nc.Close()
}
