package server

import (
	"sync"
	"time"

	"multifloats/internal/blas"
	"multifloats/serve/wire"
)

// A lane is the batching queue for one (scalar op, width) pair. Requests
// accumulate under the lane lock; a flush happens when the batch reaches
// MaxBatch, when the batch window expires, or when the earliest member
// deadline would otherwise pass while waiting (fail-fast: an expired
// request is answered without executing). One flush concatenates every
// member's operands into a single slab, runs the elementwise kernel once
// across the worker pool, then scatters each member's result back into
// its own operand slab — amortizing scheduling and kernel dispatch. The
// answers go to each member connection's queued writer, never to the
// socket, so a lane never waits on a peer.

type laneKey struct {
	op    wire.Op
	width int
}

type pending struct {
	c        *srvConn
	id       uint64
	deadline time.Time // the frame's deadline; zero for none
	count    int       // expansion elements in this request
	x, y     []float64
}

type lane struct {
	s     *Server
	op    wire.Op
	width int

	mu    sync.Mutex
	reqs  []*pending
	timer *time.Timer
	due   time.Time // zero when no flush is scheduled
}

// enqueue admits p or rejects it with backpressure. It never blocks: a
// full queue answers StatusOverloaded immediately (with a retry-after
// hint of one batch window) and drops the request.
func (l *lane) enqueue(p *pending) {
	cfg := &l.s.cfg
	l.mu.Lock()
	if len(l.reqs) >= cfg.QueueDepth {
		l.mu.Unlock()
		l.s.stats.Overloads.Add(1)
		retry := uint32(cfg.BatchWindow / time.Millisecond)
		if retry == 0 {
			retry = 1
		}
		p.c.QueueResponse(&wire.Response{ID: p.id, Status: wire.StatusOverloaded, RetryAfterMs: retry})
		return
	}
	l.reqs = append(l.reqs, p)
	l.s.stats.QueueDepth.Add(1)
	if len(l.reqs) >= cfg.MaxBatch || cfg.BatchWindow <= 0 {
		batch := l.takeLocked()
		l.mu.Unlock()
		l.exec(batch)
		return
	}
	// Schedule (or pull forward) the window flush; a member deadline
	// sooner than the window end pulls the flush to the deadline so the
	// request is answered the moment it expires rather than lingering.
	due := time.Now().Add(cfg.BatchWindow)
	if !p.deadline.IsZero() && p.deadline.Before(due) {
		due = p.deadline
	}
	if l.due.IsZero() || due.Before(l.due) {
		l.due = due
		if l.timer == nil {
			l.timer = time.AfterFunc(time.Until(due), l.onTimer)
		} else {
			l.timer.Reset(time.Until(due))
		}
	}
	l.mu.Unlock()
}

// takeLocked removes and returns the current batch (up to MaxBatch
// requests) and clears the scheduled flush. Callers hold l.mu.
func (l *lane) takeLocked() []*pending {
	n := len(l.reqs)
	if n > l.s.cfg.MaxBatch {
		n = l.s.cfg.MaxBatch
	}
	batch := make([]*pending, n)
	copy(batch, l.reqs[:n])
	rest := copy(l.reqs, l.reqs[n:])
	for i := rest; i < len(l.reqs); i++ {
		l.reqs[i] = nil
	}
	l.reqs = l.reqs[:rest]
	l.due = time.Time{}
	if l.timer != nil {
		if rest > 0 {
			// Leftovers (arrivals beyond MaxBatch): flush them promptly.
			l.due = time.Now()
			l.timer.Reset(0)
		} else {
			l.timer.Stop()
		}
	}
	l.s.stats.QueueDepth.Add(int64(-n))
	return batch
}

func (l *lane) onTimer() {
	l.mu.Lock()
	if len(l.reqs) == 0 {
		l.due = time.Time{}
		l.mu.Unlock()
		return
	}
	batch := l.takeLocked()
	l.mu.Unlock()
	l.exec(batch)
}

// drain flushes everything pending, looping until the lane is empty.
// Used by Shutdown after new arrivals are fenced off.
func (l *lane) drain() {
	for {
		l.mu.Lock()
		if len(l.reqs) == 0 {
			l.mu.Unlock()
			return
		}
		batch := l.takeLocked()
		l.mu.Unlock()
		l.exec(batch)
	}
}

// soaBatch is one flush's pooled slab assembly: a single backing buffer
// partitioned into the x, y, z component planes of a width-w SoA slab.
// Recycling it keeps the flush path's slab memory allocation-free in
// steady state; the results leave it at the scatter, so no response
// points into it.
type soaBatch struct {
	buf     []float64
	x, y, z blas.SoA
}

var soaBatchPool = sync.Pool{New: func() any { return new(soaBatch) }}

// getSoABatch returns an assembly sized for elems width-w expansions:
// planes x[j], y[j], z[j] (j < w; the rest nil) of elems values each.
func getSoABatch(w, elems int) *soaBatch {
	b := soaBatchPool.Get().(*soaBatch)
	need := 3 * w * elems
	if cap(b.buf) < need {
		b.buf = make([]float64, need)
	}
	buf := b.buf[:need]
	for j := range b.x {
		if j < w {
			b.x[j] = buf[j*elems : (j+1)*elems]
			b.y[j] = buf[(w+j)*elems : (w+j+1)*elems]
			b.z[j] = buf[(2*w+j)*elems : (2*w+j+1)*elems]
		} else {
			b.x[j], b.y[j], b.z[j] = nil, nil, nil
		}
	}
	return b
}

func putSoABatch(b *soaBatch) { soaBatchPool.Put(b) }

// gatherSoA deinterleaves one request's wire-format operand slab
// (len(src)/w expansions, component j of element i at src[i*w+j]) into
// the batch planes starting at element offset off. Batch assembly
// writes each operand straight from the request buffer into its plane —
// there is never an intermediate interleaved slab to transpose.
func gatherSoA(dst *blas.SoA, w, off int, src []float64) {
	n := len(src) / w
	for j := 0; j < w; j++ {
		p := dst[j][off : off+n]
		for i := range p {
			p[i] = src[i*w+j]
		}
	}
}

// scatterSoA is gatherSoA's inverse: it interleaves len(dst)/w results
// from the planes, starting at element offset off, into dst.
func scatterSoA(dst []float64, w, off int, src *blas.SoA) {
	n := len(dst) / w
	for j := 0; j < w; j++ {
		p := src[j][off : off+n]
		for i, v := range p {
			dst[i*w+j] = v
		}
	}
}

// exec runs one batch: members whose deadline has passed are answered
// StatusDeadlineExceeded without executing; live members' operands are
// gathered into one SoA slab and executed once across the pool by the
// generated lane kernels. Each live member's result is scattered into
// its own x operand slab — a fresh decoded slab per frame, exactly
// count·w long and unread after the gather — which its answer then
// carries. Every answer is queued on its connection's writer, which
// drains all that is queued with one flush.
func (l *lane) exec(batch []*pending) {
	live := batch[:0:len(batch)]
	var elems int
	now := time.Now()
	for _, p := range batch {
		if !p.deadline.IsZero() && !now.Before(p.deadline) {
			l.s.stats.DeadlineMisses.Add(1)
			p.c.QueueResponse(&wire.Response{ID: p.id, Status: wire.StatusDeadlineExceeded})
			continue
		}
		live = append(live, p)
		elems += p.count
	}
	if len(live) == 0 {
		return
	}
	l.s.stats.Batches.Add(1)
	l.s.stats.BatchedReqs.Add(int64(len(live)))
	l.s.stats.BatchedElems.Add(int64(elems))
	w := l.width
	sb := getSoABatch(w, elems)
	unary := l.op.Unary()
	off := 0
	for _, p := range live {
		gatherSoA(&sb.x, w, off, p.x)
		if !unary {
			gatherSoA(&sb.y, w, off, p.y)
		}
		off += p.count
	}
	execSoASlab(l.op, w, &sb.x, &sb.y, &sb.z, elems, l.s.cfg.Workers)
	off = 0
	for _, p := range live {
		scatterSoA(p.x, w, off, &sb.z)
		off += p.count
		p.c.QueueResponse(&wire.Response{ID: p.id, Status: wire.StatusOK, Data: p.x})
	}
	putSoABatch(sb)
}
