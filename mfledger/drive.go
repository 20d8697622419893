package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"multifloats/serve/client"
	"multifloats/serve/wire"
)

// cursor walks one connection's share of a workload's requests. It is
// owned by that connection's sending goroutine, and a phase that reuses
// it carries on where the previous one stopped, so the rounds of a run
// together walk the request cycle evenly.
type cursor struct {
	in   *inputs
	next int
	g    *gen // draws fresh requests and hot-set picks
}

// cursors returns one cursor per connection, spread over the cycle.
// stream separates the fresh-request draws of different cursor sets.
func (in *inputs) cursors(seed int64, stream, conns int) []*cursor {
	cs := make([]*cursor, conns)
	for c := range cs {
		cs[c] = &cursor{
			in:   in,
			next: c * len(in.items) / conns,
			g:    newGen(seed, fmt.Sprintf("%s/cursors%d/conn%d", in.name, stream, c)),
		}
	}
	return cs
}

func (c *cursor) take() *item {
	if c.in.fresh != nil {
		if c.g.r.Float64() >= c.in.hotShare {
			return c.in.fresh(c.g)
		}
		return c.in.items[c.g.r.Intn(len(c.in.items))]
	}
	it := c.in.items[c.next%len(c.in.items)]
	c.next++
	return it
}

// span is one request's client-side interval, in nanoseconds since the
// start of its phase. Spans are kept in memory for the traced run only.
type span struct {
	id         uint64
	start, end int64
}

// tally collects one phase's outcomes across its connections.
type tally struct {
	attempted, ok, failed atomic.Int64

	origin    time.Time
	keepRTT   bool
	keepSpans bool

	mu       sync.Mutex
	rtts     []time.Duration
	spans    []span
	failures []string // the first few failure descriptions
}

const maxFailureNotes = 5

// fail counts n failed requests (0: a transport problem whose requests
// are counted where they go unanswered) and keeps the reason.
func (t *tally) fail(n int64, format string, args ...any) {
	t.failed.Add(n)
	t.mu.Lock()
	if len(t.failures) < maxFailureNotes {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
	t.mu.Unlock()
}

// done counts a correct response to a request sent at sent.
func (t *tally) done(id uint64, sent time.Time) {
	t.ok.Add(1)
	if !t.keepRTT && !t.keepSpans {
		return
	}
	now := time.Now()
	t.mu.Lock()
	if t.keepRTT {
		t.rtts = append(t.rtts, now.Sub(sent))
	}
	if t.keepSpans {
		t.spans = append(t.spans, span{id, int64(sent.Sub(t.origin)), int64(now.Sub(t.origin))})
	}
	t.mu.Unlock()
}

// check counts one response against its item.
func (t *tally) check(it *item, id uint64, sent time.Time, status wire.Status, data []float64) {
	switch {
	case status != wire.StatusOK:
		t.fail(1, "%v: status %v", it, status)
	case !it.matches(data):
		t.fail(1, "%v: result bits differ from the local reference", it)
	default:
		t.done(id, sent)
	}
}

// target is where a phase sends its load.
type target struct {
	name string
	dial func() (net.Conn, error)
}

func tcpTarget(name, addr string) target {
	return target{name, func() (net.Conn, error) { return net.DialTimeout("tcp", addr, 5*time.Second) }}
}

// phaseSpec is one closed-loop measurement: one connection per cursor,
// each with depth requests outstanding (streams and client calls: one
// at a time).
type phaseSpec struct {
	curs       []*cursor
	depth      int
	dur        time.Duration // stop after dur, or
	limit      int64         // stop after limit requests
	viaClient  bool          // send through serve/client instead of raw frames
	rtt, spans bool
}

// phaseOut is a finished phase.
type phaseOut struct {
	attempted, ok, failed int64
	wall, cpu             time.Duration
	rtts                  []time.Duration
	spans                 []span
	failures              []string
}

func (p *phaseOut) rps() float64 {
	if p.ok == 0 {
		return 0
	}
	return float64(p.ok) / p.wall.Seconds()
}

func (p *phaseOut) usPerReq() float64 {
	if p.ok == 0 {
		return 0
	}
	return 1e6 * p.wall.Seconds() / float64(p.ok)
}

func (p *phaseOut) cpuUSPerReq() float64 {
	if p.ok == 0 {
		return 0
	}
	return float64(p.cpu.Microseconds()) / float64(p.ok)
}

// drainGrace bounds how long a phase waits for outstanding answers once
// it stops sending; requests still unanswered after it count as failed.
const drainGrace = 10 * time.Second

// limitPhaseCap bounds a phase that stops after a request count, in
// case the servers stop answering.
const limitPhaseCap = 60 * time.Second

// runPhase drives one phase to completion and waits for every goroutine
// it started.
func runPhase(tgt target, in *inputs, p phaseSpec) *phaseOut {
	dur := p.dur
	if dur <= 0 {
		dur = limitPhaseCap
	}
	ctx, cancel := context.WithTimeout(context.Background(), dur)
	defer cancel()
	var budget *atomic.Int64
	if p.limit > 0 {
		budget = new(atomic.Int64)
		budget.Store(p.limit)
	}
	// Every phase starts from a finished garbage collection, so none pays
	// for the previous phase's allocations.
	runtime.GC()
	t := &tally{origin: time.Now(), keepRTT: p.rtt, keepSpans: p.spans}

	var cli *client.Client
	if in.stream || p.viaClient {
		var err error
		cli, err = client.Dial(tgt.name,
			client.WithDialer(func(string, time.Duration) (net.Conn, error) { return tgt.dial() }),
			client.WithPoolSize(len(p.curs)), client.WithMaxRetries(0))
		if err != nil {
			t.fail(1, "%s: %v", tgt.name, err)
			return collect(t, 0, 0)
		}
		defer cli.Close()
	}

	cpu0 := cpuTime()
	var wg sync.WaitGroup
	for _, cur := range p.curs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if cli != nil {
				driveClient(ctx, cli, cur, budget, t)
			} else {
				driveFrames(ctx, tgt, cur, p.depth, budget, t)
			}
		}()
	}
	wg.Wait()
	return collect(t, time.Since(t.origin), cpuTime()-cpu0)
}

func collect(t *tally, wall, cpu time.Duration) *phaseOut {
	return &phaseOut{
		attempted: t.attempted.Load(), ok: t.ok.Load(), failed: t.failed.Load(),
		wall: wall, cpu: cpu, rtts: t.rtts, spans: t.spans, failures: t.failures,
	}
}

// claim takes one request from the phase's budget (nil: unlimited).
func claim(budget *atomic.Int64) bool { return budget == nil || budget.Add(-1) >= 0 }

// slot is one outstanding pipelined request. The slot index rides in the
// low 16 bits of the request ID, so the reader finds it without a map.
type slot struct {
	id   uint64
	it   *item
	sent time.Time
}

// driveFrames runs one raw wire connection: a sending goroutine keeps up
// to depth requests outstanding, and this goroutine reads the answers,
// checks every result bit for bit, and frees their slots. Once sending
// stops, it waits for the outstanding answers (up to drainGrace).
func driveFrames(ctx context.Context, tgt target, cur *cursor, depth int, budget *atomic.Int64, t *tally) {
	nc, err := tgt.dial()
	if err != nil {
		t.fail(1, "dial %s: %v", tgt.name, err)
		return
	}
	ctx, cancel := context.WithCancel(ctx)
	s := &frameConn{
		nc: nc, br: bufio.NewReaderSize(nc, 1<<16), bw: bufio.NewWriterSize(nc, 1<<16),
		slots: make([]slot, depth), free: make(chan int, depth), t: t,
	}
	for i := range s.slots {
		s.free <- i
	}
	sendDone := make(chan struct{})
	go func() {
		defer close(sendDone)
		s.send(ctx, cur, budget)
	}()
	s.receive()
	cancel()
	nc.Close()
	<-sendDone
}

type frameConn struct {
	nc net.Conn
	br *bufio.Reader
	bw *bufio.Writer // sender only

	mu    sync.Mutex // guards slots
	slots []slot
	free  chan int // idle slot indices; a semaphore of depth
	t     *tally

	outstanding atomic.Int64
	stopped     atomic.Bool // the sender has returned
}

func (s *frameConn) send(ctx context.Context, cur *cursor, budget *atomic.Int64) {
	defer func() {
		// Wake the receiver: at once when nothing is outstanding,
		// otherwise when the drain grace runs out.
		s.stopped.Store(true)
		if s.outstanding.Load() == 0 {
			s.nc.SetReadDeadline(time.Now())
		} else {
			s.nc.SetReadDeadline(time.Now().Add(drainGrace))
		}
	}()
	var req wire.Request
	for seq := uint64(1); ; seq++ {
		var i int
		select {
		case i = <-s.free:
		default:
			// About to wait for an answer: put what is buffered on the wire.
			if err := s.bw.Flush(); err != nil {
				s.t.fail(0, "flush: %v", err)
				return
			}
			select {
			case i = <-s.free:
			case <-ctx.Done():
				return
			}
		}
		if ctx.Err() != nil || !claim(budget) {
			if err := s.bw.Flush(); err != nil {
				s.t.fail(0, "flush: %v", err)
			}
			return
		}
		it := cur.take()
		id := seq<<16 | uint64(i)
		s.mu.Lock()
		s.slots[i] = slot{id, it, time.Now()}
		s.mu.Unlock()
		s.outstanding.Add(1)
		s.t.attempted.Add(1)
		req = it.frame(id)
		if err := wire.WriteRequest(s.bw, &req); err != nil {
			s.t.fail(0, "write: %v", err)
			return
		}
	}
}

func (s *frameConn) receive() {
	for {
		resp, err := wire.ReadResponse(s.br)
		if err != nil {
			if n := s.outstanding.Load(); n > 0 || !s.stopped.Load() {
				s.t.fail(max(n, 1), "read after %d outstanding requests: %v", n, err)
			}
			return
		}
		i := int(resp.ID & 0xffff)
		if i >= len(s.slots) {
			s.t.fail(s.outstanding.Load(), "response for unknown request %d", resp.ID)
			return
		}
		s.mu.Lock()
		sl := s.slots[i]
		s.mu.Unlock()
		if sl.id != resp.ID {
			s.t.fail(s.outstanding.Load(), "response for request %d in the slot of %d", resp.ID, sl.id)
			return
		}
		s.t.check(sl.it, sl.id, sl.sent, resp.Status, resp.Data)
		s.outstanding.Add(-1)
		s.free <- i
		if s.stopped.Load() && s.outstanding.Load() == 0 {
			return
		}
	}
}

// driveClient sends one request at a time through serve/client: whole
// reduction streams through ReduceStream, other requests through Do,
// the forwarding call mfproxy uses.
func driveClient(ctx context.Context, cli *client.Client, cur *cursor, budget *atomic.Int64, t *tally) {
	for id := uint64(1); ctx.Err() == nil && claim(budget); id++ {
		it := cur.take()
		t.attempted.Add(1)
		sent := time.Now()
		var data []float64
		var err error
		if it.op.Reduction() {
			data, err = streamOnce(cli, it)
		} else {
			f := it.frame(0)
			data, err = cli.Do(context.Background(), &f)
		}
		if err != nil {
			t.fail(1, "%v: %v", it, err)
			continue
		}
		t.check(it, id, sent, wire.StatusOK, data)
	}
}

// streamOnce runs one reduction as a multi-chunk stream. It does not take
// the phase's context: a stream in flight when the phase ends completes.
func streamOnce(cli *client.Client, it *item) ([]float64, error) {
	s, err := cli.StartReduce(context.Background(), it.op, it.width, 0)
	if err != nil {
		return nil, err
	}
	w := it.width
	for lo := 0; ; lo += reduceChunk {
		hi := min(lo+reduceChunk, it.count)
		x := it.x[lo*w : hi*w]
		var y []float64
		if it.y != nil {
			y = it.y[lo*w : hi*w]
		}
		if hi == it.count {
			return s.Finish(hi-lo, x, y, false)
		}
		if err := s.Send(hi-lo, x, y); err != nil {
			return nil, err
		}
	}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// quantile is the q-quantile of ds (nearest rank); ds is sorted in place.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(q * float64(len(ds)))
	return ds[min(i, len(ds)-1)]
}

// median of xs (sorted in place).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
