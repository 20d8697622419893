package client

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"multifloats/serve/wire"
)

// The multiplexed connection. Scalar requests (wire.Op.Scalar) are
// answered asynchronously by the server's batching lanes, so any number
// of them can be in flight on one connection, each answered by the
// response carrying its request ID. BLAS and reduction frames execute
// on the server's connection reader, where they would stall every frame
// queued behind them, so they keep the pooled exclusive connections.
//
// Every scalar call is a goCall, Do and the typed calls included: they
// wait for its done. Each attempt queues a frame built for it, and the
// connection's writer goroutine, its only writer, writes everything
// queued and flushes once per drain, so a burst of calls costs one
// write syscall and no goroutine each. One reader goroutine hands each
// response to its call.
//
// The connection keeps the pooled exchange's contract where one call's
// fate is concerned. It is dialed through Client.dial, and after a
// failure it is re-dialed once, on a goroutine of its own, when the
// first call finds it gone. Calls arriving meanwhile park on that dial
// and are sent, or failed, when it ends, so no caller waits on a dial.
// A call waits at most as long as exchangeDeadline allows and then gets
// a retryable timeout; since other calls share the connection, that
// answers only the call, and a response that still comes for it is
// dropped. Only when the connection has read nothing for ioTimeout
// while owing responses, the pooled exchange's longest wait, does a
// call that runs out fail it. A CRC or framing failure, or a response
// whose ID matches no request, fails it with a retryable ErrIntegrity
// error; any other read or write error fails it with a plain retryable
// one. Every waiting call then receives that error and is retried.

// muxConn is one pipelined connection shared by concurrent scalar calls.
type muxConn struct {
	*poolConn
	ioTimeout time.Duration

	// queue holds the frames waiting for the writer goroutine; kick
	// (capacity 1) wakes it.
	qmu   sync.Mutex
	queue []*wire.Request
	kick  chan struct{}

	mu sync.Mutex
	// calls holds every response owed, by request ID. nil once failed.
	calls map[uint64]muxEntry
	// heard is when the connection last showed life while owing
	// responses: its last response read, or the call that found nothing
	// owed.
	heard time.Time
	err   error       // why the connection failed
	dead  atomic.Bool // err != nil, readable without mu

	stop       chan struct{} // closed when the connection fails
	readerDone chan struct{} // closed when readLoop returns
	writerDone chan struct{} // closed when writeLoop returns
}

// muxEntry is one owed response: the call waiting for it, and the timer
// that gives up on it. Whoever takes the entry out of calls delivers the
// call's response or failure, exactly once, with no lock held. g is nil
// once the call has given up.
type muxEntry struct {
	g *goCall
	t *time.Timer
}

// muxOrPark returns the live multiplexed connection. With none, it parks
// g on the dial in flight, starting one on its own goroutine if needed,
// and returns nil: runDial sends g when the dial ends.
func (c *Client) muxOrPark(g *goCall) (*muxConn, error) {
	c.muxMu.Lock()
	defer c.muxMu.Unlock()
	if mc := c.mux; mc != nil && !mc.dead.Load() {
		return mc, nil
	}
	if c.closed.Load() {
		return nil, ErrClosed
	}
	if c.parked == nil {
		go c.runDial()
	}
	c.parked = append(c.parked, g)
	return nil, nil
}

// runDial dials the multiplexed connection, publishes it, and sends or
// fails the calls parked on the dial.
func (c *Client) runDial() {
	mc, err := c.dialMux()
	c.muxMu.Lock()
	if err == nil {
		// Close flips closed before it takes muxMu, so either it sees this
		// connection published or this check sees the flag. The new
		// connection owes nothing yet, so failing it answers no call.
		if c.closed.Load() {
			mc.fail(ErrClosed)
			mc, err = nil, ErrClosed
		} else {
			c.mux = mc
		}
	}
	parked := c.parked
	c.parked = nil
	c.muxMu.Unlock()
	for _, g := range parked {
		if err != nil {
			g.failed(err)
		} else {
			g.send(mc)
		}
	}
}

// dialMux dials a multiplexed connection and starts its reader and
// writer.
func (c *Client) dialMux() (*muxConn, error) {
	pc, err := c.dial()
	if err != nil {
		return nil, &transientError{err: err}
	}
	mc := &muxConn{
		poolConn:   pc,
		ioTimeout:  c.ioTimeout,
		kick:       make(chan struct{}, 1),
		calls:      make(map[uint64]muxEntry),
		stop:       make(chan struct{}),
		readerDone: make(chan struct{}),
		writerDone: make(chan struct{}),
	}
	go mc.readLoop()
	go mc.writeLoop()
	return mc, nil
}

// closeMux fails the multiplexed connection's waiting calls with
// ErrClosed and waits for its reader and writer to return. A dial in
// flight is not waited for: it ends within the dial timeout, and
// runDial then closes what it dialed and fails its parked calls.
func (c *Client) closeMux() {
	c.muxMu.Lock()
	mc := c.mux
	c.mux = nil
	c.muxMu.Unlock()
	if mc != nil {
		mc.fail(ErrClosed)
		<-mc.readerDone
		<-mc.writerDone
	}
}

// register enters g as waiting for the response to id, and arms the
// timer that gives up on it after wait.
func (mc *muxConn) register(id uint64, g *goCall, wait time.Duration) error {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	if mc.err != nil {
		return mc.err
	}
	if len(mc.calls) == 0 {
		mc.heard = time.Now()
	}
	mc.calls[id] = muxEntry{g: g, t: time.AfterFunc(wait, func() { mc.expire(id, wait) })}
	return nil
}

// enqueue hands req to the writer goroutine, which owns it from then on.
func (mc *muxConn) enqueue(req *wire.Request) {
	mc.qmu.Lock()
	mc.queue = append(mc.queue, req)
	first := len(mc.queue) == 1
	mc.qmu.Unlock()
	if first {
		select {
		case mc.kick <- struct{}{}:
		default:
		}
	}
}

// writeLoop is the connection's only writer: on each wake-up it takes
// the whole queue, writes it and flushes once. A write error fails the
// connection, which answers every waiting call. It returns when the
// connection fails.
func (mc *muxConn) writeLoop() {
	defer close(mc.writerDone)
	var spare []*wire.Request
	for {
		select {
		case <-mc.kick:
		case <-mc.stop:
			return
		}
		mc.qmu.Lock()
		batch := mc.queue
		mc.queue = spare[:0]
		mc.qmu.Unlock()
		var err error
		for _, req := range batch {
			if err = wire.WriteRequest(mc.bw, req); err != nil {
				break
			}
		}
		if err == nil {
			err = mc.bw.Flush()
		}
		clear(batch)
		spare = batch
		if err != nil {
			mc.fail(&transientError{err: err})
			return
		}
	}
}

// expire answers call id with a timeout if it is still waiting after its
// time budget. Its response stays owed, and is dropped if it comes. If
// the connection has read nothing for ioTimeout, it fails instead.
func (mc *muxConn) expire(id uint64, wait time.Duration) {
	mc.mu.Lock()
	e := mc.calls[id]
	if e.g == nil {
		mc.mu.Unlock()
		return // answered, or the connection failed
	}
	if quiet := time.Since(mc.heard); quiet >= mc.ioTimeout {
		err := &transientError{err: fmt.Errorf("no response for %v: %w", quiet.Round(time.Millisecond), os.ErrDeadlineExceeded)}
		calls := mc.failLocked(err)
		mc.mu.Unlock()
		answer(calls, err)
		return
	}
	mc.calls[id] = muxEntry{}
	mc.mu.Unlock()
	e.g.deliver(nil, &transientError{err: fmt.Errorf("request %d: no response within %v: %w", id, wait, os.ErrDeadlineExceeded)})
}

// readLoop hands each response to the call waiting on its ID until the
// connection fails.
func (mc *muxConn) readLoop() {
	defer close(mc.readerDone)
	for {
		resp, err := wire.ReadResponse(mc.br)
		if err != nil {
			mc.fail(readErr(err))
			return
		}
		mc.mu.Lock()
		e, owed := mc.calls[resp.ID]
		if !owed {
			err := integrityErr(fmt.Errorf("response id %d matches no request", resp.ID))
			calls := mc.failLocked(err)
			mc.mu.Unlock()
			answer(calls, err)
			return
		}
		delete(mc.calls, resp.ID)
		mc.heard = time.Now()
		mc.mu.Unlock()
		if e.g != nil {
			e.t.Stop()
			e.g.deliver(resp, nil)
		}
	}
}

// fail closes the connection and answers every waiting call with err.
// Only the first failure counts.
func (mc *muxConn) fail(err error) {
	mc.mu.Lock()
	calls := mc.failLocked(err)
	mc.mu.Unlock()
	answer(calls, err)
}

// failLocked marks the connection failed and closes it, with mu held,
// and returns the calls it owed, for answer once mu is released. Only
// the first failure counts.
func (mc *muxConn) failLocked(err error) map[uint64]muxEntry {
	if mc.err != nil {
		return nil
	}
	mc.err = err
	mc.dead.Store(true)
	mc.nc.Close()
	close(mc.stop)
	calls := mc.calls
	mc.calls = nil
	return calls
}

// answer delivers err to every call still waiting in calls.
func answer(calls map[uint64]muxEntry, err error) {
	for _, e := range calls {
		if e.g != nil {
			e.t.Stop()
			e.g.deliver(nil, err)
		}
	}
}
