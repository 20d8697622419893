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
// of them can be in flight on one connection: each call writes its frame
// behind the ones already queued and waits for the response carrying its
// request ID. BLAS and reduction frames execute on the server's
// connection reader, where they would stall every frame queued behind
// them, so they keep the pooled exclusive connections.
//
// The connection keeps the pooled exchange's contract where one call's
// fate is concerned. It is dialed through Client.dial, and after a
// failure it is re-dialed once, by the first caller that finds it gone;
// concurrent callers share that dial. A call waits at most as long as
// exchangeDeadline allows and then returns a retryable timeout; since
// other calls share the connection, that answers only the call, and a
// response that still comes for it is dropped. Only when the connection
// has read nothing for ioTimeout while owing responses, the pooled
// exchange's longest wait, does a call that runs out fail it. A CRC or
// framing failure, or a response whose ID matches no request, fails it
// with a retryable ErrIntegrity error; any other read or write error
// fails it with a plain retryable one. Every waiting call then receives
// that error, and withRetries retries it.

// muxConn is one pipelined connection shared by concurrent scalar calls.
type muxConn struct {
	*poolConn
	ioTimeout time.Duration

	// wmu serializes frame writes. writers counts the calls holding or
	// queued for it; the last one out flushes, so a burst of concurrent
	// calls shares one write syscall.
	wmu     sync.Mutex
	writers atomic.Int32

	mu sync.Mutex
	// calls holds every response owed, by request ID: the waiting call's
	// channel, or nil once that call has given up. nil once failed.
	calls map[uint64]chan muxResult
	// heard is when the connection last showed life while owing
	// responses: its last response read, or the call that found nothing
	// owed.
	heard time.Time
	err   error       // why the connection failed
	dead  atomic.Bool // err != nil, readable without mu

	readerDone chan struct{} // closed when readLoop returns
}

// muxResult is what a waiting call receives: its response or its
// failure, exactly once. Whoever takes its channel out of calls sends it,
// and the call's channel has room for that one value, so the send never
// blocks, even with mu held.
type muxResult struct {
	resp *wire.Response
	err  error
}

// muxDial is one dial of the multiplexed connection; callers arriving
// while it runs wait on done and share its outcome.
type muxDial struct {
	done chan struct{}
	mc   *muxConn
	err  error
}

// muxConn returns the live multiplexed connection, dialing one if there
// is none.
func (c *Client) muxConn() (*muxConn, error) {
	c.muxMu.Lock()
	if mc := c.mux; mc != nil && !mc.dead.Load() {
		c.muxMu.Unlock()
		return mc, nil
	}
	if c.closed.Load() {
		c.muxMu.Unlock()
		return nil, ErrClosed
	}
	if d := c.muxDial; d != nil {
		c.muxMu.Unlock()
		<-d.done
		return d.mc, d.err
	}
	d := &muxDial{done: make(chan struct{})}
	c.muxDial = d
	c.muxMu.Unlock()

	d.mc, d.err = c.dialMux()
	c.muxMu.Lock()
	c.muxDial = nil
	if d.err == nil {
		// Close flips closed before it takes muxMu, so either it sees this
		// connection published or this check sees the flag.
		if c.closed.Load() {
			d.mc.fail(ErrClosed)
			d.mc, d.err = nil, ErrClosed
		} else {
			c.mux = d.mc
		}
	}
	c.muxMu.Unlock()
	close(d.done)
	return d.mc, d.err
}

// dialMux dials a multiplexed connection and starts its reader.
func (c *Client) dialMux() (*muxConn, error) {
	pc, err := c.dial()
	if err != nil {
		return nil, &transientError{err: err}
	}
	mc := &muxConn{
		poolConn:   pc,
		ioTimeout:  c.ioTimeout,
		calls:      make(map[uint64]chan muxResult),
		readerDone: make(chan struct{}),
	}
	go mc.readLoop()
	return mc, nil
}

// closeMux fails the multiplexed connection's waiting calls with
// ErrClosed and waits for its reader to return.
func (c *Client) closeMux() {
	c.muxMu.Lock()
	mc := c.mux
	c.mux = nil
	c.muxMu.Unlock()
	if mc != nil {
		mc.fail(ErrClosed)
		<-mc.readerDone
	}
}

// exchangeMux sends req on the multiplexed connection and waits for its
// response.
func (c *Client) exchangeMux(req *wire.Request) (*wire.Response, error) {
	mc, err := c.muxConn()
	if err != nil {
		return nil, err
	}
	id, done := req.ID, make(chan muxResult, 1)
	if err := mc.register(id, done); err != nil {
		return nil, err
	}
	// The timer may still be firing after the call returns, when a retry
	// already reuses req; it must not read req.
	wait := time.Until(exchangeDeadline(c.ioTimeout, req.Deadline))
	t := time.AfterFunc(wait, func() { mc.expire(id, wait) })
	mc.send(req)
	r := <-done
	t.Stop()
	return r.resp, r.err
}

// register enters a call waiting for the response to id.
func (mc *muxConn) register(id uint64, done chan muxResult) error {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	if mc.err != nil {
		return mc.err
	}
	if len(mc.calls) == 0 {
		mc.heard = time.Now()
	}
	mc.calls[id] = done
	return nil
}

// send writes req behind the frames already queued. A write error fails
// the connection, which also answers this call.
func (mc *muxConn) send(req *wire.Request) {
	mc.writers.Add(1)
	mc.wmu.Lock()
	err := wire.WriteRequest(mc.bw, req)
	if mc.writers.Add(-1) == 0 && err == nil {
		err = mc.bw.Flush()
	}
	mc.wmu.Unlock()
	if err != nil {
		mc.fail(&transientError{err: err})
	}
}

// expire answers call id with a timeout if it is still waiting after its
// time budget. Its response stays owed, and is dropped if it comes. If
// the connection has read nothing for ioTimeout, it fails instead.
func (mc *muxConn) expire(id uint64, wait time.Duration) {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	done := mc.calls[id]
	if done == nil {
		return // answered, or the connection failed
	}
	if quiet := time.Since(mc.heard); quiet >= mc.ioTimeout {
		mc.failLocked(&transientError{err: fmt.Errorf("no response for %v: %w", quiet.Round(time.Millisecond), os.ErrDeadlineExceeded)})
		return
	}
	mc.calls[id] = nil
	done <- muxResult{err: &transientError{err: fmt.Errorf("request %d: no response within %v: %w", id, wait, os.ErrDeadlineExceeded)}}
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
		done, owed := mc.calls[resp.ID]
		if !owed {
			mc.failLocked(integrityErr(fmt.Errorf("response id %d matches no request", resp.ID)))
			mc.mu.Unlock()
			return
		}
		delete(mc.calls, resp.ID)
		mc.heard = time.Now()
		if done != nil {
			done <- muxResult{resp: resp}
		}
		mc.mu.Unlock()
	}
}

// fail closes the connection and answers every waiting call with err.
// Only the first failure counts.
func (mc *muxConn) fail(err error) {
	mc.mu.Lock()
	mc.failLocked(err)
	mc.mu.Unlock()
}

// failLocked is fail with mu held.
func (mc *muxConn) failLocked(err error) {
	if mc.err != nil {
		return
	}
	mc.err = err
	mc.dead.Store(true)
	mc.nc.Close()
	for _, done := range mc.calls {
		if done != nil {
			done <- muxResult{err: err}
		}
	}
	mc.calls = nil
}
