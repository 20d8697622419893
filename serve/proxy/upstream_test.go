package proxy

import (
	"bufio"
	"fmt"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"multifloats/internal/diffuzz"
	"multifloats/mf"
	"multifloats/serve/client"
	"multifloats/serve/wire"
)

// TestProxyOneUpstreamConnPerBackend: with the cache off, thousands of
// unique scalar frames pipelined from two downstream connections are all
// forwarded over one upstream connection per backend, and every answer
// is bit-exact. It also exercises Config.ClientOptions' dialer hook.
func TestProxyOneUpstreamConnPerBackend(t *testing.T) {
	b0 := startBackendAt(t, "127.0.0.1:0")
	b1 := startBackendAt(t, "127.0.0.1:0")
	var mu sync.Mutex
	dials := map[string]int{}
	countingDial := func(addr string, timeout time.Duration) (net.Conn, error) {
		mu.Lock()
		dials[addr]++
		mu.Unlock()
		return net.DialTimeout("tcp", addr, timeout)
	}
	p := startProxy(t, Config{
		Backends:      []string{b0.addr(), b1.addr()},
		CacheBytes:    -1,
		Seed:          1,
		ClientOptions: []client.Option{client.WithDialer(countingDial)},
	})

	const conns, frames, depth = 2, 2048, 64
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for k := 0; k < conns; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := pipelineScalars(p.Addr().String(), int64(k), frames, depth); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	for _, b := range []*testBackend{b0, b1} {
		if n := dials[b.addr()]; n > 1 {
			t.Errorf("backend %s dialed %d times for %d forwarded frames, want at most 1",
				b.addr(), n, b.s.Stats().Requests.Load())
		}
		if b.s.Stats().Requests.Load() == 0 {
			t.Errorf("backend %s served nothing: routing never reached it", b.addr())
		}
	}
}

// pipelineScalars sends n unique scalar frames on one raw connection to
// addr, at most depth outstanding, and checks every answer bit for bit
// against the local mf computation.
func pipelineScalars(addr string, seed int64, n, depth int) error {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer nc.Close()
	gen := diffuzz.NewGen(seed)
	ops := []wire.Op{wire.OpAdd, wire.OpSub, wire.OpMul, wire.OpDiv}
	reqs := make([]*wire.Request, n)
	for i := range reqs {
		w := 2 + i%3
		reqs[i] = &wire.Request{ID: uint64(i + 1), Op: ops[i%len(ops)], Width: w, Count: 1,
			X: gen.Positive(w, 200), Y: gen.NonZero(w, 200)}
	}

	slots := make(chan struct{}, depth)
	sendErr := make(chan error, 1)
	go func() {
		bw := bufio.NewWriter(nc)
		for _, req := range reqs {
			slots <- struct{}{}
			if err := wire.WriteRequest(bw, req); err != nil {
				sendErr <- err
				return
			}
			if len(slots) == depth || req.ID == uint64(n) {
				if err := bw.Flush(); err != nil {
					sendErr <- err
					return
				}
			}
		}
		sendErr <- nil
	}()

	nc.SetReadDeadline(time.Now().Add(30 * time.Second))
	br := bufio.NewReader(nc)
	for range reqs {
		resp, err := wire.ReadResponse(br)
		if err != nil {
			return err
		}
		if resp.ID == 0 || resp.ID > uint64(n) {
			return fmt.Errorf("response for unknown request %d", resp.ID)
		}
		req := reqs[resp.ID-1]
		want := localScalar(req.Op, req.Width, req.X, req.Y)
		if resp.Status != wire.StatusOK || !bitsEqual(resp.Data, want) {
			return fmt.Errorf("request %d (%v width %d): status %v, data %v, want %v",
				resp.ID, req.Op, req.Width, resp.Status, resp.Data, want)
		}
		<-slots
	}
	return <-sendErr
}

// localScalar computes one binary scalar op on width-w operands in
// process.
func localScalar(op wire.Op, w int, x, y []float64) []float64 {
	switch w {
	case 2:
		a, b := mf.Float64x2(x), mf.Float64x2(y)
		r := map[wire.Op]mf.Float64x2{wire.OpAdd: a.Add(b), wire.OpSub: a.Sub(b), wire.OpMul: a.Mul(b), wire.OpDiv: a.Div(b)}[op]
		return r[:]
	case 3:
		a, b := mf.Float64x3(x), mf.Float64x3(y)
		r := map[wire.Op]mf.Float64x3{wire.OpAdd: a.Add(b), wire.OpSub: a.Sub(b), wire.OpMul: a.Mul(b), wire.OpDiv: a.Div(b)}[op]
		return r[:]
	default:
		a, b := mf.Float64x4(x), mf.Float64x4(y)
		r := map[wire.Op]mf.Float64x4{wire.OpAdd: a.Add(b), wire.OpSub: a.Sub(b), wire.OpMul: a.Mul(b), wire.OpDiv: a.Div(b)}[op]
		return r[:]
	}
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
