package proxy

// End-to-end cluster tests: a real proxy in front of real servers,
// driven by the real client. Every completed response must be
// bit-identical to the corresponding in-process computation — under
// caching, failover, and mid-stream reduction resharding. Backends run
// Workers=1 so parallel BLAS reduction order matches the sequential
// local kernels (replica homogeneity, DESIGN.md §3.4); scalar ops and
// exact reductions are bit-identical at any worker count.

import (
	"bufio"
	"context"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"multifloats/internal/blas"
	"multifloats/internal/diffuzz"
	"multifloats/internal/exact"
	"multifloats/mf"
	"multifloats/serve/client"
	"multifloats/serve/server"
	"multifloats/serve/wire"
)

type testBackend struct {
	s    *server.Server
	done chan error
	once sync.Once
	t    *testing.T
}

func startBackendAt(t *testing.T, addr string) *testBackend {
	t.Helper()
	s := server.New(server.Config{Addr: addr, Workers: 1})
	if err := s.Listen(); err != nil {
		t.Fatalf("backend Listen(%s): %v", addr, err)
	}
	b := &testBackend{s: s, done: make(chan error, 1), t: t}
	go func() { b.done <- s.Serve() }()
	t.Cleanup(b.stop)
	return b
}

func (b *testBackend) addr() string { return b.s.Addr().String() }

// stop shuts the backend down (idempotent; used both for mid-test kills
// and cleanup).
func (b *testBackend) stop() {
	b.once.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := b.s.Shutdown(ctx); err != nil {
			b.t.Errorf("backend Shutdown: %v", err)
		}
		if err := <-b.done; err != nil {
			b.t.Errorf("backend Serve: %v", err)
		}
	})
}

func startProxy(t *testing.T, cfg Config) *Proxy {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatalf("proxy New: %v", err)
	}
	if err := p.Listen(); err != nil {
		t.Fatalf("proxy Listen: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- p.Serve() }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := p.Shutdown(ctx); err != nil {
			t.Errorf("proxy Shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("proxy Serve: %v", err)
		}
	})
	return p
}

func dialProxy(t *testing.T, p *Proxy, opts ...client.Option) *client.Client {
	t.Helper()
	c, err := client.Dial(p.Addr().String(), opts...)
	if err != nil {
		t.Fatalf("Dial proxy: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// flat1 draws m adversarial width-1 reduction elements as a flat slab.
func flat1(gen *diffuzz.Gen, m int) []float64 {
	v := gen.ReduceVector(1, m)
	out := make([]float64, 0, m)
	for _, e := range v {
		out = append(out, e...)
	}
	return out
}

func eqb2(a, b mf.Float64x2) bool {
	return math.Float64bits(a[0]) == math.Float64bits(b[0]) &&
		math.Float64bits(a[1]) == math.Float64bits(b[1])
}

// TestProxyParityAndCache drives diffuzz traffic through the cluster
// twice. Pass one: every result must be bit-identical to the local
// computation (proxied compute is exact). Pass two repeats the same
// requests: results must be byte-identical to pass one AND served from
// the cache — bit-determinism is what makes a content-addressed hit
// always exact.
func TestProxyParityAndCache(t *testing.T) {
	b0 := startBackendAt(t, "127.0.0.1:0")
	b1 := startBackendAt(t, "127.0.0.1:0")
	p := startProxy(t, Config{
		Backends: []string{b0.addr(), b1.addr()},
		Seed:     1,
	})
	cl := dialProxy(t, p)
	ctx := context.Background()
	gen := diffuzz.NewGen(99)

	const rounds = 30
	type captured struct {
		x2, y2   mf.Float64x2
		add, mul mf.Float64x2
		dx, dy   []mf.Float64x2
		dot      mf.Float64x2
		sumIn    []float64
		sum      float64
	}
	caps := make([]captured, rounds)

	for i := 0; i < rounds; i++ {
		c := &caps[i]
		copy(c.x2[:], gen.Expansion(2, 200))
		copy(c.y2[:], gen.Expansion(2, 200))

		got, err := client.Scalar(ctx, cl, wire.OpAdd, c.x2, c.y2)
		if err != nil || !eqb2(got, c.x2.Add(c.y2)) {
			t.Fatalf("round %d Add2 parity: %v", i, err)
		}
		c.add = got
		got, err = client.Scalar(ctx, cl, wire.OpMul, c.x2, c.y2)
		if err != nil || !eqb2(got, c.x2.Mul(c.y2)) {
			t.Fatalf("round %d Mul2 parity: %v", i, err)
		}
		c.mul = got

		n := 4 + i%5
		c.dx = make([]mf.Float64x2, n)
		c.dy = make([]mf.Float64x2, n)
		for j := range c.dx {
			copy(c.dx[j][:], gen.BlasElement(2))
			copy(c.dy[j][:], gen.BlasElement(2))
		}
		c.dot, err = client.Dot(ctx, cl, c.dx, c.dy)
		if err != nil || !eqb2(c.dot, blas.DotF2Parallel(c.dx, c.dy, 1)) {
			t.Fatalf("round %d Dot2 parity: %v", i, err)
		}

		c.sumIn = flat1(gen, 16+i)
		c.sum, err = client.SumExact(ctx, cl, c.sumIn)
		if err != nil || math.Float64bits(c.sum) != math.Float64bits(exact.Sum(c.sumIn)) {
			t.Fatalf("round %d SumExact parity: %v", i, err)
		}
	}
	missesAfterPass1 := p.stats.CacheMisses.Load()
	if missesAfterPass1 == 0 {
		t.Fatal("pass one produced no cache misses; cache not in the path")
	}

	// Pass two: identical requests, identical bits, served hot.
	for i := 0; i < rounds; i++ {
		c := &caps[i]
		if got, err := client.Scalar(ctx, cl, wire.OpAdd, c.x2, c.y2); err != nil || !eqb2(got, c.add) {
			t.Fatalf("round %d cached Add2 drifted: %v", i, err)
		}
		if got, err := client.Scalar(ctx, cl, wire.OpMul, c.x2, c.y2); err != nil || !eqb2(got, c.mul) {
			t.Fatalf("round %d cached Mul2 drifted: %v", i, err)
		}
		if got, err := client.Dot(ctx, cl, c.dx, c.dy); err != nil || !eqb2(got, c.dot) {
			t.Fatalf("round %d cached Dot2 drifted: %v", i, err)
		}
		if got, err := client.SumExact(ctx, cl, c.sumIn); err != nil ||
			math.Float64bits(got) != math.Float64bits(c.sum) {
			t.Fatalf("round %d cached SumExact drifted: %v", i, err)
		}
	}
	st := p.stats.Snapshot()
	if st.CacheHits < int64(rounds) {
		t.Errorf("CacheHits = %d after a full repeat pass of %d rounds × 4 ops", st.CacheHits, rounds)
	}
	if st.CacheMisses != missesAfterPass1 {
		t.Errorf("repeat pass missed: misses %d -> %d", missesAfterPass1, st.CacheMisses)
	}
	if st.CacheBytes <= 0 {
		t.Errorf("CacheBytes = %d, want > 0", st.CacheBytes)
	}
}

// TestProxyStreamedReductionParity shards a multi-chunk reduction
// stream across both backends and demands the merged result be
// bit-identical to the local superaccumulator fold.
func TestProxyStreamedReductionParity(t *testing.T) {
	b0 := startBackendAt(t, "127.0.0.1:0")
	b1 := startBackendAt(t, "127.0.0.1:0")
	p := startProxy(t, Config{
		Backends:     []string{b0.addr(), b1.addr()},
		ReduceShards: 2,
		Seed:         2,
	})
	// Tiny chunks so a modest vector becomes a long stream.
	cl := dialProxy(t, p, client.WithReduceChunk(8))
	ctx := context.Background()
	gen := diffuzz.NewGen(7)

	for round := 0; round < 4; round++ {
		xs := flat1(gen, 300+round)
		got, err := client.SumExact(ctx, cl, xs)
		if err != nil {
			t.Fatalf("round %d SumExact: %v", round, err)
		}
		if want := exact.Sum(xs); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("round %d sharded SumExact = %x, local = %x", round,
				math.Float64bits(got), math.Float64bits(want))
		}

		n := 200 + round
		x2 := make([]mf.Float64x2, n)
		for i := range x2 {
			copy(x2[i][:], gen.BlasElement(2))
		}
		got2, err := client.SumExact(ctx, cl, x2)
		if err != nil {
			t.Fatalf("round %d SumExact2: %v", round, err)
		}
		if want2 := exact.Sum2(x2); !eqb2(got2, want2) {
			t.Fatalf("round %d sharded SumExact2 mismatch", round)
		}
	}
	st := p.stats.Snapshot()
	if st.Reductions < 8 {
		t.Errorf("Reductions = %d, want >= 8 (stream path not exercised)", st.Reductions)
	}
	if st.ReduceChunks < 8*10 {
		t.Errorf("ReduceChunks = %d; chunking did not happen", st.ReduceChunks)
	}
	if st.Reshards != 0 {
		t.Errorf("Reshards = %d with no failures injected", st.Reshards)
	}
}

// TestProxyReductionReshardMidStream kills the backend holding live
// shard streams in the middle of a reduction and requires the stream to
// complete bit-exactly anyway, by replaying the dead shard's chunks to
// the surviving backend.
func TestProxyReductionReshardMidStream(t *testing.T) {
	b0 := startBackendAt(t, "127.0.0.1:0")
	b1 := startBackendAt(t, "127.0.0.1:0")
	backends := []*testBackend{b0, b1}
	p := startProxy(t, Config{
		Backends:     []string{b0.addr(), b1.addr()},
		ReduceShards: 2,
		Seed:         3,
		ClientOptions: []client.Option{
			client.WithMaxRetries(0),
			client.WithDialTimeout(500 * time.Millisecond),
		},
	})
	cl := dialProxy(t, p)
	ctx := context.Background()
	gen := diffuzz.NewGen(11)

	s, err := cl.StartReduce(ctx, wire.OpSumExact, 1, 0)
	if err != nil {
		t.Fatalf("StartReduce: %v", err)
	}
	var all []float64
	sendChunks := func(k int) {
		t.Helper()
		for i := 0; i < k; i++ {
			chunk := flat1(gen, 5)
			all = append(all, chunk...)
			if err := s.Send(len(chunk), chunk, nil); err != nil {
				t.Fatalf("Send: %v", err)
			}
		}
	}

	// Enough chunks that the client's ack window has cycled: the proxy
	// has provably opened both shard streams.
	sendChunks(80)

	// Kill a backend that is actually holding shard streams (in-flight
	// charge > 0 means live upstream streams are parked on it).
	victim := -1
	for i := range backends {
		if p.router.backends[i].inflight.Load() > 0 {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no backend holds a shard stream after 80 chunks")
	}
	backends[victim].stop()

	// The stream must survive: dead shard replayed onto the survivor.
	sendChunks(80)
	got, err := s.Finish(0, nil, nil, false)
	if err != nil {
		t.Fatalf("Finish after backend kill: %v", err)
	}
	if len(got) != 1 {
		t.Fatalf("Finish returned %d words, want 1", len(got))
	}
	want := exact.Sum(all)
	if math.Float64bits(got[0]) != math.Float64bits(want) {
		t.Fatalf("resharded sum = %x, local = %x", math.Float64bits(got[0]), math.Float64bits(want))
	}
	if p.stats.Reshards.Load() == 0 {
		t.Error("backend died mid-stream yet Reshards = 0")
	}
}

// TestProxyUnaryFailover kills one backend and requires every
// subsequent unary request to succeed via failover, the dead backend to
// be ejected, and — after it comes back on the same address — a probe
// to reinstate it.
func TestProxyUnaryFailover(t *testing.T) {
	b0 := startBackendAt(t, "127.0.0.1:0")
	b1 := startBackendAt(t, "127.0.0.1:0")
	addr0 := b0.addr()
	p := startProxy(t, Config{
		Backends:      []string{addr0, b1.addr()},
		CacheBytes:    -1, // force every request upstream
		FailThreshold: 2,
		ProbeAfter:    30 * time.Millisecond,
		Seed:          4,
		ClientOptions: []client.Option{
			client.WithMaxRetries(0),
			client.WithDialTimeout(300 * time.Millisecond),
		},
	})
	cl := dialProxy(t, p)
	ctx := context.Background()
	gen := diffuzz.NewGen(21)

	do := func(i int) {
		t.Helper()
		var x, y mf.Float64x2
		copy(x[:], gen.Expansion(2, 60))
		copy(y[:], gen.Expansion(2, 60))
		got, err := client.Scalar(ctx, cl, wire.OpAdd, x, y)
		if err != nil {
			t.Fatalf("request %d failed despite a healthy replica: %v", i, err)
		}
		if !eqb2(got, x.Add(y)) {
			t.Fatalf("request %d: failover result not bit-exact", i)
		}
	}

	b0.stop()
	for i := 0; i < 40; i++ {
		do(i)
	}
	st := p.stats.Snapshot()
	if st.Failovers == 0 {
		t.Error("no failovers recorded with a dead backend in the ring")
	}
	if st.Ejections == 0 {
		t.Error("dead backend was never ejected")
	}

	// Resurrect it on the same address; probes must reinstate it.
	startBackendAt(t, addr0)
	deadline := time.Now().Add(5 * time.Second)
	for p.stats.Reinstates.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("restarted backend never reinstated")
		}
		do(-1)
		time.Sleep(10 * time.Millisecond)
	}
}

// TestProxyHopLoopReject sends a frame already at the proxy-hop ceiling
// and expects a BadRequest rejection instead of a forward — the loop
// guard.
func TestProxyHopLoopReject(t *testing.T) {
	b0 := startBackendAt(t, "127.0.0.1:0")
	p := startProxy(t, Config{Backends: []string{b0.addr()}, Seed: 5})

	nc, err := net.Dial("tcp", p.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	bw := bufio.NewWriter(nc)
	req := &wire.Request{ID: 1, Op: wire.OpAdd, Width: 2, Count: 1, Hops: wire.MaxProxyHops,
		X: []float64{1, 0}, Y: []float64{2, 0}}
	if err := wire.WriteRequest(bw, req); err != nil {
		t.Fatalf("WriteRequest: %v", err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	resp, err := wire.ReadResponse(bufio.NewReader(nc))
	if err != nil {
		t.Fatalf("ReadResponse: %v", err)
	}
	if resp.Status != wire.StatusBadRequest {
		t.Fatalf("status = %v, want BadRequest", resp.Status)
	}
	if p.stats.LoopRejects.Load() != 1 {
		t.Fatalf("LoopRejects = %d, want 1", p.stats.LoopRejects.Load())
	}

	// One hop below the ceiling still goes through.
	req2 := &wire.Request{ID: 2, Op: wire.OpAdd, Width: 2, Count: 1, Hops: wire.MaxProxyHops - 1,
		X: []float64{1, 0}, Y: []float64{2, 0}}
	if err := wire.WriteRequest(bw, req2); err != nil {
		t.Fatalf("WriteRequest: %v", err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	resp2, err := wire.ReadResponse(bufio.NewReader(nc))
	if err != nil {
		t.Fatalf("ReadResponse: %v", err)
	}
	if resp2.Status != wire.StatusOK {
		t.Fatalf("status below ceiling = %v, want OK", resp2.Status)
	}
}

// TestProxyDrain verifies graceful shutdown: in-flight work completes,
// and the listener stops accepting.
func TestProxyDrain(t *testing.T) {
	b0 := startBackendAt(t, "127.0.0.1:0")
	p, err := New(Config{Backends: []string{b0.addr()}, Seed: 6})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := p.Listen(); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	addr := p.Addr().String()
	done := make(chan error, 1)
	go func() { done <- p.Serve() }()

	cl, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	if _, err := client.Scalar(context.Background(), cl, wire.OpAdd, mf.New2(1.0), mf.New2(2.0)); err != nil {
		t.Fatalf("Add2: %v", err)
	}
	cl.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := p.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve returned %v after drain", err)
	}
	if _, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}
