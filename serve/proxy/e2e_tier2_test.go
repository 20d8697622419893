package proxy

// Proxy-behind-proxy end-to-end coverage: a two-tier mfproxy chain in
// front of real backends must stay bit-exact (scalar ops, reductions,
// and cached repeats), and the ProxyHop accounting must be correct
// through the chain — each tier increments the hop count exactly once,
// which is proven behaviorally at the wire limit: a chain of exactly
// wire.MaxProxyHops tiers still serves traffic, and one tier more is
// loop-rejected by the innermost proxy, not forwarded to a backend.

import (
	"context"
	"math"
	"testing"

	"multifloats/internal/blas"
	"multifloats/internal/diffuzz"
	"multifloats/internal/exact"
	"multifloats/mf"
	"multifloats/serve/client"
	"multifloats/serve/wire"
)

// startChain starts tiers proxies in front of the backends, outermost
// last; it returns the chain outermost-first.
func startChain(t *testing.T, tiers int, backends ...string) []*Proxy {
	t.Helper()
	chain := make([]*Proxy, tiers)
	upstream := backends
	for i := tiers - 1; i >= 0; i-- {
		p := startProxy(t, Config{Backends: upstream, Seed: int64(100 + i)})
		chain[i] = p
		upstream = []string{p.Addr().String()}
	}
	return chain
}

// TestProxyBehindProxy drives diffuzz traffic through two stacked
// proxies and checks every response bit-identical against the local
// computation, then repeats the pass and requires the outer tier to
// serve it from cache without drifting a bit.
func TestProxyBehindProxy(t *testing.T) {
	b0 := startBackendAt(t, "127.0.0.1:0")
	b1 := startBackendAt(t, "127.0.0.1:0")
	chain := startChain(t, 2, b0.addr(), b1.addr())
	outer, inner := chain[0], chain[1]
	cl := dialProxy(t, outer)
	ctx := context.Background()
	gen := diffuzz.NewGen(77)

	const rounds = 12
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
		var err error
		c.add, err = client.Scalar(ctx, cl, wire.OpAdd, c.x2, c.y2)
		if err != nil || !eqb2(c.add, c.x2.Add(c.y2)) {
			t.Fatalf("round %d two-tier Add2 parity: %v", i, err)
		}
		c.mul, err = client.Scalar(ctx, cl, wire.OpMul, c.x2, c.y2)
		if err != nil || !eqb2(c.mul, c.x2.Mul(c.y2)) {
			t.Fatalf("round %d two-tier Mul2 parity: %v", i, err)
		}
		n := 4 + i%5
		c.dx = make([]mf.Float64x2, n)
		c.dy = make([]mf.Float64x2, n)
		for j := range c.dx {
			copy(c.dx[j][:], gen.BlasElement(2))
			copy(c.dy[j][:], gen.BlasElement(2))
		}
		c.dot, err = client.Dot(ctx, cl, c.dx, c.dy)
		if err != nil || !eqb2(c.dot, blas.DotF2Parallel(c.dx, c.dy, 1)) {
			t.Fatalf("round %d two-tier Dot2 parity: %v", i, err)
		}
		c.sumIn = flat1(gen, 16+i)
		c.sum, err = client.SumExact(ctx, cl, c.sumIn)
		if err != nil || math.Float64bits(c.sum) != math.Float64bits(exact.Sum(c.sumIn)) {
			t.Fatalf("round %d two-tier SumExact parity: %v", i, err)
		}
	}

	// Both tiers must actually be in the path.
	if outer.stats.Requests.Load() == 0 || inner.stats.Requests.Load() == 0 {
		t.Fatalf("tier traffic: outer %d, inner %d requests — a tier is being bypassed",
			outer.stats.Requests.Load(), inner.stats.Requests.Load())
	}

	// Repeat pass: byte-identical, and the outer tier serves it hot.
	hitsBefore := outer.stats.CacheHits.Load()
	for i := 0; i < rounds; i++ {
		c := &caps[i]
		if got, err := client.Scalar(ctx, cl, wire.OpAdd, c.x2, c.y2); err != nil || !eqb2(got, c.add) {
			t.Fatalf("round %d cached two-tier Add2 drifted: %v", i, err)
		}
		if got, err := client.Scalar(ctx, cl, wire.OpMul, c.x2, c.y2); err != nil || !eqb2(got, c.mul) {
			t.Fatalf("round %d cached two-tier Mul2 drifted: %v", i, err)
		}
		if got, err := client.Dot(ctx, cl, c.dx, c.dy); err != nil || !eqb2(got, c.dot) {
			t.Fatalf("round %d cached two-tier Dot2 drifted: %v", i, err)
		}
		if got, err := client.SumExact(ctx, cl, c.sumIn); err != nil ||
			math.Float64bits(got) != math.Float64bits(c.sum) {
			t.Fatalf("round %d cached two-tier SumExact drifted: %v", i, err)
		}
	}
	if hits := outer.stats.CacheHits.Load() - hitsBefore; hits < 2*rounds {
		t.Errorf("outer tier CacheHits grew by %d over a repeat pass of %d rounds × 3 cacheable ops", hits, rounds)
	}
}

// TestProxyHopAccounting pins the hop arithmetic end to end. A chain of
// exactly wire.MaxProxyHops tiers must serve traffic (the innermost
// tier forwards with Hops = MaxProxyHops, which the backend accepts),
// so each tier provably increments the count exactly once — a double
// increment would trip the cap early, a missing one would let the next
// test case pass. One tier beyond the cap must be rejected by the
// innermost proxy without reaching a backend.
func TestProxyHopAccounting(t *testing.T) {
	b := startBackendAt(t, "127.0.0.1:0")

	// Exactly at the cap: still bit-exact.
	atCap := startChain(t, wire.MaxProxyHops, b.addr())
	cl := dialProxy(t, atCap[0])
	ctx := context.Background()
	x := mf.Float64x2{1.5, 0x1p-60}
	y := mf.Float64x2{2.25, -0x1p-61}
	got, err := client.Scalar(ctx, cl, wire.OpAdd, x, y)
	if err != nil || !eqb2(got, x.Add(y)) {
		t.Fatalf("Add2 through %d tiers (the hop cap): %v", wire.MaxProxyHops, err)
	}

	// One past the cap: the innermost tier loop-rejects; no backend
	// traffic for the request.
	served := b.s.Stats().Requests.Load()
	over := startChain(t, wire.MaxProxyHops+1, b.addr())
	clOver := dialProxy(t, over[0])
	if _, err := client.Scalar(ctx, clOver, wire.OpAdd, x, y); err == nil {
		t.Fatalf("Add2 through %d tiers succeeded past the hop cap", wire.MaxProxyHops+1)
	}
	innermost := over[len(over)-1]
	if innermost.stats.LoopRejects.Load() == 0 {
		t.Error("innermost tier recorded no LoopRejects past the hop cap")
	}
	if b.s.Stats().Requests.Load() != served {
		t.Error("a past-the-cap request reached the backend")
	}
}
