package chaostest

// Proxy chaos campaigns: an mfproxy in front of two restartable
// backends whose links run through the netfault injector, with backends
// killed and restarted mid-campaign while mixed scalar/BLAS traffic and
// multi-chunk reduction streams are in flight.
//
// Invariants:
//  1. Every response the cluster completes is bit-identical to the
//     local computation — including reductions whose shard streams were
//     resharded across a backend kill. Faults and failover may fail a
//     call loudly; they may never change a delivered value.
//  2. The proxy drains cleanly with the fault schedule still attached.
//  3. Nothing leaks: servers, proxy conns, client pools are gone at exit.
//
// Non-vacuity: a campaign must complete calls AND reductions, restart
// backends, and observe the proxy actually failing over (failovers,
// reshards, or ejections) — a green run that exercised nothing proves
// nothing.

import (
	"context"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"multifloats/internal/blas"
	"multifloats/internal/diffuzz"
	"multifloats/internal/exact"
	"multifloats/internal/netfault"
	"multifloats/internal/testutil"
	"multifloats/mf"
	"multifloats/serve/client"
	"multifloats/serve/proxy"
	"multifloats/serve/server"
	"multifloats/serve/wire"
)

// proxyProfiles are the upstream-link fault mixes. Stall-free: a
// stalled upstream read parks a shard stream for the stall duration,
// which is chaos the kill/restart schedule already covers more
// violently.
var proxyProfiles = []profile{
	{name: "corruption", server: netfault.Config{ReadCorrupt: 2e-4, WriteCorrupt: 2e-4}},
	{name: "resets", server: netfault.Config{ResetRate: 0.008}},
	{name: "fragmentation", server: netfault.Config{ReadChunk: 7, WriteChunk: 13}},
	{name: "kitchen-sink", server: netfault.Config{
		ReadCorrupt: 1e-4, WriteCorrupt: 1e-4,
		ReadChunk: 64, WriteChunk: 64,
		DelayRate: 0.02, MaxDelay: time.Millisecond,
		ResetRate: 0.002}},
}

// restartableBackend is an mfserved that can be killed and brought back
// on the same address, each generation behind a fresh fault-wrapped
// listener.
type restartableBackend struct {
	t     *testing.T
	addr  string
	fault netfault.Config

	mu       sync.Mutex
	s        *server.Server
	done     chan error
	injected int64 // fault counters accumulated across dead generations
	gen      int64 // seeds each generation's fault schedule differently
	stats    *netfault.Stats
}

func startRestartableBackend(t *testing.T, seed int64, fault netfault.Config) *restartableBackend {
	b := &restartableBackend{t: t, fault: fault, gen: seed}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	b.addr = ln.Addr().String()
	b.startOn(ln)
	t.Cleanup(b.kill)
	return b
}

func (b *restartableBackend) startOn(ln net.Listener) {
	b.fault.Seed = b.gen
	b.gen++
	fln := netfault.Wrap(ln, b.fault)
	s := server.New(server.Config{
		BatchWindow:  100 * time.Microsecond,
		MaxBatch:     64,
		Workers:      1, // sequential kernel order: the local oracle is bit-exact for BLAS
		IdleTimeout:  2 * time.Second,
		WriteTimeout: 2 * time.Second,
	})
	done := make(chan error, 1)
	go func() { done <- s.ServeListener(fln) }()
	b.mu.Lock()
	b.s, b.done, b.stats = s, done, fln.Stats()
	b.mu.Unlock()
}

// kill shuts the current generation down (idempotent).
func (b *restartableBackend) kill() {
	b.mu.Lock()
	s, done, st := b.s, b.done, b.stats
	b.s, b.done, b.stats = nil, nil, nil
	if st != nil {
		b.injected += st.CorruptedBytes.Load() + st.Delays.Load() + st.Stalls.Load() +
			st.Resets.Load() + st.ShortOps.Load()
	}
	b.mu.Unlock()
	if s == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		b.t.Errorf("backend shutdown: %v", err)
	}
	if err := <-done; err != nil {
		b.t.Errorf("backend serve: %v", err)
	}
}

// restart brings a killed backend back on its original address,
// retrying briefly in case the kernel is slow releasing the port.
func (b *restartableBackend) restart() {
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err := net.Listen("tcp", b.addr)
		if err == nil {
			b.startOn(ln)
			return
		}
		if time.Now().After(deadline) {
			b.t.Errorf("rebind %s: %v", b.addr, err)
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (b *restartableBackend) faultsInjected() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := b.injected
	if b.stats != nil {
		n += b.stats.CorruptedBytes.Load() + b.stats.Delays.Load() + b.stats.Stalls.Load() +
			b.stats.Resets.Load() + b.stats.ShortOps.Load()
	}
	return n
}

func TestProxyChaosCampaigns(t *testing.T) {
	blas.Parallel(4, 2, func(lo, hi int) {})
	testutil.VerifyNoLeaks(t)
	for i := 0; i < *chaosSeeds; i++ {
		seed := int64(5000 + i)
		prof := proxyProfiles[i%len(proxyProfiles)]
		t.Run(fmt.Sprintf("seed=%d,profile=%s", seed, prof.name), func(t *testing.T) {
			runProxyCampaign(t, seed, prof)
		})
	}
}

func runProxyCampaign(t *testing.T, seed int64, prof profile) {
	b0 := startRestartableBackend(t, seed*2, prof.server)
	b1 := startRestartableBackend(t, seed*2+1, prof.server)
	backends := []*restartableBackend{b0, b1}

	p, err := proxy.New(proxy.Config{
		Addr:          "127.0.0.1:0",
		Backends:      []string{b0.addr, b1.addr},
		ReduceShards:  2,
		FailThreshold: 2,
		ProbeAfter:    100 * time.Millisecond,
		Seed:          seed,
		IdleTimeout:   2 * time.Second,
		WriteTimeout:  2 * time.Second,
		ClientOptions: []client.Option{
			client.WithMaxRetries(1),
			client.WithBackoff(time.Millisecond, 5*time.Millisecond),
			client.WithDialTimeout(time.Second),
			client.WithIOTimeout(2 * time.Second),
		},
	})
	if err != nil {
		t.Fatalf("proxy: %v", err)
	}
	if err := p.Listen(); err != nil {
		t.Fatalf("proxy listen: %v", err)
	}
	pdone := make(chan error, 1)
	go func() { pdone <- p.Serve() }()

	c, err := client.Dial(p.Addr().String(),
		client.WithMaxRetries(6),
		client.WithBackoff(time.Millisecond, 10*time.Millisecond),
		client.WithDialTimeout(2*time.Second),
		client.WithIOTimeout(2*time.Second),
		client.WithReduceChunk(8), // multi-chunk streams even for small vectors
	)
	if err != nil {
		t.Fatalf("dial proxy: %v", err)
	}

	// Kill/restart schedule: alternate backends, three cycles, while
	// traffic runs. Never both dead at once — the cluster must stay
	// answerable, just degraded.
	var restarts atomic.Int64
	killDone := make(chan struct{})
	go func() {
		defer close(killDone)
		for cycle := 0; cycle < 3; cycle++ {
			b := backends[cycle%2]
			time.Sleep(150 * time.Millisecond)
			b.kill()
			time.Sleep(150 * time.Millisecond)
			b.restart()
			restarts.Add(1)
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	const goroutines = 4
	var okCalls, failedCalls, okReductions atomic.Int64
	mismatches := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			gen := diffuzz.NewGen(seed*37 + int64(g))
			// Run until the kill schedule is spent, with a floor so every
			// campaign sees traffic both before and after restarts.
			for it := 0; ; it++ {
				if err := proxyChaosRound(ctx, c, gen, it, &okCalls, &failedCalls, &okReductions); err != nil {
					select {
					case mismatches <- err:
					default:
					}
					return
				}
				if it >= 10 {
					select {
					case <-killDone:
						return
					default:
					}
				}
				if ctx.Err() != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	<-killDone
	close(mismatches)
	// Invariant 1: no completed response may differ from local compute.
	for err := range mismatches {
		t.Errorf("cluster delivered a bit-inexact response: %v", err)
	}

	// Invariant 2: the proxy drains with faults still attached.
	c.Close()
	sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer scancel()
	if err := p.Shutdown(sctx); err != nil {
		t.Errorf("proxy Shutdown under chaos: %v", err)
	}
	if err := <-pdone; err != nil {
		t.Errorf("proxy Serve: %v", err)
	}

	// Non-vacuity.
	snap := p.Stats().Snapshot()
	if okCalls.Load() == 0 {
		t.Errorf("campaign completed zero calls (%d failed) — invariants vacuous", failedCalls.Load())
	}
	if okReductions.Load() == 0 {
		t.Errorf("campaign completed zero reduction streams — reshard invariant vacuous")
	}
	if restarts.Load() == 0 {
		t.Error("no backend restarts happened")
	}
	if snap.Failovers+snap.Reshards+snap.Ejections == 0 {
		t.Error("proxy never failed over, resharded, or ejected — kills were not observed")
	}
	injected := b0.faultsInjected() + b1.faultsInjected()
	if injected == 0 {
		t.Error("campaign injected zero upstream faults")
	}
	t.Logf("seed=%d profile=%s: %d ok (%d reductions), %d failed, %d restarts; proxy: failovers=%d reshards=%d ejections=%d reinstates=%d cacheHits=%d; upstream faults=%d",
		seed, prof.name, okCalls.Load(), okReductions.Load(), failedCalls.Load(), restarts.Load(),
		snap.Failovers, snap.Reshards, snap.Ejections, snap.Reinstates, snap.CacheHits, injected)
}

// proxyChaosRound issues one iteration of mixed cluster traffic. Failed
// calls are tolerated and counted; an OK response whose value differs
// from the local computation is returned as the invariant violation.
func proxyChaosRound(ctx context.Context, c *client.Client, gen *diffuzz.Gen, it int,
	okCalls, failedCalls, okReductions *atomic.Int64) error {
	check := func(name string, err error, exact bool) error {
		if err != nil {
			failedCalls.Add(1)
			return nil
		}
		okCalls.Add(1)
		if !exact {
			return fmt.Errorf("%s: delivered result differs from local computation", name)
		}
		return nil
	}

	var x2, y2 mf.Float64x2
	copy(x2[:], gen.Expansion(2, 200))
	copy(y2[:], gen.Expansion(2, 200))
	got2, err := client.Scalar(ctx, c, wire.OpAdd, x2, y2)
	if e := check("Add2", err, err != nil || eq2(got2, x2.Add(y2))); e != nil {
		return e
	}
	got2, err = client.Scalar(ctx, c, wire.OpMul, x2, y2)
	if e := check("Mul2", err, err != nil || eq2(got2, x2.Mul(y2))); e != nil {
		return e
	}

	var x3, y3 mf.Float64x3
	copy(x3[:], gen.Expansion(3, 120))
	copy(y3[:], gen.NonZero(3, 120))
	got3, err := client.Scalar(ctx, c, wire.OpDiv, x3, y3)
	if e := check("Div3", err, err != nil || eq3(got3, x3.Div(y3))); e != nil {
		return e
	}

	// BLAS through the cluster, against the sequential local kernel.
	n := 6 + it%7
	vx := make([]mf.Float64x2, n)
	vy := make([]mf.Float64x2, n)
	for i := range vx {
		copy(vx[i][:], gen.BlasElement(2))
		copy(vy[i][:], gen.BlasElement(2))
	}
	gotDot, err := client.Dot(ctx, c, vx, vy)
	if e := check("Dot2", err, err != nil || eq2(gotDot, blas.DotF2Parallel(vx, vy, 1))); e != nil {
		return e
	}

	// Multi-chunk reduction stream (chunk size 8): sharded across
	// backends by the proxy, resharded when a kill lands mid-stream.
	m := 40 + it%40
	xs := make([]float64, 0, m)
	for _, e := range gen.ReduceVector(1, m) {
		xs = append(xs, e...)
	}
	gotSum, err := client.SumExact(ctx, c, xs)
	if err != nil {
		failedCalls.Add(1)
		return nil
	}
	okCalls.Add(1)
	okReductions.Add(1)
	if math.Float64bits(gotSum) != math.Float64bits(exact.Sum(xs)) {
		return fmt.Errorf("SumExact: resharded stream delivered %x, local %x",
			math.Float64bits(gotSum), math.Float64bits(exact.Sum(xs)))
	}
	return nil
}
