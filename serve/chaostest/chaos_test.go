package chaostest

import (
	"context"
	"flag"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"multifloats/internal/blas"
	"multifloats/internal/diffuzz"
	"multifloats/internal/netfault"
	"multifloats/internal/testutil"
	"multifloats/mf"
	"multifloats/serve/client"
	"multifloats/serve/server"
	"multifloats/serve/wire"
)

// chaosSeeds sets how many seeded campaigns TestChaosCampaigns runs.
// `make chaos` raises it to a full matrix; `make chaos-smoke` trims it.
var chaosSeeds = flag.Int("chaos.seeds", 6, "number of seeded chaos campaigns to run")

// profile is one fault mix. Campaign i runs profiles[i%len(profiles)]
// with seed 1000+i, so every profile appears across any span of seeds
// and a failing campaign names both its seed and its profile.
type profile struct {
	name   string
	server netfault.Config  // wraps the server's listener (both directions)
	dialer *netfault.Config // wraps the client's outbound conns, when set
}

var profiles = []profile{
	{name: "corruption", server: netfault.Config{ReadCorrupt: 3e-4, WriteCorrupt: 3e-4}},
	{name: "resets", server: netfault.Config{ResetRate: 0.01}},
	{name: "latency", server: netfault.Config{
		DelayRate: 0.08, MaxDelay: 2 * time.Millisecond,
		StallRate: 0.002, Stall: 30 * time.Millisecond}},
	{name: "fragmentation",
		server: netfault.Config{ReadChunk: 7, WriteChunk: 13},
		dialer: &netfault.Config{ReadChunk: 9, WriteChunk: 11}},
	{name: "kitchen-sink",
		server: netfault.Config{
			ReadCorrupt: 1e-4, WriteCorrupt: 1e-4,
			ReadChunk: 64, WriteChunk: 64,
			DelayRate: 0.02, MaxDelay: time.Millisecond,
			ResetRate: 0.003},
		dialer: &netfault.Config{ReadCorrupt: 1e-4, WriteCorrupt: 1e-4}},
}

// TestChaosCampaigns is the invariant suite: -chaos.seeds campaigns,
// each a deterministic (seed, profile) pair of concurrent mixed traffic
// through the fault injector.
func TestChaosCampaigns(t *testing.T) {
	// Warm the process-wide blas pool so its lazily-spawned workers are in
	// the goroutine baseline, then demand that everything the campaigns
	// start (servers, conn handlers, client pools) is gone at the end —
	// invariant 2.
	blas.Parallel(4, 2, func(lo, hi int) {})
	testutil.VerifyNoLeaks(t)
	for i := 0; i < *chaosSeeds; i++ {
		seed := int64(1000 + i)
		prof := profiles[i%len(profiles)]
		t.Run(fmt.Sprintf("seed=%d,profile=%s", seed, prof.name), func(t *testing.T) {
			runCampaign(t, seed, prof)
		})
	}
}

// campaignServer starts a server behind a fault-wrapped listener and
// returns it with its fault stats and the address to dial.
func campaignServer(t *testing.T, seed int64, prof profile) (*server.Server, *netfault.Stats, string, chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	scfg := prof.server
	scfg.Seed = seed
	fln := netfault.Wrap(ln, scfg)
	s := server.New(server.Config{
		BatchWindow: 100 * time.Microsecond,
		MaxBatch:    64,
		Workers:     1, // sequential kernel order, so the local oracle is bit-exact for BLAS too
		// Short enough that injected stalls trip them within the campaign,
		// long enough that honest slow paths (batch window + retry backoff)
		// never do.
		IdleTimeout:  2 * time.Second,
		WriteTimeout: 2 * time.Second,
	})
	done := make(chan error, 1)
	go func() { done <- s.ServeListener(fln) }()
	return s, fln.Stats(), ln.Addr().String(), done
}

func runCampaign(t *testing.T, seed int64, prof profile) {
	s, stats, addr, done := campaignServer(t, seed, prof)

	opts := []client.Option{
		client.WithMaxRetries(6),
		client.WithBackoff(time.Millisecond, 10*time.Millisecond),
		client.WithDialTimeout(2 * time.Second),
		client.WithIOTimeout(2 * time.Second),
	}
	var dialerStats *netfault.Stats
	if prof.dialer != nil {
		dcfg := *prof.dialer
		dcfg.Seed = seed + 1
		d := netfault.NewDialer(dcfg)
		dialerStats = d.Stats()
		opts = append(opts, client.WithDialer(d.Dial))
	}
	c, err := client.Dial(addr, opts...)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	const goroutines = 4
	const iters = 15
	var okCalls, failedCalls atomic.Int64
	mismatches := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			gen := diffuzz.NewGen(seed*31 + int64(g))
			for it := 0; it < iters; it++ {
				if err := chaosRound(ctx, c, gen, it, &okCalls, &failedCalls); err != nil {
					select {
					case mismatches <- err:
					default:
					}
					return
				}
			}
		}()
	}
	wg.Wait()
	close(mismatches)
	// Invariant 1: transport faults may fail calls loudly, never change a
	// delivered value.
	for err := range mismatches {
		t.Errorf("silently corrupted result delivered: %v", err)
	}

	// Invariant 3: drain completes while the fault schedule is still
	// attached to every surviving connection.
	c.Close()
	sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer scancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Errorf("Shutdown under faults: %v", err)
	}
	if err := <-done; err != nil {
		t.Errorf("Serve: %v", err)
	}

	// Non-vacuity: a green campaign that injected nothing and completed
	// nothing proves nothing.
	injected := stats.CorruptedBytes.Load() + stats.Delays.Load() + stats.Stalls.Load() +
		stats.Resets.Load() + stats.ShortOps.Load()
	if dialerStats != nil {
		injected += dialerStats.CorruptedBytes.Load() + dialerStats.Delays.Load() +
			dialerStats.Stalls.Load() + dialerStats.Resets.Load() + dialerStats.ShortOps.Load()
	}
	if injected == 0 {
		t.Errorf("campaign injected zero faults (listener: %v)", stats)
	}
	if okCalls.Load() == 0 {
		t.Errorf("campaign completed zero calls (%d failed) — invariants vacuous", failedCalls.Load())
	}
	t.Logf("seed=%d profile=%s: %d ok, %d failed calls; listener faults: %v; server: checksum=%d proto=%d idle=%d",
		seed, prof.name, okCalls.Load(), failedCalls.Load(), stats,
		s.Stats().ChecksumErrors.Load(), s.Stats().ProtocolErrors.Load(), s.Stats().IdleTimeouts.Load())
}

// chaosRound issues one iteration of mixed traffic. A call error is
// tolerated (the fault schedule can exhaust the retry budget) and
// counted; a successful call whose value is not bit-identical to the
// local computation is the invariant violation this suite exists to
// catch, and is returned.
func chaosRound(ctx context.Context, c *client.Client, gen *diffuzz.Gen, it int,
	okCalls, failedCalls *atomic.Int64) error {
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

	var x4 mf.Float64x4
	copy(x4[:], gen.Positive(4, 100))
	got4, err := client.Scalar(ctx, c, wire.OpSqrt, x4, mf.Float64x4{})
	if e := check("Sqrt4", err, err != nil || eq4(got4, x4.Sqrt())); e != nil {
		return e
	}

	// Rotate one BLAS shape per iteration; expected values from the
	// sequential (workers=1) kernels, matching the campaign server.
	switch it % 3 {
	case 0:
		n := 8 + it%9
		vx := make([]mf.Float64x2, n)
		vy := make([]mf.Float64x2, n)
		for i := range vx {
			copy(vx[i][:], gen.BlasElement(2))
			copy(vy[i][:], gen.BlasElement(2))
		}
		got, err := client.Dot(ctx, c, vx, vy)
		if e := check("Dot2", err, err != nil || eq2(got, blas.DotF2Parallel(vx, vy, 1))); e != nil {
			return e
		}
	case 1:
		rows, cols := 4+it%4, 5+it%3
		a := make([]mf.Float64x3, rows*cols)
		vx := make([]mf.Float64x3, cols)
		for i := range a {
			copy(a[i][:], gen.BlasElement(3))
		}
		for i := range vx {
			copy(vx[i][:], gen.BlasElement(3))
		}
		got, err := client.Gemv(ctx, c, a, rows, cols, vx)
		if err != nil {
			failedCalls.Add(1)
			return nil
		}
		okCalls.Add(1)
		want := make([]mf.Float64x3, rows)
		blas.GemvTiledF3Parallel(a, rows, cols, vx, want, 1)
		for i := range want {
			if !eq3(got[i], want[i]) {
				return fmt.Errorf("Gemv3: delivered element %d differs from local computation", i)
			}
		}
	default:
		dim := 3 + it%3
		a := make([]mf.Float64x4, dim*dim)
		b := make([]mf.Float64x4, dim*dim)
		for i := range a {
			copy(a[i][:], gen.BlasElement(4))
			copy(b[i][:], gen.BlasElement(4))
		}
		got, err := client.Gemm(ctx, c, a, b, dim)
		if err != nil {
			failedCalls.Add(1)
			return nil
		}
		okCalls.Add(1)
		want := make([]mf.Float64x4, dim*dim)
		blas.GemmBlockedF4Parallel(a, b, want, dim, 1)
		for i := range want {
			if !eq4(got[i], want[i]) {
				return fmt.Errorf("Gemm4: delivered element %d differs from local computation", i)
			}
		}
	}
	return nil
}

// TestDrainUnderActiveFaults is invariant 3 in isolation: Shutdown is
// called while traffic goroutines are mid-call and the fault schedule is
// still corrupting, fragmenting, and resetting — the drain must still
// complete inside its budget.
func TestDrainUnderActiveFaults(t *testing.T) {
	blas.Parallel(4, 2, func(lo, hi int) {})
	testutil.VerifyNoLeaks(t)
	s, stats, addr, done := campaignServer(t, 4242, profile{
		name: "drain-under-fire",
		server: netfault.Config{
			ReadCorrupt: 2e-4, WriteCorrupt: 2e-4,
			ReadChunk: 32, WriteChunk: 32,
			DelayRate: 0.05, MaxDelay: time.Millisecond,
			ResetRate: 0.005},
	})
	c, err := client.Dial(addr,
		client.WithMaxRetries(3),
		client.WithBackoff(time.Millisecond, 5*time.Millisecond),
		client.WithDialTimeout(time.Second),
		client.WithIOTimeout(time.Second))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var okCalls atomic.Int64
	mismatch := make(chan error, 4)
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			gen := diffuzz.NewGen(int64(7000 + g))
			for ctx.Err() == nil {
				var x2, y2 mf.Float64x2
				copy(x2[:], gen.Expansion(2, 100))
				copy(y2[:], gen.Expansion(2, 100))
				got, err := client.Scalar(ctx, c, wire.OpMul, x2, y2)
				if err != nil {
					continue // loud failures are fine, before and after the drain
				}
				okCalls.Add(1)
				if !eq2(got, x2.Mul(y2)) {
					select {
					case mismatch <- fmt.Errorf("Mul2 corrupted during drain"):
					default:
					}
					return
				}
			}
		}()
	}

	time.Sleep(200 * time.Millisecond) // let traffic and faults build up
	sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer scancel()
	start := time.Now()
	if err := s.Shutdown(sctx); err != nil {
		t.Errorf("Shutdown under active faults: %v", err)
	}
	drainTime := time.Since(start)
	if err := <-done; err != nil {
		t.Errorf("Serve: %v", err)
	}
	cancel()
	wg.Wait()
	c.Close()
	close(mismatch)
	for err := range mismatch {
		t.Error(err)
	}
	if okCalls.Load() == 0 {
		t.Error("no calls completed before the drain — test vacuous")
	}
	injected := stats.CorruptedBytes.Load() + stats.Delays.Load() + stats.Resets.Load() + stats.ShortOps.Load()
	if injected == 0 {
		t.Errorf("no faults injected (%v) — test vacuous", stats)
	}
	t.Logf("drained in %v with %d ok calls; faults: %v", drainTime, okCalls.Load(), stats)
}

// contextWithTimeout returns a 10s-bounded context whose cancel runs at
// test cleanup.
func contextWithTimeout(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// Bit-exact comparisons (NaN-safe: compares IEEE-754 bit patterns, not
// float equality).
func eq2(a, b mf.Float64x2) bool { return eqBits(a[:], b[:]) }
func eq3(a, b mf.Float64x3) bool { return eqBits(a[:], b[:]) }
func eq4(a, b mf.Float64x4) bool { return eqBits(a[:], b[:]) }

func eqBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
