package proxy

import (
	"context"
	"testing"
	"time"

	"multifloats/mf"
	"multifloats/serve/client"
	"multifloats/serve/wire"
)

func testBackends(n int) []*backend {
	bs := make([]*backend, n)
	for i := range bs {
		bs[i] = &backend{addr: "10.0.0." + string(rune('1'+i)) + ":9000"}
	}
	return bs
}

// retryableErr manufactures a genuine client-typed transient error by
// failing a real call against an unroutable address (no listener on
// 127.0.0.1:1); release() scores health through client.IsRetryable, so
// the tests must use the real type, not a stand-in.
func retryableErr(t *testing.T) error {
	t.Helper()
	cli, err := client.Dial("127.0.0.1:1",
		client.WithLazyDial(), client.WithMaxRetries(0),
		client.WithDialTimeout(200*time.Millisecond))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cli.Close()
	_, err = client.Scalar(context.Background(), cli, wire.OpAdd, mf.New2(1.0), mf.New2(2.0))
	if err == nil {
		t.Fatal("call against a dead address succeeded")
	}
	if !client.IsRetryable(err) {
		t.Fatalf("dead-address error not retryable: %v", err)
	}
	return err
}

func TestRingSpreadAndDeterminism(t *testing.T) {
	var st Stats
	r := newRouter(testBackends(4), 1.25, 3, time.Second, 7, &st)
	now := time.Now().UnixNano()
	counts := make([]int, 4)
	for h := uint64(0); h < 8000; h++ {
		i := r.pick(h*0x9e3779b97f4a7c15, now, 0)
		if i < 0 {
			t.Fatal("pick returned -1 with all backends healthy")
		}
		counts[i]++
		if again := r.pick(h*0x9e3779b97f4a7c15, now, 0); again != i {
			t.Fatalf("pick not deterministic for a fixed hash: %d then %d", i, again)
		}
	}
	for i, c := range counts {
		if c < 8000/4/3 {
			t.Errorf("backend %d got %d/8000 picks; ring badly skewed: %v", i, c, counts)
		}
	}
}

func TestPickSkipsTriedAndOverloaded(t *testing.T) {
	var st Stats
	r := newRouter(testBackends(3), 1.25, 3, time.Second, 7, &st)
	now := time.Now().UnixNano()
	h := uint64(0xdecafbad)
	first := r.pick(h, now, 0)
	second := r.pick(h, now, uint64(1)<<uint(first))
	if second == first || second < 0 {
		t.Fatalf("tried mask not honored: first=%d second=%d", first, second)
	}

	// Pile in-flight onto the primary; the bounded-load rule must divert.
	r.backends[first].inflight.Store(100)
	r.totalIn.Store(100)
	diverted := r.pick(h, now, 0)
	if diverted == first {
		t.Fatalf("bounded load did not divert from the overloaded primary")
	}
	// With EVERY backend over the bound the least-loaded one is still
	// returned (the proxy sheds by semaphore, not by refusing to route).
	// A fleet-total below the per-backend loads puts them all over.
	for i, b := range r.backends {
		b.inflight.Store(int64(100 + i))
	}
	r.totalIn.Store(30)
	if got := r.pick(h, now, 0); got != 0 {
		t.Fatalf("fallback should be the least-loaded backend 0, got %d", got)
	}
}

func TestEjectProbeReinstate(t *testing.T) {
	terr := retryableErr(t)
	var st Stats
	const probeAfter = 20 * time.Millisecond
	r := newRouter(testBackends(2), 1.25, 2, probeAfter, 7, &st)
	b := r.backends[0]

	// One retryable failure: scored but not ejected.
	r.acquire(0, 0)
	r.release(b, terr)
	if b.ejectedUntil.Load() != 0 {
		t.Fatal("ejected before FailThreshold")
	}
	// Second consecutive failure hits the threshold.
	r.acquire(0, 0)
	r.release(b, terr)
	if b.ejectedUntil.Load() == 0 {
		t.Fatal("not ejected at FailThreshold")
	}
	if st.Ejections.Load() != 1 {
		t.Fatalf("Ejections = %d, want 1", st.Ejections.Load())
	}
	now := time.Now().UnixNano()
	if s := b.state(now); s != stateUnhealthy {
		t.Fatalf("state during cooldown = %d, want unhealthy", s)
	}

	// After cooldown (+ max 50%% jitter) the FIRST caller wins the probe
	// slot; concurrent callers see unhealthy until it resolves.
	time.Sleep(2 * probeAfter)
	now = time.Now().UnixNano()
	if s := b.state(now); s != stateProbe {
		t.Fatalf("state after cooldown = %d, want probe", s)
	}
	if s := b.state(now); s != stateUnhealthy {
		t.Fatalf("second concurrent probe = %d, want unhealthy (slot taken)", s)
	}

	// Probe succeeds: reinstated, score cleared, slot released.
	b.inflight.Add(1)
	r.totalIn.Add(1)
	r.release(b, nil)
	if b.ejectedUntil.Load() != 0 || b.consecFails.Load() != 0 {
		t.Fatal("probe success did not reinstate")
	}
	if st.Reinstates.Load() != 1 {
		t.Fatalf("Reinstates = %d, want 1", st.Reinstates.Load())
	}
	if s := b.state(time.Now().UnixNano()); s != stateHealthy {
		t.Fatalf("state after reinstatement = %d, want healthy", s)
	}

	// Non-retryable outcomes never score: a bad request proves liveness.
	b.consecFails.Store(1)
	r.acquire(0, 0)
	r.release(b, context.Canceled)
	if b.consecFails.Load() != 0 {
		t.Fatal("definitive outcome did not clear the failure score")
	}
}

func TestPickAllEjected(t *testing.T) {
	var st Stats
	r := newRouter(testBackends(2), 1.25, 1, time.Hour, 7, &st)
	far := time.Now().Add(time.Hour).UnixNano()
	for _, b := range r.backends {
		b.ejectedUntil.Store(far)
	}
	if got := r.pick(1234, time.Now().UnixNano(), 0); got != -1 {
		t.Fatalf("pick with every backend ejected = %d, want -1", got)
	}
	if b := r.acquire(1234, 0); b != nil {
		t.Fatal("acquire with every backend ejected returned a backend")
	}
}
