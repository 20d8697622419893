package client

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"multifloats/internal/exact"
	"multifloats/serve/server"
	"multifloats/serve/wire"
)

func startStreamServer(t *testing.T) *server.Server {
	t.Helper()
	s := server.New(server.Config{Addr: "127.0.0.1:0"})
	if err := s.Listen(); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve() }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return s
}

// TestReduceStreamIncremental drives the incremental API chunk by chunk
// — more chunks than the ack window, so windowed reads are exercised —
// and demands bit parity with the local fold, in both rounded and raw
// form.
func TestReduceStreamIncremental(t *testing.T) {
	srv := startStreamServer(t)
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	rng := rand.New(rand.NewSource(5))
	const chunks, per = 150, 3 // 150 chunks > reduceWindow
	var want exact.Accumulator
	xs := make([][]float64, chunks)
	for i := range xs {
		xs[i] = make([]float64, per)
		for j := range xs[i] {
			xs[i][j] = (rng.Float64() - 0.5) * math.Ldexp(1, rng.Intn(500)-250)
			want.Add(xs[i][j])
		}
	}

	for _, raw := range []bool{false, true} {
		s, err := c.StartReduce(ctx, wire.OpSumExact, 1, 0)
		if err != nil {
			t.Fatalf("raw=%v: StartReduce: %v", raw, err)
		}
		for i := 0; i < chunks-1; i++ {
			if err := s.Send(per, xs[i], nil); err != nil {
				t.Fatalf("raw=%v: Send(%d): %v", raw, i, err)
			}
		}
		got, err := s.Finish(per, xs[chunks-1], nil, raw)
		if err != nil {
			t.Fatalf("raw=%v: Finish: %v", raw, err)
		}
		if raw {
			acc, err := exact.DecodeFloats(got)
			if err != nil {
				t.Fatalf("DecodeFloats: %v", err)
			}
			if math.Float64bits(acc.Sum()) != math.Float64bits(want.Sum()) {
				t.Fatalf("raw fold = %x, want %x", acc.Sum(), want.Sum())
			}
		} else {
			if len(got) != 1 || math.Float64bits(got[0]) != math.Float64bits(want.Sum()) {
				t.Fatalf("rounded = %v, want %v", got, want.Sum())
			}
		}
		// The stream is spent: further sends must fail closed.
		if err := s.Send(per, xs[0], nil); err == nil {
			t.Fatalf("raw=%v: Send after Finish succeeded", raw)
		}
	}
}

// TestReduceStreamDot covers the dot-product form at width 2.
func TestReduceStreamDot(t *testing.T) {
	srv := startStreamServer(t)
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	x := []float64{1.5, 0x1p-80, -2.25, 0x1p-90, 3.0, 0}
	y := []float64{2.0, 0, 4.0, 0x1p-70, -1.0, 0x1p-100}
	var want exact.Accumulator
	want.AddDotSlab(2, x, y)

	s, err := c.StartReduce(context.Background(), wire.OpDotExact, 2, 1)
	if err != nil {
		t.Fatalf("StartReduce: %v", err)
	}
	if err := s.Send(2, x[:4], y[:4]); err != nil {
		t.Fatalf("Send: %v", err)
	}
	got, err := s.Finish(1, x[4:], y[4:], false)
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	we := want.SumExpansion(2)
	for k := range we {
		if math.Float64bits(got[k]) != math.Float64bits(we[k]) {
			t.Fatalf("component %d = %x, want %x", k, got[k], we[k])
		}
	}
}

// TestReduceStreamAbort: an aborted stream closes its connection and a
// fresh stream on the same client works; the abandoned server-side
// accumulator is released with the connection.
func TestReduceStreamAbort(t *testing.T) {
	srv := startStreamServer(t)
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	s, err := c.StartReduce(ctx, wire.OpSumExact, 1, 0)
	if err != nil {
		t.Fatalf("StartReduce: %v", err)
	}
	if err := s.Send(2, []float64{1, 2}, nil); err != nil {
		t.Fatalf("Send: %v", err)
	}
	s.Abort()
	if err := s.Send(1, []float64{3}, nil); err == nil {
		t.Fatal("Send after Abort succeeded")
	}

	s2, err := c.StartReduce(ctx, wire.OpSumExact, 1, 0)
	if err != nil {
		t.Fatalf("StartReduce after abort: %v", err)
	}
	got, err := s2.Finish(1, []float64{42}, nil, false)
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if got[0] != 42 {
		t.Fatalf("got %v", got)
	}
}

// TestSumExactRestartsWholeStream: a multi-chunk SumExact whose first
// attempt loses its connection mid-stream is retried as a whole stream
// — a fresh ID, from chunk 0 — and the result is the exact sum, so no
// chunk of the lost attempt is counted.
func TestSumExactRestartsWholeStream(t *testing.T) {
	const chunk, n, k = 4, 37, 3 // 10 chunks; the first attempt dies after chunk k
	rng := rand.New(rand.NewSource(9))
	xs := make([]float64, n)
	var want exact.Accumulator
	for i := range xs {
		xs[i] = (rng.Float64() - 0.5) * math.Ldexp(1, rng.Intn(500)-250)
		want.Add(xs[i])
	}

	// The fake folds each stream ID exactly and answers like a server: an
	// empty ack per chunk, the rounded sum on the final one.
	var mu sync.Mutex
	var ids []uint64       // stream IDs in first-seen order
	var firsts [][]float64 // each stream's first chunk
	chunks := map[uint64]int{}
	accs := map[uint64]*exact.Accumulator{}
	fs := newFakeServer(t, func(_ int64, req *wire.Request) *wire.Response {
		mu.Lock()
		defer mu.Unlock()
		if accs[req.ID] == nil {
			ids = append(ids, req.ID)
			firsts = append(firsts, req.X)
			accs[req.ID] = new(exact.Accumulator)
		}
		chunks[req.ID]++
		if len(ids) == 1 && chunks[req.ID] > k {
			return nil // drop the connection
		}
		accs[req.ID].AddValues(req.X)
		if req.M&wire.FlagReduceFinal == 0 {
			return &wire.Response{Status: wire.StatusOK}
		}
		return &wire.Response{Status: wire.StatusOK, Data: []float64{accs[req.ID].Sum()}}
	})
	c, err := Dial(fs.ln.Addr().String(), WithReduceChunk(chunk), WithBackoff(time.Millisecond, 2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	got, err := SumExact(context.Background(), c, xs)
	if err != nil {
		t.Fatalf("SumExact: %v", err)
	}
	if math.Float64bits(got) != math.Float64bits(want.Sum()) {
		t.Fatalf("SumExact = %v, want %v", got, want.Sum())
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ids) != 2 || ids[0] == ids[1] {
		t.Fatalf("stream IDs %v, want two distinct (the lost attempt and its restart)", ids)
	}
	if nc := (n + chunk - 1) / chunk; chunks[ids[1]] != nc {
		t.Fatalf("restart sent %d chunks, want all %d", chunks[ids[1]], nc)
	}
	for i, v := range firsts[1] {
		if math.Float64bits(v) != math.Float64bits(xs[i]) {
			t.Fatalf("restart did not begin at chunk 0: element %d = %v, want %v", i, v, xs[i])
		}
	}
}

// TestSumExactBadRequestMidStreamNotRetried: a permanent status on a
// chunk ack fails the whole call at once, without a second stream.
func TestSumExactBadRequestMidStreamNotRetried(t *testing.T) {
	var mu sync.Mutex
	chunks := map[uint64]int{}
	fs := newFakeServer(t, func(_ int64, req *wire.Request) *wire.Response {
		mu.Lock()
		defer mu.Unlock()
		if chunks[req.ID]++; chunks[req.ID] == 2 {
			return &wire.Response{Status: wire.StatusBadRequest}
		}
		return &wire.Response{Status: wire.StatusOK}
	})
	c, err := Dial(fs.ln.Addr().String(), WithReduceChunk(4), WithBackoff(time.Millisecond, 2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := SumExact(context.Background(), c, make([]float64, 40)); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("err = %v, want ErrBadRequest", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(chunks) != 1 {
		t.Fatalf("server saw %d streams, want 1 (no retry on a permanent status)", len(chunks))
	}
}
