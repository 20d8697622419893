package server_test

// Remote-vs-local bit parity for the streaming exact reductions: every
// SumExact/DotExact answer must be bit-identical to the in-process
// internal/exact fold — at every width, for every chunk size (the
// stream is folded into one superaccumulator, so the split cannot
// matter), and at the default parallel worker count (shard folds merge
// exactly). This is the serving half of the ISSUE 7 order-invariance
// contract; the local half lives in internal/exact's own test tier.

import (
	"context"
	"math"
	"testing"

	"multifloats/internal/diffuzz"
	"multifloats/internal/exact"
	"multifloats/mf"
	"multifloats/serve/client"
	"multifloats/serve/server"
)

func slabOf(v [][]float64) []float64 {
	flat := make([]float64, 0, len(v)*len(v[0]))
	for _, e := range v {
		flat = append(flat, e...)
	}
	return flat
}

func to2s(v [][]float64) []mf.Float64x2 {
	out := make([]mf.Float64x2, len(v))
	for i, e := range v {
		out[i] = mf.Float64x2{e[0], e[1]}
	}
	return out
}

func to3s(v [][]float64) []mf.Float64x3 {
	out := make([]mf.Float64x3, len(v))
	for i, e := range v {
		out[i] = mf.Float64x3{e[0], e[1], e[2]}
	}
	return out
}

func to4s(v [][]float64) []mf.Float64x4 {
	out := make([]mf.Float64x4, len(v))
	for i, e := range v {
		out[i] = mf.Float64x4{e[0], e[1], e[2], e[3]}
	}
	return out
}

func sameSlab(a, b []float64) bool {
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

// TestE2EReductionParity drives adversarial reduction operands through
// a single-chunk client and a 7-element-chunk streaming client and
// demands both match the local exact fold bit-for-bit.
func TestE2EReductionParity(t *testing.T) {
	s, c := startE2E(t, server.Config{})
	// A second client on the same server, forced into multi-chunk
	// streaming (193 elements → 28 chunks).
	cs, err := client.Dial(s.Addr().String(), client.WithReduceChunk(7))
	if err != nil {
		t.Fatalf("Dial streaming client: %v", err)
	}
	defer cs.Close()
	ctx := context.Background()
	const count = 193

	gen := diffuzz.NewGen(42)
	for round := 0; round < 12; round++ {
		for n := 1; n <= 4; n++ {
			x := gen.ReduceVector(n, count)
			y := gen.ReduceVector(n, count)
			var sumWant, dotWant []float64
			switch n {
			case 1:
				sumWant = []float64{exact.Sum(slabOf(x))}
				dotWant = []float64{exact.Dot(slabOf(x), slabOf(y))}
			case 2:
				sw, dw := exact.Sum2(to2s(x)), exact.Dot2(to2s(x), to2s(y))
				sumWant, dotWant = sw[:], dw[:]
			case 3:
				sw, dw := exact.Sum3(to3s(x)), exact.Dot3(to3s(x), to3s(y))
				sumWant, dotWant = sw[:], dw[:]
			default:
				sw, dw := exact.Sum4(to4s(x)), exact.Dot4(to4s(x), to4s(y))
				sumWant, dotWant = sw[:], dw[:]
			}
			for name, cl := range map[string]*client.Client{"single-chunk": c, "streaming": cs} {
				var sumGot, dotGot []float64
				var serr, derr error
				switch n {
				case 1:
					var s, d float64
					s, serr = client.SumExact(ctx, cl, slabOf(x))
					d, derr = client.DotExact(ctx, cl, slabOf(x), slabOf(y))
					sumGot, dotGot = []float64{s}, []float64{d}
				case 2:
					var s, d mf.Float64x2
					s, serr = client.SumExact(ctx, cl, to2s(x))
					d, derr = client.DotExact(ctx, cl, to2s(x), to2s(y))
					sumGot, dotGot = s[:], d[:]
				case 3:
					var s, d mf.Float64x3
					s, serr = client.SumExact(ctx, cl, to3s(x))
					d, derr = client.DotExact(ctx, cl, to3s(x), to3s(y))
					sumGot, dotGot = s[:], d[:]
				default:
					var s, d mf.Float64x4
					s, serr = client.SumExact(ctx, cl, to4s(x))
					d, derr = client.DotExact(ctx, cl, to4s(x), to4s(y))
					sumGot, dotGot = s[:], d[:]
				}
				if serr != nil || derr != nil {
					t.Fatalf("round %d width %d %s: sum err %v, dot err %v", round, n, name, serr, derr)
				}
				if !sameSlab(sumGot, sumWant) {
					t.Fatalf("round %d width %d %s: SumExact %v, local %v", round, n, name, sumGot, sumWant)
				}
				if !sameSlab(dotGot, dotWant) {
					t.Fatalf("round %d width %d %s: DotExact %v, local %v", round, n, name, dotGot, dotWant)
				}
			}
		}
	}

	stats := s.Stats().Snapshot()
	if stats.Reductions == 0 {
		t.Fatalf("server counted no completed reductions")
	}
	if stats.ReduceChunks <= stats.Reductions {
		t.Fatalf("reduce_chunks %d not above reductions %d: streaming path never exercised",
			stats.ReduceChunks, stats.Reductions)
	}
}

// TestE2EReductionEmpty: zero-length reductions are valid and return the
// exact package's canonical +0 expansion.
func TestE2EReductionEmpty(t *testing.T) {
	_, c := startE2E(t, server.Config{})
	ctx := context.Background()
	got, err := client.SumExact[float64](ctx, c, nil)
	if err != nil {
		t.Fatalf("SumExact(nil): %v", err)
	}
	if math.Float64bits(got) != 0 {
		t.Fatalf("SumExact(nil) = %v (%#x), want +0", got, math.Float64bits(got))
	}
	got4, err := client.DotExact[mf.Float64x4](ctx, c, nil, nil)
	if err != nil {
		t.Fatalf("DotExact4(nil): %v", err)
	}
	if got4 != (mf.Float64x4{}) {
		t.Fatalf("DotExact4(nil) = %v, want zero expansion", got4)
	}
}

// TestE2EReductionLargeStream pushes one reduction big enough to sweep
// many pipelined windows and the server's parallel shard fold at once,
// with a worst-case corpus: maximal-significand same-magnitude terms
// whose carries propagate the farthest.
func TestE2EReductionLargeStream(t *testing.T) {
	s, c := startE2E(t, server.Config{})
	cs, err := client.Dial(s.Addr().String(), client.WithReduceChunk(512))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cs.Close()
	ctx := context.Background()

	const count = 300_000 // 586 chunks: several 64-chunk client windows
	xs := make([]float64, count)
	for i := range xs {
		v := math.Ldexp(float64(1<<53-1), (i%40)-20-52)
		if i%3 == 0 {
			v = -v
		}
		xs[i] = v
	}
	want := exact.Sum(xs)
	got, err := client.SumExact(ctx, cs, xs)
	if err != nil {
		t.Fatalf("SumExact: %v", err)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("streamed SumExact = %v (%#x), local %v (%#x)",
			got, math.Float64bits(got), want, math.Float64bits(want))
	}
	// And the default-chunk client (65536-element chunks, a different
	// split of the same stream) agrees bit-for-bit.
	gotDefault, err := client.SumExact(ctx, c, xs)
	if err != nil {
		t.Fatalf("default-chunk SumExact: %v", err)
	}
	if math.Float64bits(gotDefault) != math.Float64bits(want) {
		t.Fatalf("default-chunk SumExact = %v, local %v", gotDefault, want)
	}
}
