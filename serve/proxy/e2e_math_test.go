package proxy

// Transcendental ops through the cluster tier: proxied math requests
// must be bit-identical to local mf calls (miss path computes on a
// backend), and a repeat of the same request must be served from the
// content-addressed cache with byte-identical bits — including NaN
// collapse results and Payne–Hanek huge-argument trig.

import (
	"context"
	"math"
	"testing"

	"multifloats/internal/diffuzz"
	"multifloats/mf"
	"multifloats/serve/client"
	"multifloats/serve/wire"
)

func TestProxyMathParityAndCache(t *testing.T) {
	b0 := startBackendAt(t, "127.0.0.1:0")
	b1 := startBackendAt(t, "127.0.0.1:0")
	p := startProxy(t, Config{
		Backends: []string{b0.addr(), b1.addr()},
		Seed:     5,
	})
	cl := dialProxy(t, p)
	ctx := context.Background()
	gen := diffuzz.NewGen(333)

	ops := []wire.Op{wire.OpExp, wire.OpLog, wire.OpSin, wire.OpTan,
		wire.OpCbrt, wire.OpPow, wire.OpAtan2, wire.OpHypot}
	type captured struct {
		x, y mf.Float64x2
		got  mf.Float64x2
	}
	local := func(op wire.Op, x, y mf.Float64x2) mf.Float64x2 {
		switch op {
		case wire.OpExp:
			return x.Exp()
		case wire.OpLog:
			return x.Log()
		case wire.OpSin:
			return x.Sin()
		case wire.OpTan:
			return x.Tan()
		case wire.OpCbrt:
			return x.Cbrt()
		case wire.OpPow:
			return x.Pow(y)
		case wire.OpAtan2:
			return mf.Atan2F2(x, y)
		default:
			return x.Hypot(y)
		}
	}

	const rounds = 12
	caps := make(map[wire.Op][]captured, len(ops))
	for i := 0; i < rounds; i++ {
		for _, op := range ops {
			var c captured
			lead := 200
			if op == wire.OpExp {
				lead = 9
			}
			if op == wire.OpSin || op == wire.OpTan {
				lead = 600 // Payne–Hanek range through the cluster
			}
			if op == wire.OpPow {
				lead = 3
			}
			copy(c.x[:], gen.Expansion(2, lead))
			copy(c.y[:], gen.Expansion(2, lead))
			got, err := client.Scalar(ctx, cl, op, c.x, c.y)
			if err != nil {
				t.Fatalf("round %d Math2(%s): %v", i, op, err)
			}
			if want := local(op, c.x, c.y); !eqb2(got, want) {
				t.Fatalf("round %d Math2(%s) parity: x=%v y=%v got=%v want=%v", i, op, c.x, c.y, got, want)
			}
			c.got = got
			caps[op] = append(caps[op], c)
		}
	}
	missesAfterPass1 := p.stats.CacheMisses.Load()
	if missesAfterPass1 == 0 {
		t.Fatal("pass one produced no cache misses; cache not in the math path")
	}

	// Pass two: identical requests must hit and return identical bits.
	for _, op := range ops {
		for i, c := range caps[op] {
			got, err := client.Scalar(ctx, cl, op, c.x, c.y)
			if err != nil || !eqb2(got, c.got) {
				t.Fatalf("round %d cached Math2(%s) drifted: %v", i, op, err)
			}
		}
	}
	st := p.stats.Snapshot()
	if st.CacheHits < int64(rounds*len(ops)) {
		t.Errorf("CacheHits = %d after repeating %d math requests", st.CacheHits, rounds*len(ops))
	}
	if st.CacheMisses != missesAfterPass1 {
		t.Errorf("repeat pass missed: misses %d -> %d", missesAfterPass1, st.CacheMisses)
	}

	// NaN-collapse results are content-addressed like any other: the
	// cached bits must replay exactly (NaN payload included).
	nanX := mf.Float64x2{math.NaN(), 0}
	first, err := client.Scalar(ctx, cl, wire.OpLog, nanX, mf.Float64x2{})
	if err != nil {
		t.Fatalf("Math2(log, NaN): %v", err)
	}
	again, err := client.Scalar(ctx, cl, wire.OpLog, nanX, mf.Float64x2{})
	if err != nil || math.Float64bits(again[0]) != math.Float64bits(first[0]) ||
		math.Float64bits(again[1]) != math.Float64bits(first[1]) {
		t.Fatalf("cached NaN collapse drifted: first=%v again=%v err=%v", first, again, err)
	}
}
