package server_test

// Raw-final reductions (wire.FlagReduceRaw): the shard-merge hook the
// cluster tier is built on. A raw final chunk returns the serialized
// superaccumulator instead of the rounded expansion; merging shard
// accumulators and folding once must be bit-identical to one server
// folding the whole stream.

import (
	"bufio"
	"math"
	"net"
	"testing"

	"multifloats/internal/diffuzz"
	"multifloats/internal/exact"
	"multifloats/serve/server"
	"multifloats/serve/wire"
)

// rawPeer is a minimal raw-wire client: one connection, synchronous
// request/response, no pipelining — just enough to speak frames the
// client does not yet shape (hop counts, raw finals).
type rawPeer struct {
	t    *testing.T
	conn net.Conn
	bw   *bufio.Writer
	br   *bufio.Reader
}

func dialRaw(t *testing.T, addr string) *rawPeer {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial raw: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawPeer{t: t, conn: conn, bw: bufio.NewWriter(conn), br: bufio.NewReader(conn)}
}

func (p *rawPeer) roundTrip(req *wire.Request) *wire.Response {
	p.t.Helper()
	if err := wire.WriteRequest(p.bw, req); err != nil {
		p.t.Fatalf("WriteRequest: %v", err)
	}
	if err := p.bw.Flush(); err != nil {
		p.t.Fatalf("flush: %v", err)
	}
	resp, err := wire.ReadResponse(p.br)
	if err != nil {
		p.t.Fatalf("ReadResponse: %v", err)
	}
	if resp.ID != req.ID {
		p.t.Fatalf("response ID %d for request %d", resp.ID, req.ID)
	}
	return resp
}

// streamRaw drives one reduction stream (chunked over xs/ys) ending in a
// raw final, and returns the decoded accumulator.
func streamRaw(t *testing.T, p *rawPeer, id uint64, op wire.Op, width, chunk int, xs, ys []float64) *exact.Accumulator {
	t.Helper()
	total := len(xs) / width
	sent := 0
	for {
		n := min(chunk, total-sent)
		req := &wire.Request{ID: id, Op: op, Width: width, Count: n,
			X: xs[sent*width : (sent+n)*width]}
		if op == wire.OpDotExact {
			req.Y = ys[sent*width : (sent+n)*width]
		}
		sent += n
		if sent == total {
			req.M = wire.FlagReduceFinal | wire.FlagReduceRaw
		}
		resp := p.roundTrip(req)
		if resp.Status != wire.StatusOK {
			t.Fatalf("chunk status %v", resp.Status)
		}
		if sent == total {
			if len(resp.Data) != wire.ReduceRawElems {
				t.Fatalf("raw final returned %d words, want %d", len(resp.Data), wire.ReduceRawElems)
			}
			acc, err := exact.DecodeFloats(resp.Data)
			if err != nil {
				t.Fatalf("DecodeFloats: %v", err)
			}
			return acc
		}
		if len(resp.Data) != 0 {
			t.Fatalf("non-final ack carried %d words", len(resp.Data))
		}
	}
}

// TestE2ERawFinalShardMerge splits adversarial reduction streams across
// two "shards" (two raw connections, interleaved elements), asks each
// for a raw final, merges, and demands the single-server rounded answer
// bit-for-bit — for both ops, all widths, and a NaN/Inf corpus too.
func TestE2ERawFinalShardMerge(t *testing.T) {
	s, _ := startE2E(t, server.Config{})
	pa, pb := dialRaw(t, s.Addr().String()), dialRaw(t, s.Addr().String())
	gen := diffuzz.NewGen(7)
	const count = 101

	var id uint64
	for round := 0; round < 6; round++ {
		for w := 1; w <= 4; w++ {
			for _, op := range []wire.Op{wire.OpSumExact, wire.OpDotExact} {
				xs := slabOf(gen.ReduceVector(w, count))
				ys := slabOf(gen.ReduceVector(w, count))
				// Whole-stream reference on one connection, rounded by the
				// server itself via a raw final folded locally.
				id++
				whole := streamRaw(t, pa, id, op, w, 17, xs, ys)
				want := whole.SumExpansion(w)

				// Shard: even elements to peer A, odd to peer B.
				var ax, ay, bx, by []float64
				for i := 0; i < count; i++ {
					if i%2 == 0 {
						ax = append(ax, xs[i*w:(i+1)*w]...)
						ay = append(ay, ys[i*w:(i+1)*w]...)
					} else {
						bx = append(bx, xs[i*w:(i+1)*w]...)
						by = append(by, ys[i*w:(i+1)*w]...)
					}
				}
				id++
				accA := streamRaw(t, pa, id, op, w, 13, ax, ay)
				id++
				accB := streamRaw(t, pb, id, op, w, 11, bx, by)
				accA.Merge(accB)
				got := accA.SumExpansion(w)
				for k := range want {
					if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
						t.Fatalf("round %d op %v w %d: merged[%d] = %x, want %x",
							round, op, w, k, got[k], want[k])
					}
				}
			}
		}
	}
	if s.Stats().Snapshot().Reductions == 0 {
		t.Fatal("server counted no completed reductions")
	}
}

// TestE2ERawFinalRejectsNonFinal: FlagReduceRaw on a non-final chunk is
// malformed and must kill the connection (frame-level reject), not be
// silently ignored.
func TestE2ERawFinalRejectsNonFinal(t *testing.T) {
	s, _ := startE2E(t, server.Config{})
	p := dialRaw(t, s.Addr().String())
	// WriteRequest itself doesn't validate flags; the server must. Build
	// the hostile frame directly.
	req := &wire.Request{ID: 1, Op: wire.OpSumExact, Width: 1, Count: 2,
		M: wire.FlagReduceRaw, X: []float64{1, 2}}
	if err := wire.WriteRequest(p.bw, req); err != nil {
		t.Fatalf("WriteRequest: %v", err)
	}
	if err := p.bw.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	resp, err := wire.ReadResponse(p.br)
	if err == nil && resp.Status == wire.StatusOK {
		t.Fatalf("raw non-final chunk accepted: %+v", resp)
	}
}
