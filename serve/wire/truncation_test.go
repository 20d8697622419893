package wire

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"time"
)

// frameShapes is one well-formed request or response per interesting
// shape: every op family (binary scalar, unary scalar, axpy with alpha,
// dot, gemv with distinct n/m, gemm) plus the response variants (OK with
// data, overloaded with retry hint, empty deadline-miss). Names start
// with "req-" or "resp-".
func frameShapes() (map[string]*Request, map[string]*Response) {
	comps := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i) + 0.5
		}
		return v
	}
	reqs := map[string]*Request{
		"req-add-w2": {ID: 7, Op: OpAdd, Width: 2, Count: 3,
			X: comps(6), Y: comps(6)},
		"req-sqrt-w3": {ID: 8, Op: OpSqrt, Width: 3, Count: 2,
			X: comps(6), Deadline: time.Unix(0, 1234567890)},
		"req-axpy-w4": {ID: 9, Op: OpAxpy, Width: 4, Count: 2,
			Alpha: comps(4), X: comps(8), Y: comps(8)},
		"req-dot-w2": {ID: 10, Op: OpDot, Width: 2, Count: 4,
			X: comps(8), Y: comps(8)},
		"req-gemv-w2": {ID: 11, Op: OpGemv, Width: 2, Count: 2, M: 3,
			X: comps(12), Y: comps(6)},
		"req-gemm-w3": {ID: 12, Op: OpGemm, Width: 3, Count: 2,
			X: comps(12), Y: comps(12)},
		// Streaming reductions: a non-final chunk, a final (flagged) chunk,
		// and the width-1 plain-float64 form only reductions allow.
		"req-sumexact-w1-chunk": {ID: 13, Op: OpSumExact, Width: 1, Count: 5,
			X: comps(5)},
		"req-sumexact-w3-final": {ID: 14, Op: OpSumExact, Width: 3, Count: 2,
			M: FlagReduceFinal, X: comps(6)},
		"req-dotexact-w1-final": {ID: 15, Op: OpDotExact, Width: 1, Count: 4,
			M: FlagReduceFinal, X: comps(4), Y: comps(4)},
		"req-dotexact-w4-chunk": {ID: 16, Op: OpDotExact, Width: 4, Count: 2,
			X: comps(8), Y: comps(8)},
		// Transcendental shapes: a unary math op, a binary one (distinct
		// X/Y slabs), and atan2 whose X slab is the y-coordinate operand.
		"req-exp-w2": {ID: 20, Op: OpExp, Width: 2, Count: 3,
			X: comps(6)},
		"req-pow-w4": {ID: 21, Op: OpPow, Width: 4, Count: 2,
			X: comps(8), Y: comps(8)},
		"req-atan2-w3": {ID: 22, Op: OpAtan2, Width: 3, Count: 2,
			X: comps(6), Y: comps(6), Deadline: time.Unix(0, 987654321)},
		// Proxy-era shapes: a forwarded request carrying a nonzero hop
		// count, and a raw-accumulator final chunk (the shard-merge form).
		"req-add-w2-hops": {ID: 17, Op: OpAdd, Width: 2, Count: 3,
			Hops: MaxProxyHops, X: comps(6), Y: comps(6)},
		"req-sumexact-w2-rawfinal": {ID: 18, Op: OpSumExact, Width: 2, Count: 2,
			M: FlagReduceFinal | FlagReduceRaw, X: comps(4)},
	}
	resps := map[string]*Response{
		"resp-ok":         {ID: 7, Status: StatusOK, Data: comps(6)},
		"resp-overloaded": {ID: 8, Status: StatusOverloaded, RetryAfterMs: 25},
		"resp-deadline":   {ID: 9, Status: StatusDeadlineExceeded},
	}
	return reqs, resps
}

// truncationFrames encodes every frameShapes shape, keyed by its name.
func truncationFrames(t testing.TB) map[string][]byte {
	t.Helper()
	reqs, resps := frameShapes()
	frames := make(map[string][]byte, len(reqs)+len(resps))
	for name, r := range reqs {
		var buf bytes.Buffer
		if err := WriteRequest(&buf, r); err != nil {
			t.Fatalf("%s: WriteRequest: %v", name, err)
		}
		frames[name] = buf.Bytes()
	}
	for name, r := range resps {
		var buf bytes.Buffer
		if err := WriteResponse(&buf, r); err != nil {
			t.Fatalf("%s: WriteResponse: %v", name, err)
		}
		frames[name] = buf.Bytes()
	}
	return frames
}

// readFrame dispatches to the decoder matching the frame's name prefix.
func readFrame(name string, b []byte) (any, error) {
	if strings.HasPrefix(name, "req-") {
		return ReadRequest(bytes.NewReader(b))
	}
	return ReadResponse(bytes.NewReader(b))
}

// TestTruncationAtEveryByte cuts every frame shape at every possible
// byte boundary and asserts the decoder fails loudly at each one — a
// clean EOF/unexpected-EOF/malformed error, never a panic, and never a
// zero-value "success" that could be mistaken for a real frame.
func TestTruncationAtEveryByte(t *testing.T) {
	for name, frame := range truncationFrames(t) {
		t.Run(name, func(t *testing.T) {
			// Sanity: the untruncated frame must decode.
			if v, err := readFrame(name, frame); err != nil || v == nil {
				t.Fatalf("full frame: got %v, err %v", v, err)
			}
			for cut := 0; cut < len(frame); cut++ {
				v, err := decodeTruncated(t, name, frame[:cut])
				if err == nil {
					t.Fatalf("cut at %d/%d: decoded %#v from a truncated frame", cut, len(frame), v)
				}
				if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, ErrMalformed) {
					t.Fatalf("cut at %d/%d: err = %v, want EOF, unexpected-EOF, or ErrMalformed", cut, len(frame), err)
				}
			}
		})
	}
}

// decodeTruncated runs the decoder on a truncated frame, converting a
// panic into a test failure with the offending cut recorded.
func decodeTruncated(t *testing.T, name string, b []byte) (v any, err error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("decoder panicked on %d-byte truncation: %v", len(b), r)
		}
	}()
	return readFrame(name, b)
}

// TestTruncationMidStream verifies the second frame on a connection is
// also covered: a whole valid frame followed by a truncated one fails on
// the second read, after the first decodes cleanly.
func TestTruncationMidStream(t *testing.T) {
	var buf bytes.Buffer
	first := &Request{ID: 1, Op: OpMul, Width: 2, Count: 1, X: []float64{3, 0}, Y: []float64{5, 0}}
	if err := WriteRequest(&buf, first); err != nil {
		t.Fatal(err)
	}
	whole := buf.Len()
	second := &Request{ID: 2, Op: OpDot, Width: 2, Count: 2, X: make([]float64, 4), Y: make([]float64, 4)}
	if err := WriteRequest(&buf, second); err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(buf.Bytes()[:whole+HeaderSize+4]) // second frame cut mid-payload
	if req, err := ReadRequest(r); err != nil || req.ID != 1 {
		t.Fatalf("first frame: %v, %v", req, err)
	}
	if req, err := ReadRequest(r); err == nil {
		t.Fatalf("second (truncated) frame decoded: %#v", req)
	} else if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, ErrMalformed) {
		t.Fatalf("second frame err = %v", err)
	}
}
