package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"
	"time"
)

func TestRequestRoundTrip(t *testing.T) {
	dl := time.Unix(0, 1234567890123456789)
	cases := []Request{
		{ID: 1, Op: OpAdd, Width: 2, Count: 2,
			X: []float64{1, 1e-20, 3, -4e-18}, Y: []float64{2, 0, -3, 0}},
		{ID: 2, Deadline: dl, Op: OpSqrt, Width: 3, Count: 1,
			X: []float64{2, 1e-17, -1e-34}},
		{ID: 3, Op: OpAxpy, Width: 4, Count: 1,
			Alpha: []float64{1.5, 0, 0, 0},
			X:     []float64{1, 0, 0, 0}, Y: []float64{2, 0, 0, 0}},
		{ID: 4, Op: OpDot, Width: 2, Count: 3,
			X: []float64{1, 0, 2, 0, 3, 0}, Y: []float64{4, 0, 5, 0, 6, 0}},
		{ID: 5, Op: OpGemv, Width: 2, Count: 2, M: 3,
			X: make([]float64, 2*3*2), Y: make([]float64, 3*2)},
		{ID: 6, Op: OpGemm, Width: 3, Count: 2,
			X: make([]float64, 4*3), Y: make([]float64, 4*3)},
	}
	for _, rc := range cases {
		rc := rc
		t.Run(rc.Op.String(), func(t *testing.T) {
			if err := rc.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			var buf bytes.Buffer
			if err := WriteRequest(&buf, &rc); err != nil {
				t.Fatalf("WriteRequest: %v", err)
			}
			got, err := ReadRequest(&buf)
			if err != nil {
				t.Fatalf("ReadRequest: %v", err)
			}
			if got.ID != rc.ID || got.Op != rc.Op || got.Width != rc.Width ||
				got.Count != rc.Count || got.M != rc.M || !got.Deadline.Equal(rc.Deadline) {
				t.Fatalf("header mismatch: got %+v want %+v", got, rc)
			}
			for name, pair := range map[string][2][]float64{
				"x": {got.X, rc.X}, "y": {got.Y, rc.Y}, "alpha": {got.Alpha, rc.Alpha},
			} {
				if len(pair[0]) != len(pair[1]) {
					t.Fatalf("%s: len %d want %d", name, len(pair[0]), len(pair[1]))
				}
				for i := range pair[0] {
					if math.Float64bits(pair[0][i]) != math.Float64bits(pair[1][i]) {
						t.Fatalf("%s[%d]: bits %x want %x", name, i,
							math.Float64bits(pair[0][i]), math.Float64bits(pair[1][i]))
					}
				}
			}
			if buf.Len() != 0 {
				t.Fatalf("trailing bytes after decode: %d", buf.Len())
			}
		})
	}
}

func TestResponseRoundTrip(t *testing.T) {
	cases := []Response{
		{ID: 9, Status: StatusOK, Data: []float64{1, -0.0, math.Inf(1), math.NaN()}},
		{ID: 10, Status: StatusOverloaded, RetryAfterMs: 250},
		{ID: 11, Status: StatusDeadlineExceeded},
	}
	for _, rc := range cases {
		var buf bytes.Buffer
		if err := WriteResponse(&buf, &rc); err != nil {
			t.Fatalf("WriteResponse: %v", err)
		}
		if n := ResponseSize(&rc); n != buf.Len() {
			t.Fatalf("ResponseSize %d, WriteResponse wrote %d bytes", n, buf.Len())
		}
		got, err := ReadResponse(&buf)
		if err != nil {
			t.Fatalf("ReadResponse: %v", err)
		}
		if got.ID != rc.ID || got.Status != rc.Status || got.RetryAfterMs != rc.RetryAfterMs {
			t.Fatalf("got %+v want %+v", got, rc)
		}
		for i := range rc.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(rc.Data[i]) {
				t.Fatalf("data[%d]: bits differ", i)
			}
		}
	}
}

// TestReadErrors drives each framing failure mode and checks the typed
// sentinel comes back: bad magic, wrong version, wrong frame type, an
// oversized length field, a truncated body, and a size/op mismatch.
func TestReadErrors(t *testing.T) {
	valid := func() []byte {
		var buf bytes.Buffer
		req := Request{ID: 1, Op: OpAdd, Width: 2, Count: 1,
			X: []float64{1, 0}, Y: []float64{2, 0}}
		if err := WriteRequest(&buf, &req); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	t.Run("magic", func(t *testing.T) {
		b := valid()
		b[0] = 'X'
		if _, err := ReadRequest(bytes.NewReader(b)); !errors.Is(err, ErrMagic) {
			t.Fatalf("err = %v, want ErrMagic", err)
		}
	})
	t.Run("version", func(t *testing.T) {
		b := valid()
		b[2] = 99
		if _, err := ReadRequest(bytes.NewReader(b)); !errors.Is(err, ErrVersion) {
			t.Fatalf("err = %v, want ErrVersion", err)
		}
	})
	t.Run("frame-type", func(t *testing.T) {
		b := valid()
		if _, err := ReadResponse(bytes.NewReader(b)); !errors.Is(err, ErrFrameType) {
			t.Fatalf("err = %v, want ErrFrameType", err)
		}
	})
	t.Run("too-large", func(t *testing.T) {
		b := valid()
		binary.LittleEndian.PutUint32(b[4:], MaxPayload+1)
		if _, err := ReadRequest(bytes.NewReader(b)); !errors.Is(err, ErrTooLarge) {
			t.Fatalf("err = %v, want ErrTooLarge", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		b := valid()
		if _, err := ReadRequest(bytes.NewReader(b[:len(b)-3])); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
		}
	})
	t.Run("size-mismatch", func(t *testing.T) {
		b := valid()
		b[HeaderSize+1] = 3 // claim width 3; payload still sized for width 2
		if _, err := ReadRequest(bytes.NewReader(b)); !errors.Is(err, ErrMalformed) {
			t.Fatalf("err = %v, want ErrMalformed", err)
		}
	})
	t.Run("dimension-overflow", func(t *testing.T) {
		// Hostile count/m values whose element-count products used to wrap
		// int64 (negative or back to zero) and slip past the payload-length
		// check: the frame must come back ErrMalformed, never panic.
		craft := func(op Op, width byte, count, m uint32) []byte {
			b := make([]byte, HeaderSize+reqFixed)
			b[0], b[1], b[2], b[3] = magic0, magic1, Version, frameRequest
			binary.LittleEndian.PutUint32(b[4:], reqFixed)
			b[HeaderSize] = byte(op)
			b[HeaderSize+1] = width
			binary.LittleEndian.PutUint32(b[HeaderSize+4:], count)
			binary.LittleEndian.PutUint32(b[HeaderSize+8:], m)
			return b
		}
		for _, c := range []struct {
			name  string
			frame []byte
		}{
			{"gemv-wrap-negative", craft(OpGemv, 4, 0xFFFFFFFF, 0x40000000)},
			{"gemm-wrap-zero", craft(OpGemm, 4, 1<<31, 0)},
			{"scalar-over-frame", craft(OpAdd, 4, 1<<29, 0)},
		} {
			if _, err := ReadRequest(bytes.NewReader(c.frame)); !errors.Is(err, ErrMalformed) {
				t.Errorf("%s: err = %v, want ErrMalformed", c.name, err)
			}
		}
	})
	t.Run("huge-length-claim", func(t *testing.T) {
		// A header claiming a MaxPayload body for a tiny request must be
		// rejected from the fixed prefix alone (ErrMalformed), not by
		// allocating the claimed payload and failing the body read
		// (which would surface as ErrUnexpectedEOF here).
		b := valid()[:HeaderSize+reqFixed]
		binary.LittleEndian.PutUint32(b[4:], MaxPayload)
		if _, err := ReadRequest(bytes.NewReader(b)); !errors.Is(err, ErrMalformed) {
			t.Fatalf("err = %v, want ErrMalformed before body allocation", err)
		}
	})
	t.Run("reserved-bytes", func(t *testing.T) {
		// The format documents these bytes as 0. A sealed frame that sets
		// one would decode, then re-encode to different bytes.
		var buf bytes.Buffer
		if err := WriteResponse(&buf, &Response{ID: 2, Status: StatusOK, Data: []float64{1, 0}}); err != nil {
			t.Fatal(err)
		}
		resp := buf.Bytes()
		for _, c := range []struct {
			name  string
			frame []byte
			off   int
		}{
			{"request-payload-3", valid(), HeaderSize + 3},
			{"response-header-16", resp, 16},
			{"response-header-23", resp, 23},
			{"response-payload-1", resp, HeaderSize + 1},
			{"response-payload-3", resp, HeaderSize + 3},
		} {
			b := bytes.Clone(c.frame)
			b[c.off] = 1
			reseal(b)
			var err error
			if b[3] == frameRequest {
				_, err = ReadRequest(bytes.NewReader(b))
			} else {
				_, err = ReadResponse(bytes.NewReader(b))
			}
			if !errors.Is(err, ErrMalformed) {
				t.Errorf("%s: err = %v, want ErrMalformed", c.name, err)
			}
		}
	})
	t.Run("bad-width", func(t *testing.T) {
		r := Request{Op: OpAdd, Width: 5, Count: 1, X: make([]float64, 5), Y: make([]float64, 5)}
		if err := r.Validate(); !errors.Is(err, ErrMalformed) {
			t.Fatalf("Validate = %v, want ErrMalformed", err)
		}
	})
	t.Run("bad-op", func(t *testing.T) {
		r := Request{Op: 42, Width: 2, Count: 1}
		if err := r.Validate(); !errors.Is(err, ErrMalformed) {
			t.Fatalf("Validate = %v, want ErrMalformed", err)
		}
	})
}

// TestReadRequestMax: a request beyond the reader's bound comes back as
// ErrMaxDim with its header fields and no slabs, its body consumed, so
// the next frame on the stream decodes. An oversized body is still
// checksummed.
func TestReadRequestMax(t *testing.T) {
	var buf bytes.Buffer
	over := &Request{ID: 5, Op: OpGemv, Width: 2, Count: 3, M: 4, X: make([]float64, 24), Y: make([]float64, 8)}
	next := &Request{ID: 6, Op: OpAdd, Width: 2, Count: 4, X: make([]float64, 8), Y: make([]float64, 8)}
	for _, req := range []*Request{over, next} {
		if err := WriteRequest(&buf, req); err != nil {
			t.Fatal(err)
		}
	}
	frames := buf.Bytes()
	r := bytes.NewReader(frames)
	req, err := ReadRequestMax(r, 4) // gemv's X slab holds 12 expansions
	if !errors.Is(err, ErrMaxDim) || Untrusted(err) {
		t.Fatalf("oversized: err = %v, want ErrMaxDim", err)
	}
	if req == nil || req.ID != over.ID || req.Op != over.Op || req.X != nil || req.Y != nil {
		t.Fatalf("oversized: got %+v, want its header fields and no slabs", req)
	}
	if req, err := ReadRequestMax(r, 4); err != nil || !sameRequest(req, next) {
		t.Fatalf("frame after the oversized one: %+v, %v", req, err)
	}
	bad := bytes.Clone(frames)
	bad[HeaderSize+reqFixed+5] ^= 1
	if _, err := ReadRequestMax(bytes.NewReader(bad), 4); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupted oversized body: err = %v, want ErrChecksum", err)
	}
}

func TestOpParse(t *testing.T) {
	// Walk the whole code space so every Valid op — including the
	// transcendental block — round-trips through String/ParseOp.
	n := 0
	for op := Op(1); op < Op(255); op++ {
		if !op.Valid() {
			continue
		}
		n++
		back, err := ParseOp(op.String())
		if err != nil || back != op {
			t.Fatalf("ParseOp(%q) = %v, %v", op.String(), back, err)
		}
	}
	if want := 5 + 4 + 20 + 2; n != want {
		t.Fatalf("walked %d valid ops, want %d", n, want)
	}
	if _, err := ParseOp("nope"); err == nil {
		t.Fatal("ParseOp accepted garbage")
	}
}

func TestMathOpPredicates(t *testing.T) {
	for op := OpExp; op <= OpHypot; op++ {
		if !op.Math() || !op.Scalar() || !op.Valid() {
			t.Errorf("%s: Math/Scalar/Valid = %v/%v/%v, want all true", op, op.Math(), op.Scalar(), op.Valid())
		}
		if op.Reduction() {
			t.Errorf("%s: Reduction() = true", op)
		}
		binary := op == OpPow || op == OpAtan2 || op == OpHypot
		if op.Unary() == binary {
			t.Errorf("%s: Unary() = %v, want %v", op, op.Unary(), !binary)
		}
		// Unary math: X only, count·width components. Binary: X and Y.
		nx, ny, na, err := ReqElems(op, 3, 5, 0)
		if err != nil || na != 0 || nx != 15 {
			t.Errorf("%s: ReqElems = %d/%d/%d, %v", op, nx, ny, na, err)
		}
		if wantY := 0; !binary {
			if ny != wantY {
				t.Errorf("%s: unary op wants no Y slab, got %d", op, ny)
			}
		} else if ny != 15 {
			t.Errorf("%s: binary op Y slab = %d, want 15", op, ny)
		}
		if got := RespElems(op, 3, 5, 0); got != 15 {
			t.Errorf("%s: RespElems = %d, want 15", op, got)
		}
		// M is meaningless for math ops; a frame carrying one is hostile.
		req := Request{Op: op, Width: 3, Count: 1, M: 1, X: make([]float64, 3)}
		if !op.Unary() {
			req.Y = make([]float64, 3)
		}
		if err := req.Validate(); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s with nonzero M: Validate = %v, want ErrMalformed", op, err)
		}
	}
	for _, op := range []Op{OpAdd, OpSqrt, OpAxpy, OpDot, OpGemv, OpGemm, OpSumExact, OpDotExact} {
		if op.Math() {
			t.Errorf("%s: Math() = true", op)
		}
	}
}

func TestRespElems(t *testing.T) {
	cases := []struct {
		op                 Op
		width, count, m, n int
	}{
		{OpAdd, 2, 7, 0, 14},
		{OpSqrt, 4, 3, 0, 12},
		{OpAxpy, 3, 5, 0, 15},
		{OpDot, 3, 5, 0, 3},
		{OpGemv, 2, 4, 6, 8},
		{OpGemm, 4, 3, 0, 36},
	}
	for _, c := range cases {
		if got := RespElems(c.op, c.width, c.count, c.m); got != c.n {
			t.Errorf("RespElems(%s, w=%d, c=%d, m=%d) = %d, want %d", c.op, c.width, c.count, c.m, got, c.n)
		}
	}
}
