package wire

import (
	"bufio"
	"bytes"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// encodePaths are the ways a frame can leave the encoder, on both the
// byte-view path and the copying path big-endian hosts build (byteViews
// false), so the latter is tested on every host.
var encodePaths = []struct {
	name  string
	views bool
	// writer returns where the frame goes and how to flush it there.
	writer func(out *bytes.Buffer) (io.Writer, func() error)
}{
	{"in-place/views", true, inPlaceWriter},
	{"in-place/copying", false, inPlaceWriter},
	{"streamed/views", true, streamedWriter},
	{"streamed/copying", false, streamedWriter},
	{"plain/views", true, plainWriter},
	{"plain/copying", false, plainWriter},
}

// inPlaceWriter's free buffer holds every golden frame.
func inPlaceWriter(out *bytes.Buffer) (io.Writer, func() error) {
	bw := bufio.NewWriterSize(out, 4096)
	return bw, bw.Flush
}

// streamedWriter's 16-byte buffer is smaller than any frame.
func streamedWriter(out *bytes.Buffer) (io.Writer, func() error) {
	bw := bufio.NewWriterSize(out, 16)
	return bw, bw.Flush
}

// plainWriter offers no free buffer at all.
func plainWriter(out *bytes.Buffer) (io.Writer, func() error) {
	return struct{ io.Writer }{out}, func() error { return nil }
}

// TestGoldenFrames pins the wire format byte for byte. The frames under
// testdata/golden are the bytes the encoder produced for every
// frameShapes shape before the codec wrote from and read into slab
// memory directly. Every encode path must still produce them exactly,
// and each decode path must turn them back into the shapes.
func TestGoldenFrames(t *testing.T) {
	reqs, resps := frameShapes()
	golden := func(t *testing.T, name string) []byte {
		b, err := os.ReadFile(filepath.Join("testdata", "golden", name+".frame"))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, p := range encodePaths {
		if p.views && !byteViews {
			continue // byte views are this host's encoding only on little-endian hosts
		}
		t.Run(p.name, func(t *testing.T) {
			for name, req := range reqs {
				var out bytes.Buffer
				w, flush := p.writer(&out)
				if err := writeRequest(w, req, p.views); err != nil || flush() != nil {
					t.Fatalf("%s: writeRequest: %v", name, err)
				}
				want := golden(t, name)
				if !bytes.Equal(out.Bytes(), want) {
					t.Fatalf("%s: encoded\n%x\nwant\n%x", name, out.Bytes(), want)
				}
				got, err := readRequest(bytes.NewReader(want), 0, p.views)
				if err != nil {
					t.Fatalf("%s: readRequest: %v", name, err)
				}
				if !sameRequest(got, req) {
					t.Fatalf("%s: decoded %+v, want %+v", name, got, req)
				}
			}
			for name, resp := range resps {
				var out bytes.Buffer
				w, flush := p.writer(&out)
				if err := writeResponse(w, resp, p.views); err != nil || flush() != nil {
					t.Fatalf("%s: writeResponse: %v", name, err)
				}
				want := golden(t, name)
				if !bytes.Equal(out.Bytes(), want) {
					t.Fatalf("%s: encoded\n%x\nwant\n%x", name, out.Bytes(), want)
				}
				got, err := readResponse(bytes.NewReader(want), p.views)
				if err != nil {
					t.Fatalf("%s: readResponse: %v", name, err)
				}
				if got.ID != resp.ID || got.Status != resp.Status || got.RetryAfterMs != resp.RetryAfterMs || !bitsEqual(got.Data, resp.Data) {
					t.Fatalf("%s: decoded %+v, want %+v", name, got, resp)
				}
			}
		})
	}
}

// sameRequest compares decoded and original requests field by field,
// slabs by bit pattern (a nil slab and an empty one are the same).
func sameRequest(a, b *Request) bool {
	return a.ID == b.ID && a.Deadline.Equal(b.Deadline) && a.Op == b.Op && a.Width == b.Width &&
		a.Count == b.Count && a.M == b.M && a.Hops == b.Hops &&
		bitsEqual(a.Alpha, b.Alpha) && bitsEqual(a.X, b.X) && bitsEqual(a.Y, b.Y)
}

// TestInPlaceEncodeAllocs pins the small-frame cost: a frame that fits
// the writer's free buffer is built there, with no allocation.
func TestInPlaceEncodeAllocs(t *testing.T) {
	bw := bufio.NewWriterSize(io.Discard, 1<<16)
	req := &Request{ID: 1, Op: OpAdd, Width: 2, Count: 1, X: []float64{1, 0}, Y: []float64{2, 0}}
	resp := &Response{ID: 1, Status: StatusOK, Data: []float64{3, 0}}
	if n := testing.AllocsPerRun(100, func() {
		WriteRequest(bw, req)
		WriteResponse(bw, resp)
	}); n != 0 {
		t.Fatalf("in-place encode allocated %v times per request+response", n)
	}
}

// TestDecodeAllocatesOneSlab: decoding a large reduction chunk (two
// slabs of 8192 width-4 expansions) allocates the payload once, plus
// small change for the Request and header, and nothing more: no body
// buffer beside the slab, no per-slab copies.
func TestDecodeAllocatesOneSlab(t *testing.T) {
	const n, w = 8192, 4
	req := &Request{ID: 1, Op: OpDotExact, Width: w, Count: n,
		X: make([]float64, n*w), Y: make([]float64, n*w)}
	var buf bytes.Buffer
	if err := WriteRequest(&buf, req); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	payload := uint64(len(frame) - HeaderSize - TrailerSize)
	const runs = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := ReadRequest(bytes.NewReader(frame)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > payload+4<<10 {
		t.Fatalf("decode allocated %d bytes per %d-byte payload, want ≤ payload + 4 KiB", per, payload)
	}
}
