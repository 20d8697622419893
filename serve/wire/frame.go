package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"
	"time"
)

// crcTable is the Castagnoli polynomial (CRC32C) — hardware-accelerated
// on amd64/arm64, and the standard choice for storage/network integrity.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// bufPool recycles frame scratch buffers. Encode buffers live only for
// the Write call and decode buffers only for the Read call (components
// are copied out into float slices), so pooling them is safe and removes
// the dominant per-frame allocations on a busy connection. Oversized
// buffers (large BLAS frames) are dropped rather than retained.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBuf = 1 << 16

func getBuf(n int) (*[]byte, []byte) {
	bp := bufPool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	return bp, (*bp)[:n]
}

func putBuf(bp *[]byte) {
	if cap(*bp) <= maxPooledBuf {
		bufPool.Put(bp)
	}
}

// putF64s writes the raw IEEE-754 bit patterns of v at the front of b,
// little-endian, returning the remainder of b. Going through Float64bits
// (not any decimal or shortest-round-trip form) is what makes the
// encoding bit-exact for -0, subnormals, and NaN payloads alike.
//
//mf:hotpath
func putF64s(b []byte, v []float64) []byte {
	for _, f := range v {
		binary.LittleEndian.PutUint64(b, math.Float64bits(f))
		b = b[8:]
	}
	return b
}

// getF64s decodes n float64 components from the front of b and returns
// the remainder of b.
func getF64s(b []byte, n int) ([]float64, []byte) {
	v := make([]float64, n)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return v, b[n*8:]
}

//mf:hotpath
func putHeader(b []byte, frameType byte, payloadLen int, id uint64, extra int64) {
	b[0], b[1] = magic0, magic1
	b[2] = Version
	b[3] = frameType
	binary.LittleEndian.PutUint32(b[4:], uint32(payloadLen))
	binary.LittleEndian.PutUint64(b[8:], id)
	binary.LittleEndian.PutUint64(b[16:], uint64(extra))
}

// readHeader reads and validates a frame header (plus, for requests,
// the fixed payload prefix in the same read — one fewer buffered read
// and CRC update on the hot path), returning the payload length, request
// ID, the type-specific extra field, and the running CRC32C over the
// consumed bytes (the rest of the payload and the trailer continue it).
// h must have length HeaderSize plus however much fixed prefix the
// caller wants consumed together with the header.
func readHeader(r io.Reader, wantType byte, h []byte) (payloadLen int, id uint64, extra int64, crc uint32, err error) {
	if _, err = io.ReadFull(r, h); err != nil {
		return 0, 0, 0, 0, err
	}
	if h[0] != magic0 || h[1] != magic1 {
		return 0, 0, 0, 0, ErrMagic
	}
	if h[2] != Version {
		if h[2] == 1 {
			return 0, 0, 0, 0, fmt.Errorf("%w: peer speaks v1 (no CRC32C trailer); this build requires v%d", ErrVersion, Version)
		}
		return 0, 0, 0, 0, fmt.Errorf("%w: got %d, want %d", ErrVersion, h[2], Version)
	}
	if h[3] != wantType {
		return 0, 0, 0, 0, fmt.Errorf("%w: got %d, want %d", ErrFrameType, h[3], wantType)
	}
	n := binary.LittleEndian.Uint32(h[4:])
	if n > MaxPayload {
		return 0, 0, 0, 0, fmt.Errorf("%w: %d bytes", ErrTooLarge, n)
	}
	id = binary.LittleEndian.Uint64(h[8:])
	extra = int64(binary.LittleEndian.Uint64(h[16:]))
	return int(n), id, extra, crc32.Update(0, crcTable, h), nil
}

// readTrailer consumes the 4-byte CRC32C trailer and compares it against
// the CRC accumulated over the header and payload.
func readTrailer(r io.Reader, crc uint32) error {
	var tr [TrailerSize]byte
	if _, err := io.ReadFull(r, tr[:]); err != nil {
		return err
	}
	if got := binary.LittleEndian.Uint32(tr[:]); got != crc {
		return fmt.Errorf("%w: trailer %08x, computed %08x", ErrChecksum, got, crc)
	}
	return nil
}

// sealFrame appends the CRC32C trailer over buf's header+payload bytes.
// buf must have TrailerSize spare bytes after n.
//
//mf:hotpath
func sealFrame(buf []byte, n int) {
	binary.LittleEndian.PutUint32(buf[n:], crc32.Checksum(buf[:n], crcTable))
}

// deadlineNanos converts a deadline to the wire representation: absolute
// Unix nanoseconds, 0 for "none".
func deadlineNanos(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

const reqFixed = 12 // op, width, proxy hops, reserved, count, m

// WriteRequest encodes r as a single frame. The caller is responsible
// for r being well-shaped (Validate); WriteRequest trusts the slab
// lengths it is given.
func WriteRequest(w io.Writer, r *Request) error {
	payload := reqFixed + 8*(len(r.Alpha)+len(r.X)+len(r.Y))
	if payload > MaxPayload {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, payload)
	}
	if uint(r.Hops) > MaxProxyHops {
		// Checked at write time too (not just Validate): a hop count that
		// does not fit the wire byte must never be silently truncated into
		// a plausible one.
		return fmt.Errorf("%w: proxy hop count %d exceeds MaxProxyHops %d", ErrMalformed, r.Hops, MaxProxyHops)
	}
	bp, buf := getBuf(HeaderSize + payload + TrailerSize)
	defer putBuf(bp)
	putHeader(buf, frameRequest, payload, r.ID, deadlineNanos(r.Deadline))
	p := buf[HeaderSize:]
	p[0], p[1], p[2], p[3] = byte(r.Op), byte(r.Width), byte(r.Hops), 0
	binary.LittleEndian.PutUint32(p[4:], uint32(r.Count))
	binary.LittleEndian.PutUint32(p[8:], uint32(r.M))
	p = putF64s(p[reqFixed:], r.Alpha)
	p = putF64s(p, r.X)
	putF64s(p, r.Y)
	sealFrame(buf, HeaderSize+payload)
	_, err := w.Write(buf)
	return err
}

// ReadRequest decodes one request frame. A returned error (other than a
// clean io.EOF before any bytes) means the stream is no longer aligned
// on frame boundaries and the connection should be closed.
func ReadRequest(r io.Reader) (*Request, error) {
	// Read the header and the fixed payload prefix together and derive the
	// slab sizes from the prefix, so the body allocation is bounded by the
	// request's validated geometry rather than the header's claimed length
	// — a small frame with a hostile length field cannot pin MaxPayload of
	// memory. (Every well-formed request payload is ≥ reqFixed bytes, so
	// the merged read never crosses a frame boundary for an honest peer;
	// a malformed shorter claim errors below and closes the connection.)
	var hf [HeaderSize + reqFixed]byte
	payloadLen, id, dl, crc, err := readHeader(r, frameRequest, hf[:])
	if err != nil {
		return nil, err
	}
	if payloadLen < reqFixed {
		return nil, fmt.Errorf("%w: request payload %d bytes, want ≥ %d", ErrMalformed, payloadLen, reqFixed)
	}
	fixed := hf[HeaderSize:]
	req := &Request{
		ID:    id,
		Op:    Op(fixed[0]),
		Width: int(fixed[1]),
		Hops:  int(fixed[2]),
		Count: int(binary.LittleEndian.Uint32(fixed[4:])),
		M:     int(binary.LittleEndian.Uint32(fixed[8:])),
	}
	if dl != 0 {
		req.Deadline = time.Unix(0, dl)
	}
	nx, ny, na, err := ReqElems(req.Op, req.Width, req.Count, req.M)
	if err != nil {
		return nil, err
	}
	if want := reqFixed + 8*(na+nx+ny); want != payloadLen {
		return nil, fmt.Errorf("%w: %s payload %d bytes, want %d", ErrMalformed, req.Op, payloadLen, want)
	}
	bp, body := getBuf(payloadLen - reqFixed)
	defer putBuf(bp)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	// Verify the trailer before decoding a single component: a corrupted
	// frame must never yield a plausible request.
	if err := readTrailer(r, crc32.Update(crc, crcTable, body)); err != nil {
		return nil, err
	}
	req.Alpha, body = getF64s(body, na)
	req.X, body = getF64s(body, nx)
	req.Y, _ = getF64s(body, ny)
	return req, nil
}

const respFixed = 8 // status, reserved×3, retry-after

// ResponseSize is the size in bytes of resp's encoded frame.
func ResponseSize(resp *Response) int {
	return HeaderSize + respFixed + 8*len(resp.Data) + TrailerSize
}

// WriteResponse encodes resp as a single frame.
func WriteResponse(w io.Writer, resp *Response) error {
	size := ResponseSize(resp)
	payload := size - HeaderSize - TrailerSize
	if payload > MaxPayload {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, payload)
	}
	bp, buf := getBuf(size)
	defer putBuf(bp)
	putHeader(buf, frameResponse, payload, resp.ID, 0)
	p := buf[HeaderSize:]
	p[0], p[1], p[2], p[3] = byte(resp.Status), 0, 0, 0
	binary.LittleEndian.PutUint32(p[4:], resp.RetryAfterMs)
	putF64s(p[respFixed:], resp.Data)
	sealFrame(buf, HeaderSize+payload)
	_, err := w.Write(buf)
	return err
}

// ReadResponse decodes one response frame.
func ReadResponse(r io.Reader) (*Response, error) {
	var h [HeaderSize]byte
	payloadLen, id, _, crc, err := readHeader(r, frameResponse, h[:])
	if err != nil {
		return nil, err
	}
	if payloadLen < respFixed || (payloadLen-respFixed)%8 != 0 {
		return nil, fmt.Errorf("%w: response payload %d bytes", ErrMalformed, payloadLen)
	}
	bp, body := getBuf(payloadLen)
	defer putBuf(bp)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	// Verify before decoding: a corrupted frame must never yield a
	// plausible response.
	if err := readTrailer(r, crc32.Update(crc, crcTable, body)); err != nil {
		return nil, err
	}
	resp := &Response{
		ID:           id,
		Status:       Status(body[0]),
		RetryAfterMs: binary.LittleEndian.Uint32(body[4:]),
	}
	resp.Data, _ = getF64s(body[respFixed:], (payloadLen-respFixed)/8)
	return resp, nil
}
