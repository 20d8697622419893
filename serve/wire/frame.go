package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"time"

	"multifloats/serve/internal/slab"
)

// The frame codec (the package doc says what it does with slabs). Every
// encode and decode function below takes views. True selects the
// byte-view path, which reads into and writes from a slab's own memory
// (serve/internal/slab). False selects the copying path big-endian
// hosts need, which converts each component through
// binary.LittleEndian. byteViews picks one at build time; tests run
// both on every host.

// crcTable is the Castagnoli polynomial (CRC32C) — hardware-accelerated
// on amd64/arm64, and the standard choice for storage/network integrity.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// putSlab encodes s into b (len 8·len(s)) as raw IEEE-754 bit patterns,
// little-endian. Going through the bit patterns (never a decimal or
// shortest-round-trip form) is what makes the encoding bit-exact for
// -0, subnormals, and NaN payloads alike.
//
//mf:hotpath
func putSlab(b []byte, s []float64, views bool) {
	if views {
		copy(b, slab.Bytes(s))
		return
	}
	for i, f := range s {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(f))
	}
}

// fromWire turns s, whose memory holds components as read off the wire,
// into native float64s, in place. On the byte-view path there is nothing
// to do.
func fromWire(s []float64, views bool) {
	if views {
		return
	}
	b := slab.Bytes(s)
	for i := range s {
		s[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

// writeSlab streams s's encoding to w and returns crc continued over
// exactly the bytes written: the view path checksums and writes the
// slab's own memory, the copying path a converted copy.
func writeSlab(w io.Writer, s []float64, crc uint32, views bool) (uint32, error) {
	b := slab.Bytes(s)
	if !views {
		b = make([]byte, len(b))
		putSlab(b, s, false)
	}
	crc = crc32.Update(crc, crcTable, b)
	_, err := w.Write(b)
	return crc, err
}

// readSlab reads s's encoding from r straight into s's memory and
// returns crc continued over those bytes. s must not be handed out
// before the caller has checked the trailer and run fromWire.
func readSlab(r io.Reader, s []float64, crc uint32) (uint32, error) {
	b := slab.Bytes(s)
	if _, err := io.ReadFull(r, b); err != nil {
		return crc, err
	}
	return crc32.Update(crc, crcTable, b), nil
}

// discardBody consumes n payload bytes without keeping them, 32 KiB at
// a time, and returns crc continued over them.
func discardBody(r io.Reader, n int, crc uint32) (uint32, error) {
	buf := make([]byte, min(n, 32<<10))
	for n > 0 {
		b := buf[:min(n, len(buf))]
		if _, err := io.ReadFull(r, b); err != nil {
			return crc, err
		}
		crc = crc32.Update(crc, crcTable, b)
		n -= len(b)
	}
	return crc, nil
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

// readHeader reads and validates a frame header together with the fixed
// payload prefix (one buffered read and one CRC update for both),
// returning the payload length, request ID, the type-specific extra
// field, and the running CRC32C over the consumed bytes (the rest of the
// payload and the trailer continue it). h must have length HeaderSize
// plus the frame type's fixed prefix. Every well-formed payload is at
// least that prefix long, so the merged read never crosses a frame
// boundary for an honest peer; a shorter claim is malformed and the
// caller's error closes the connection.
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
	if int(n) < len(h)-HeaderSize {
		return 0, 0, 0, 0, fmt.Errorf("%w: payload %d bytes, want ≥ %d", ErrMalformed, n, len(h)-HeaderSize)
	}
	id = binary.LittleEndian.Uint64(h[8:])
	extra = int64(binary.LittleEndian.Uint64(h[16:]))
	return int(n), id, extra, crc32.Update(0, crcTable, h), nil
}

// readTrailer consumes the 4-byte CRC32C trailer into tr and compares
// it against the CRC accumulated over the header and payload. Callers
// pass the tail of their header scratch, which is on the heap already
// (a slice handed to an io.Reader escapes), so the trailer costs no
// allocation of its own.
func readTrailer(r io.Reader, crc uint32, tr []byte) error {
	if _, err := io.ReadFull(r, tr); err != nil {
		return err
	}
	if got := binary.LittleEndian.Uint32(tr); got != crc {
		return fmt.Errorf("%w: trailer %08x, computed %08x", ErrChecksum, got, crc)
	}
	return nil
}

// frameBuffer returns where to build a frame of size bytes whose header
// and fixed payload prefix take head bytes. When w has a free buffer
// (bufio.Writer, bytes.Buffer) with room for the whole frame, that is
// the place: the frame is built in it and written with one Write, one
// CRC pass and no allocation. Otherwise it returns a head-sized slice,
// and writeFrame streams the rest.
func frameBuffer(w io.Writer, size, head int) []byte {
	if aw, ok := w.(interface{ AvailableBuffer() []byte }); ok {
		if b := aw.AvailableBuffer(); cap(b) >= size {
			return b[:size]
		}
	}
	return make([]byte, head)
}

// writeFrame finishes and writes a frame whose header and fixed payload
// prefix fill b[:head]. When b is the whole frame (frameBuffer's
// in-place case) the slabs and trailer are encoded into it. Otherwise b
// is just the head: it is written, then each slab straight from its
// memory, then the trailer, with the CRC over exactly the bytes written.
func writeFrame(w io.Writer, b []byte, head int, slabs [][]float64, views bool) error {
	if len(b) > head {
		putSlabs(b, head, slabs, views)
		_, err := w.Write(b)
		return err
	}
	crc := crc32.Checksum(b, crcTable)
	if _, err := w.Write(b); err != nil {
		return err
	}
	for _, s := range slabs {
		var err error
		if crc, err = writeSlab(w, s, crc, views); err != nil {
			return err
		}
	}
	_, err := w.Write(binary.LittleEndian.AppendUint32(nil, crc))
	return err
}

// putSlabs encodes slabs into b after its first off bytes and seals the
// frame with the CRC32C trailer; b is exactly the frame's size.
//
//mf:hotpath
func putSlabs(b []byte, off int, slabs [][]float64, views bool) {
	for _, s := range slabs {
		putSlab(b[off:off+8*len(s)], s, views)
		off += 8 * len(s)
	}
	binary.LittleEndian.PutUint32(b[off:], crc32.Checksum(b[:off], crcTable))
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
// lengths it is given. r's slabs must not change during the call: they
// are checksummed and written straight from their memory, so a slab
// mutated mid-write yields a frame the peer rejects with ErrChecksum.
func WriteRequest(w io.Writer, r *Request) error { return writeRequest(w, r, byteViews) }

func writeRequest(w io.Writer, r *Request, views bool) error {
	slabs := [...][]float64{r.Alpha, r.X, r.Y}
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
	b := frameBuffer(w, HeaderSize+payload+TrailerSize, HeaderSize+reqFixed)
	putHeader(b, frameRequest, payload, r.ID, deadlineNanos(r.Deadline))
	p := b[HeaderSize:]
	p[0], p[1], p[2], p[3] = byte(r.Op), byte(r.Width), byte(r.Hops), 0
	binary.LittleEndian.PutUint32(p[4:], uint32(r.Count))
	binary.LittleEndian.PutUint32(p[8:], uint32(r.M))
	return writeFrame(w, b, HeaderSize+reqFixed, slabs[:], views)
}

// ReadRequest decodes one request frame. A returned error (other than a
// clean io.EOF before any bytes) means the stream is no longer aligned
// on frame boundaries and the connection should be closed. The
// request's Alpha, X and Y are consecutive pieces of one slab that
// belongs to the caller.
func ReadRequest(r io.Reader) (*Request, error) { return readRequest(r, 0, byteViews) }

// ReadRequestMax is ReadRequest for a reader that serves at most maxDim
// expansion elements per operand slab (maxDim ≤ 0: no bound). A request
// beyond the bound is rejected from its header, before any of its body
// is buffered: the body is read through and checksummed but not kept,
// and the returned error wraps ErrMaxDim together with a Request that
// carries the header fields and no slabs. The stream then stays aligned
// on the next frame, so the caller can answer the request and read on.
func ReadRequestMax(r io.Reader, maxDim int) (*Request, error) {
	return readRequest(r, maxDim, byteViews)
}

func readRequest(r io.Reader, maxDim int, views bool) (*Request, error) {
	// The header and the fixed payload prefix are read together, and the
	// slab sizes come from the prefix, so the body allocation is bounded
	// by the request's validated geometry rather than the header's
	// claimed length: a small frame with a hostile length field cannot
	// pin MaxPayload of memory.
	var hf [HeaderSize + reqFixed + TrailerSize]byte
	payloadLen, id, dl, crc, err := readHeader(r, frameRequest, hf[:HeaderSize+reqFixed])
	if err != nil {
		return nil, err
	}
	fixed := hf[HeaderSize : HeaderSize+reqFixed]
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
	over := maxDim > 0 && max(nx, ny)/req.Width > maxDim
	var s []float64
	if over {
		crc, err = discardBody(r, payloadLen-reqFixed, crc)
	} else {
		s = make([]float64, na+nx+ny)
		crc, err = readSlab(r, s, crc)
	}
	if err != nil {
		return nil, err
	}
	// Verify the trailer before handing out a single component: a
	// corrupted frame must never yield a plausible request.
	if err := readTrailer(r, crc, hf[HeaderSize+reqFixed:]); err != nil {
		return nil, err
	}
	if fixed[3] != 0 {
		return nil, fmt.Errorf("%w: reserved request byte %#x", ErrMalformed, fixed[3])
	}
	if over {
		return req, fmt.Errorf("%w: %s operands of %d elements, bound %d", ErrMaxDim, req.Op, max(nx, ny)/req.Width, maxDim)
	}
	fromWire(s, views)
	req.Alpha, req.X, req.Y = s[:na:na], s[na:na+nx:na+nx], s[na+nx:]
	return req, nil
}

const respFixed = 8 // status, reserved×3, retry-after

// ResponseSize is the size in bytes of resp's encoded frame.
func ResponseSize(resp *Response) int {
	return HeaderSize + respFixed + 8*len(resp.Data) + TrailerSize
}

// WriteResponse encodes resp as a single frame. resp.Data must not
// change during the call, as for WriteRequest.
func WriteResponse(w io.Writer, resp *Response) error { return writeResponse(w, resp, byteViews) }

func writeResponse(w io.Writer, resp *Response, views bool) error {
	size := ResponseSize(resp)
	payload := size - HeaderSize - TrailerSize
	if payload > MaxPayload {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, payload)
	}
	b := frameBuffer(w, size, HeaderSize+respFixed)
	putHeader(b, frameResponse, payload, resp.ID, 0)
	p := b[HeaderSize:]
	p[0], p[1], p[2], p[3] = byte(resp.Status), 0, 0, 0
	binary.LittleEndian.PutUint32(p[4:], resp.RetryAfterMs)
	return writeFrame(w, b, HeaderSize+respFixed, [][]float64{resp.Data}, views)
}

// ReadResponse decodes one response frame. Its Data is a slab that
// belongs to the caller.
func ReadResponse(r io.Reader) (*Response, error) { return readResponse(r, byteViews) }

func readResponse(r io.Reader, views bool) (*Response, error) {
	var hf [HeaderSize + respFixed + TrailerSize]byte
	payloadLen, id, reserved, crc, err := readHeader(r, frameResponse, hf[:HeaderSize+respFixed])
	if err != nil {
		return nil, err
	}
	if (payloadLen-respFixed)%8 != 0 {
		return nil, fmt.Errorf("%w: response payload %d bytes", ErrMalformed, payloadLen)
	}
	s := make([]float64, (payloadLen-respFixed)/8)
	if crc, err = readSlab(r, s, crc); err != nil {
		return nil, err
	}
	// Verify before handing out: a corrupted frame must never yield a
	// plausible response.
	if err := readTrailer(r, crc, hf[HeaderSize+respFixed:]); err != nil {
		return nil, err
	}
	fixed := hf[HeaderSize : HeaderSize+respFixed]
	if reserved != 0 || fixed[1]|fixed[2]|fixed[3] != 0 {
		return nil, fmt.Errorf("%w: nonzero reserved response bytes", ErrMalformed)
	}
	fromWire(s, views)
	return &Response{
		ID:           id,
		Status:       Status(fixed[0]),
		RetryAfterMs: binary.LittleEndian.Uint32(fixed[4:]),
		Data:         s,
	}, nil
}
