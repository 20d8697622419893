package wire

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"
)

// Decoder fuzz targets. The decoders face hostile bytes, so each target
// asserts no panic, and that every frame a decoder accepts re-encodes to
// exactly the bytes it consumed: the format has one encoding per frame,
// so a field the decoder ignores or normalizes would show up here. Each
// input is decoded as given and again resealed (its first frame's CRC
// trailer recomputed), since a mutation that breaks the CRC never gets
// past it.

// fuzzMaxPayload is the harness's frame-size limit. A frame whose header
// declares a larger payload is skipped, not decoded: the decoders size
// their one allocation from the declared geometry, so a hostile length
// field would otherwise make the fuzzer allocate up to a GiB per input.
// MaxPayload itself is covered by TestReadErrors.
const fuzzMaxPayload = 1 << 20

// fuzzSeeds adds every frameShapes frame whose name has the prefix.
func fuzzSeeds(f *testing.F, prefix string) {
	for name, frame := range truncationFrames(f) {
		if strings.HasPrefix(name, prefix) {
			f.Add(frame)
		}
	}
}

// resealed returns a copy of b with its first frame's trailer recomputed,
// or b itself when the frame is incomplete.
func resealed(b []byte) []byte {
	n := HeaderSize + declaredPayload(b)
	if len(b) < n+TrailerSize {
		return b
	}
	c := bytes.Clone(b)
	binary.LittleEndian.PutUint32(c[n:], crc32.Checksum(c[:n], crcTable))
	return c
}

// declaredPayload returns the payload length a frame's header declares
// (0 when the header is incomplete).
func declaredPayload(b []byte) int {
	if len(b) < HeaderSize {
		return 0
	}
	return int(binary.LittleEndian.Uint32(b[4:]))
}

func FuzzReadRequest(f *testing.F) {
	fuzzSeeds(f, "req-")
	f.Fuzz(func(t *testing.T, b []byte) {
		if declaredPayload(b) > fuzzMaxPayload {
			t.Skip("declared payload beyond the harness limit")
		}
		for _, b := range [][]byte{b, resealed(b)} {
			r := bytes.NewReader(b)
			req, err := ReadRequest(r)
			if err != nil || req.Validate() != nil {
				continue
			}
			consumed := b[:len(b)-r.Len()]
			var buf bytes.Buffer
			if err := WriteRequest(&buf, req); err != nil {
				t.Fatalf("accepted request does not re-encode: %v", err)
			}
			if !bytes.Equal(buf.Bytes(), consumed) {
				t.Fatalf("accepted request re-encodes differently:\nread    %x\nwritten %x", consumed, buf.Bytes())
			}
		}
	})
}

func FuzzReadResponse(f *testing.F) {
	fuzzSeeds(f, "resp-")
	f.Fuzz(func(t *testing.T, b []byte) {
		if declaredPayload(b) > fuzzMaxPayload {
			t.Skip("declared payload beyond the harness limit")
		}
		for _, b := range [][]byte{b, resealed(b)} {
			r := bytes.NewReader(b)
			resp, err := ReadResponse(r)
			if err != nil {
				continue
			}
			consumed := b[:len(b)-r.Len()]
			var buf bytes.Buffer
			if err := WriteResponse(&buf, resp); err != nil {
				t.Fatalf("accepted response does not re-encode: %v", err)
			}
			if !bytes.Equal(buf.Bytes(), consumed) {
				t.Fatalf("accepted response re-encodes differently:\nread    %x\nwritten %x", consumed, buf.Bytes())
			}
		}
	})
}
