package proxy

// Cache-key canonicalization property tests: the content-addressed key
// must treat every distinct operand BIT pattern as a distinct identity
// (NaN payloads, -0 vs +0, subnormal tails — a float-value comparison
// would merge them) and must never collide across ops, widths, shapes,
// or operand slots. It must also exclude volatile routing metadata
// (ID, deadline, hop count), or the cache would never hit.

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"multifloats/internal/diffuzz"
	"multifloats/serve/wire"
)

func keyOf(req *wire.Request) [32]byte { return cacheKey(req) }

func TestCacheKeyBitDistinctSpecials(t *testing.T) {
	base := &wire.Request{Op: wire.OpAdd, Width: 2, Count: 1,
		X: []float64{1.0, 0}, Y: []float64{2.0, 0}}

	// Bit-distinct payloads that compare equal (or unordered) as floats.
	variants := [][2]uint64{
		// two distinct quiet-NaN payloads
		{0x7ff8000000000001, 0x7ff8000000000002},
		// quiet vs signaling NaN
		{0x7ff8000000000000, 0x7ff0000000000001},
		// NaN sign bit
		{0x7ff8000000000000, 0xfff8000000000000},
		// +0 vs -0
		{0x0000000000000000, 0x8000000000000000},
		// subnormals one ulp apart
		{0x0000000000000001, 0x0000000000000002},
		// smallest normal vs largest subnormal
		{0x0010000000000000, 0x000fffffffffffff},
	}
	for i, v := range variants {
		a, b := *base, *base
		a.X = []float64{math.Float64frombits(v[0]), 0}
		b.X = []float64{math.Float64frombits(v[1]), 0}
		ka, kb := keyOf(&a), keyOf(&b)
		if ka == kb {
			t.Errorf("variant %d: bit patterns %#x and %#x share a cache key", i, v[0], v[1])
		}
	}
}

func TestCacheKeyExcludesRoutingMetadata(t *testing.T) {
	a := &wire.Request{ID: 1, Op: wire.OpMul, Width: 3, Count: 1,
		X: []float64{1, 2, 3}, Y: []float64{4, 5, 6}}
	b := &wire.Request{ID: 999, Op: wire.OpMul, Width: 3, Count: 1,
		Deadline: time.Now().Add(time.Hour), Hops: wire.MaxProxyHops,
		X: []float64{1, 2, 3}, Y: []float64{4, 5, 6}}
	if keyOf(a) != keyOf(b) {
		t.Fatal("ID/deadline/hops leaked into the cache key; identical content must hit")
	}
}

func TestCacheKeyNoCrossFieldCollisions(t *testing.T) {
	mk := func() *wire.Request {
		return &wire.Request{Op: wire.OpAdd, Width: 2, Count: 1,
			X: []float64{1.5, -3.25}, Y: []float64{2.5, 0.125}}
	}
	base := keyOf(mk())

	r := mk()
	r.Op = wire.OpSub
	if keyOf(r) == base {
		t.Error("op change did not change the key")
	}
	r = mk()
	r.Width = 4
	if keyOf(r) == base {
		t.Error("width change did not change the key")
	}
	r = mk()
	r.Count = 2
	if keyOf(r) == base {
		t.Error("count change did not change the key")
	}
	r = mk()
	r.M = 7
	if keyOf(r) == base {
		t.Error("m change did not change the key")
	}
	// Operand-slot swap: same multiset of bits, different roles.
	r = mk()
	r.X, r.Y = r.Y, r.X
	if keyOf(r) == base {
		t.Error("x/y swap did not change the key")
	}
}

// TestCacheKeyFlipAnyBit is the core property: flipping ANY single bit
// of ANY operand word produces a different key, on adversarial operands
// from diffuzz (NaNs, infinities, subnormals, zeros included).
func TestCacheKeyFlipAnyBit(t *testing.T) {
	gen := diffuzz.NewGen(42)
	rng := rand.New(rand.NewSource(43))
	for round := 0; round < 200; round++ {
		n := 1 + rng.Intn(6)
		req := &wire.Request{Op: wire.OpDot, Width: 2, Count: n,
			X: make([]float64, 0, 2*n), Y: make([]float64, 0, 2*n)}
		for i := 0; i < n; i++ {
			req.X = append(req.X, gen.BlasElement(2)...)
			req.Y = append(req.Y, gen.BlasElement(2)...)
		}
		if rng.Intn(4) == 0 {
			req.X[rng.Intn(len(req.X))] = gen.SpecialValue()
		}
		base := keyOf(req)

		slot := req.X
		if rng.Intn(2) == 1 {
			slot = req.Y
		}
		i := rng.Intn(len(slot))
		bit := uint(rng.Intn(64))
		orig := slot[i]
		slot[i] = math.Float64frombits(math.Float64bits(orig) ^ (1 << bit))
		if keyOf(req) == base {
			t.Fatalf("round %d: flipping bit %d of %#x did not change the key",
				round, bit, math.Float64bits(orig))
		}
		slot[i] = orig
		if keyOf(req) != base {
			t.Fatalf("round %d: key is not a pure function of content", round)
		}
	}
}

// TestCacheKeyAgreesWithRouting pins that routing and caching share one
// identity: the ring hash is derived from the same digest.
func TestCacheKeyAgreesWithRouting(t *testing.T) {
	req := &wire.Request{Op: wire.OpSqrt, Width: 2, Count: 1, X: []float64{2, 0}}
	k1, k2 := keyOf(req), keyOf(req)
	if ringHash(&k1) != ringHash(&k2) {
		t.Fatal("ring hash is not deterministic in the key")
	}
}

func TestResultCacheLRUBound(t *testing.T) {
	var st Stats
	// Room for ~2 entries of 8 floats (cost 64+128 = 192 each).
	c := newResultCache(400, &st)
	keys := make([][32]byte, 4)
	for i := range keys {
		keys[i][0] = byte(i + 1)
		c.put(keys[i], make([]float64, 8))
	}
	if got := st.CacheBytes.Load(); got > 400 {
		t.Fatalf("cache exceeded its byte bound: %d > 400", got)
	}
	if _, ok := c.get(keys[0]); ok {
		t.Error("oldest entry survived eviction")
	}
	if _, ok := c.get(keys[3]); !ok {
		t.Error("newest entry was evicted")
	}
	// First write wins on a same-key re-put.
	v := []float64{1, 2}
	c.put(keys[3], v)
	if got, _ := c.get(keys[3]); len(got) == 2 {
		t.Error("second put replaced the first-written value")
	}
	// Disabled cache is nil and inert.
	var nilCache *resultCache
	if nc := newResultCache(-1, &st); nc != nil {
		t.Fatal("negative budget must disable the cache")
	}
	nilCache.put(keys[0], v)
	if _, ok := nilCache.get(keys[0]); ok {
		t.Error("nil cache returned a value")
	}
}

// FuzzCacheKey decodes fuzzed request frames and checks the key's two
// properties on every request the wire layer accepts: volatile routing
// metadata does not reach the key, and flipping any one operand bit
// changes it. Seeds are the wire package's golden request frames; each
// input is resealed (CRC trailer recomputed) before decoding, so
// mutations reach the key instead of stopping at the checksum.
func FuzzCacheKey(f *testing.F) {
	seeds, _ := filepath.Glob("../wire/testdata/golden/req-*.frame")
	if len(seeds) == 0 {
		f.Fatal("no golden request frames to seed from")
	}
	for _, p := range seeds {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b, uint64(0), int64(0), uint8(0), uint32(0))
	}
	f.Fuzz(func(t *testing.T, frame []byte, id uint64, deadline int64, hops uint8, flip uint32) {
		if len(frame) < wire.HeaderSize {
			return
		}
		// Skip frames declaring more than 1 MiB: decoding allocates the
		// declared geometry, so a hostile length would cost up to a GiB.
		n := wire.HeaderSize + int(binary.LittleEndian.Uint32(frame[4:]))
		if n > wire.HeaderSize+1<<20 || len(frame) < n+wire.TrailerSize {
			return
		}
		frame = bytes.Clone(frame)
		binary.LittleEndian.PutUint32(frame[n:], crc32.Checksum(frame[:n], crc32.MakeTable(crc32.Castagnoli)))
		req, err := wire.ReadRequest(bytes.NewReader(frame))
		if err != nil || req.Validate() != nil {
			return
		}
		key := keyOf(req)

		moved := *req
		moved.ID, moved.Deadline, moved.Hops = id, time.Unix(0, deadline), int(hops)%(wire.MaxProxyHops+1)
		if keyOf(&moved) != key {
			t.Fatal("ID, deadline or hops changed the cache key")
		}

		slabs := [][]float64{slices.Clone(req.Alpha), slices.Clone(req.X), slices.Clone(req.Y)}
		bits := 64 * (len(req.Alpha) + len(req.X) + len(req.Y))
		if bits == 0 {
			return
		}
		bit := int(flip % uint32(bits))
		for _, s := range slabs {
			if bit < 64*len(s) {
				s[bit/64] = math.Float64frombits(math.Float64bits(s[bit/64]) ^ 1<<(bit%64))
				break
			}
			bit -= 64 * len(s)
		}
		flipped := *req
		flipped.Alpha, flipped.X, flipped.Y = slabs[0], slabs[1], slabs[2]
		if keyOf(&flipped) == key {
			t.Fatalf("flipping operand bit %d did not change the cache key", flip%uint32(bits))
		}
	})
}
