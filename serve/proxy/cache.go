package proxy

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sync"

	"multifloats/serve/wire"
)

// Content-addressed result cache.
//
// Every op in this system is bit-deterministic: the same operand bit
// patterns produce the same result bit patterns, always (the paper's
// branch-free kernels; the exact superaccumulator for reductions). So
// a response cached under the canonical digest of a request's operand
// bits is not "probably fresh" — it is *the* answer, exactly, and a
// cache hit can never serve a stale or approximate result. The one
// caveat is fleet homogeneity for parallel BLAS kernels, whose
// reduction trees depend on the worker count: replicas must run equal
// Workers for their BLAS answers to be interchangeable (DESIGN.md
// §3.4); scalar ops and exact reductions are bit-identical at any
// worker count.
//
// The key is sha256 over (op, width, count, m, alpha bits, x bits,
// y bits) — raw IEEE-754 Float64bits, so bit-distinct NaN payloads,
// -0 vs +0, and subnormals all key distinctly, exactly as the wire
// encodes them. Request ID, deadline, and hop count are volatile
// routing metadata and are excluded. Keys are computed only from
// frames that already passed CRC32C verification on ingress: a
// corrupted frame is torn down before it can ever mint a key.

// keyFixed is the canonical key prefix: op, width, count, m — each as
// a little-endian u32 (wider than the wire's bytes so no field can
// alias another's range).
const keyFixed = 16

var keyBufPool = sync.Pool{New: func() any { return new([]byte) }}

// fillKey writes the canonical key material for req into buf, which
// the caller sized to exactly keyFixed+8·(len α+x+y). Raw bit patterns
// only — no float formatting, no canonicalization — so every
// bit-distinct operand yields distinct material.
//
//mf:hotpath
func fillKey(buf []byte, req *wire.Request) {
	binary.LittleEndian.PutUint32(buf[0:], uint32(req.Op))
	binary.LittleEndian.PutUint32(buf[4:], uint32(req.Width))
	binary.LittleEndian.PutUint32(buf[8:], uint32(req.Count))
	binary.LittleEndian.PutUint32(buf[12:], uint32(req.M))
	o := keyFixed
	for _, f := range req.Alpha {
		binary.LittleEndian.PutUint64(buf[o:], math.Float64bits(f))
		o += 8
	}
	for _, f := range req.X {
		binary.LittleEndian.PutUint64(buf[o:], math.Float64bits(f))
		o += 8
	}
	for _, f := range req.Y {
		binary.LittleEndian.PutUint64(buf[o:], math.Float64bits(f))
		o += 8
	}
}

// cacheKey returns the canonical content digest of req. The scratch
// buffer is pooled; the digest is a value, so nothing escapes.
func cacheKey(req *wire.Request) [sha256.Size]byte {
	n := keyFixed + 8*(len(req.Alpha)+len(req.X)+len(req.Y))
	bp := keyBufPool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	b := (*bp)[:n]
	fillKey(b, req)
	sum := sha256.Sum256(b)
	keyBufPool.Put(bp)
	return sum
}

// ringHash derives the consistent-hash point from the same digest, so
// routing and caching agree on request identity.
func ringHash(key *[sha256.Size]byte) uint64 {
	return binary.LittleEndian.Uint64(key[:8])
}

// resultCache is a byte-bounded LRU over response slabs. Values are
// stored and returned by reference: a cached slab is immutable by
// convention (it is only ever encoded onto the wire).
type resultCache struct {
	mu    sync.Mutex
	max   int64
	bytes int64
	ll    *list.List // front = most recent; values are *cacheEntry
	m     map[[sha256.Size]byte]*list.Element
	stats *Stats
}

type cacheEntry struct {
	key  [sha256.Size]byte
	data []float64
}

// entryCost approximates an entry's footprint: slab bytes plus map,
// list, and header overhead.
func entryCost(data []float64) int64 { return int64(len(data)*8) + 128 }

func newResultCache(maxBytes int64, stats *Stats) *resultCache {
	if maxBytes <= 0 {
		return nil
	}
	return &resultCache{
		max:   maxBytes,
		ll:    list.New(),
		m:     make(map[[sha256.Size]byte]*list.Element),
		stats: stats,
	}
}

func (c *resultCache) get(key [sha256.Size]byte) ([]float64, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).data, true
}

func (c *resultCache) put(key [sha256.Size]byte, data []float64) {
	if c == nil {
		return
	}
	cost := entryCost(data)
	if cost > c.max {
		return // larger than the whole budget; never cacheable
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		// Determinism makes a same-key value collision impossible unless a
		// backend is broken; keep the existing entry (first write wins).
		c.ll.MoveToFront(el)
		return
	}
	c.m[key] = c.ll.PushFront(&cacheEntry{key: key, data: data})
	c.bytes += cost
	c.stats.CacheBytes.Add(cost)
	for c.bytes > c.max {
		el := c.ll.Back()
		if el == nil {
			break
		}
		ent := c.ll.Remove(el).(*cacheEntry)
		delete(c.m, ent.key)
		freed := entryCost(ent.data)
		c.bytes -= freed
		c.stats.CacheBytes.Add(-freed)
	}
}
