package proxy

import (
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"multifloats/serve/client"
)

// Routing: consistent hashing with bounded loads over health-scored
// backends.
//
// Every single-frame request hashes to a point on a virtual-node ring
// (the hash is the same canonical operand-bit digest the cache keys on,
// so identical requests land on the same backend and its kernel-local
// caches stay warm). The ring walk skips unhealthy backends and
// enforces the bounded-load rule of consistent-hashing-with-bounded-
// loads: a backend is skipped while its in-flight count exceeds
// LoadFactor × the fleet average, which caps how hot one shard of a
// skewed key distribution can run.
//
// Health is scored per backend: FailThreshold consecutive retryable
// failures eject it for ProbeAfter plus seeded jitter (so a fleet of
// proxies doesn't re-probe in lockstep); after the cooldown the backend
// is half-open — exactly one probe request is let through at a time —
// and the first success reinstates it. Non-retryable outcomes
// (bad-request, deadline) say nothing about backend health and reset
// the consecutive-failure score.

// maxBackends caps the fleet so the ring walk can track visited
// backends in one register-width bitmask on the routing hot path.
const maxBackends = 64

// ringVnodes is the virtual-node multiplicity per backend: enough to
// spread adjacent key ranges across the fleet within a few percent.
const ringVnodes = 128

type backend struct {
	addr string
	cli  *client.Client

	inflight     atomic.Int64
	consecFails  atomic.Int64
	ejectedUntil atomic.Int64 // unix nanos; 0 = never ejected
	probing      atomic.Int32 // 1 while the single half-open probe is out
}

// Backend states returned by state().
const (
	stateUnhealthy = 0 // ejected and cooling down (or probe slot taken)
	stateHealthy   = 1
	stateProbe     = 2 // half-open: this caller won the probe slot and must use it
)

// state classifies the backend for one pick. Winning the probe slot
// commits the caller to routing to this backend (release clears the
// slot), so a stateProbe return must be taken.
//
//mf:hotpath
func (b *backend) state(now int64) int32 {
	eu := b.ejectedUntil.Load()
	if eu == 0 {
		return stateHealthy
	}
	if now < eu {
		return stateUnhealthy
	}
	if b.probing.CompareAndSwap(0, 1) {
		return stateProbe
	}
	return stateUnhealthy
}

type ringPoint struct {
	hash uint64
	idx  int32
}

type router struct {
	backends []*backend
	points   []ringPoint
	totalIn  atomic.Int64 // in-flight across the fleet, for the load bound
	loadNum  int64        // LoadFactor as a rational loadNum/loadDen
	loadDen  int64

	failThreshold int64
	probeAfter    time.Duration

	jmu  sync.Mutex
	jrng *rand.Rand

	stats *Stats
}

func newRouter(backends []*backend, loadFactor float64, failThreshold int, probeAfter time.Duration, seed int64, stats *Stats) *router {
	r := &router{
		backends:      backends,
		loadNum:       int64(loadFactor * 1024),
		loadDen:       1024,
		failThreshold: int64(failThreshold),
		probeAfter:    probeAfter,
		jrng:          rand.New(rand.NewSource(seed)),
		stats:         stats,
	}
	r.points = make([]ringPoint, 0, len(backends)*ringVnodes)
	for i, b := range backends {
		for v := 0; v < ringVnodes; v++ {
			var buf []byte
			buf = append(buf, b.addr...)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
			h := sha256.Sum256(buf)
			r.points = append(r.points, ringPoint{
				hash: binary.LittleEndian.Uint64(h[:8]),
				idx:  int32(i),
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

// pick walks the ring from h and returns the index of the chosen
// backend, or -1 if every backend is ejected. tried is a bitmask of
// backends to skip (failover re-picks). The first healthy,
// under-the-load-bound backend clockwise wins; a probe slot won along
// the way is always taken; if every healthy backend is over the bound,
// the least-loaded healthy one is used (shedding is the caller's call,
// not the router's).
//
//mf:hotpath
func (r *router) pick(h uint64, now int64, tried uint64) int32 {
	pts := r.points
	lo, hi := 0, len(pts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if pts[mid].hash < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	total := r.totalIn.Load()
	n := int64(len(r.backends))
	visited := tried
	fallback := int32(-1)
	var fallbackLoad int64
	for k := 0; k < len(pts); k++ {
		p := pts[(lo+k)%len(pts)]
		bit := uint64(1) << uint(p.idx)
		if visited&bit != 0 {
			continue
		}
		visited |= bit
		b := r.backends[p.idx]
		st := b.state(now)
		if st == stateUnhealthy {
			continue
		}
		if st == stateProbe {
			return p.idx
		}
		load := b.inflight.Load()
		// Bounded load: admit while (load+1) ≤ factor × (total+n)/n.
		if (load+1)*r.loadDen*n <= r.loadNum*(total+n) {
			return p.idx
		}
		if fallback < 0 || load < fallbackLoad {
			fallback, fallbackLoad = p.idx, load
		}
	}
	return fallback
}

// acquire picks a backend for key hash h, excluding the tried set, and
// charges it one in-flight request. Returns nil when no backend is
// available (all ejected or excluded).
func (r *router) acquire(h uint64, tried uint64) *backend {
	i := r.pick(h, time.Now().UnixNano(), tried)
	if i < 0 {
		return nil
	}
	b := r.backends[i]
	b.inflight.Add(1)
	r.totalIn.Add(1)
	return b
}

// release returns the in-flight charge and scores the outcome. Only
// retryable failures (client.IsRetryable) count against health: they
// mean the backend never definitively served the request. Anything
// else — success, bad-request, deadline — proves the backend alive.
func (r *router) release(b *backend, err error) {
	b.inflight.Add(-1)
	r.totalIn.Add(-1)
	if err != nil && client.IsRetryable(err) {
		if n := b.consecFails.Add(1); n >= r.failThreshold {
			r.jmu.Lock()
			jitter := time.Duration(r.jrng.Int63n(int64(r.probeAfter)/2 + 1))
			r.jmu.Unlock()
			b.ejectedUntil.Store(time.Now().Add(r.probeAfter + jitter).UnixNano())
			r.stats.Ejections.Add(1)
		}
		b.probing.Store(0)
		return
	}
	// Success or a definitive answer: clear the score, and if this was
	// an ejected backend's probe, reinstate it.
	b.consecFails.Store(0)
	if b.ejectedUntil.Swap(0) != 0 {
		r.stats.Reinstates.Add(1)
	}
	b.probing.Store(0)
}

// index returns the position of b in the backend list (for bitmasks).
func (r *router) index(b *backend) int {
	for i, x := range r.backends {
		if x == b {
			return i
		}
	}
	return -1
}
