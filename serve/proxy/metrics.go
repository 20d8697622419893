package proxy

import (
	"sync/atomic"

	"multifloats/serve/internal/daemon"
)

// Stats are per-Proxy atomic counters: the ones every daemon keeps
// (Requests, Responses, Overloads, DeadlineMisses, ProtocolErrors,
// ChecksumErrors, IdleTimeouts, ActiveConns, ReduceChunks, Reductions —
// see serve/internal/daemon) plus the cluster tier's own. cmd/mfproxy
// publishes the Snapshot at /debug/vars as the "mfproxy" object.
type Stats struct {
	counters
	CacheHits   atomic.Int64 // responses served from the result cache
	CacheMisses atomic.Int64 // cacheable requests that went upstream
	CacheBytes  atomic.Int64 // current cache footprint
	Failovers   atomic.Int64 // attempts re-routed to another backend
	Ejections   atomic.Int64 // backends ejected for consecutive failures
	Reinstates  atomic.Int64 // ejected backends restored by a probe
	LoopRejects atomic.Int64 // requests rejected at the proxy-hop limit
	Reshards    atomic.Int64 // reduction shard streams replayed on failover
}

// Snapshot is a plain-struct copy for JSON reporting; the shared
// counters' fields are promoted, so snap.Requests resolves.
type Snapshot struct {
	counterSnapshot
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	CacheBytes  int64 `json:"cache_bytes"`
	Failovers   int64 `json:"failovers"`
	Ejections   int64 `json:"ejections"`
	Reinstates  int64 `json:"reinstates"`
	LoopRejects int64 `json:"loop_rejects"`
	Reshards    int64 `json:"reshards"`
}

// The shared counter types under unexported names, so embedding them
// promotes their fields without adding an exported field.
type (
	counters        = daemon.Counters
	counterSnapshot = daemon.CounterSnapshot
)

// Snapshot returns a consistent-enough point-in-time copy.
func (s *Stats) Snapshot() Snapshot {
	return Snapshot{
		counterSnapshot: s.counters.Snapshot(),
		CacheHits:       s.CacheHits.Load(),
		CacheMisses:     s.CacheMisses.Load(),
		CacheBytes:      s.CacheBytes.Load(),
		Failovers:       s.Failovers.Load(),
		Ejections:       s.Ejections.Load(),
		Reinstates:      s.Reinstates.Load(),
		LoopRejects:     s.LoopRejects.Load(),
		Reshards:        s.Reshards.Load(),
	}
}
