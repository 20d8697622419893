package server

import (
	"sync/atomic"

	"multifloats/serve/internal/daemon"
)

// Stats are per-Server atomic counters: the ones every daemon keeps
// (Requests, Responses, Overloads, DeadlineMisses, ProtocolErrors,
// ChecksumErrors, IdleTimeouts, ActiveConns, ReduceChunks, Reductions —
// see serve/internal/daemon) plus the batching lanes' own. cmd/mfserved
// publishes the Snapshot at /debug/vars as the "mfserve" object.
type Stats struct {
	counters
	Batches      atomic.Int64 // slab executions (scalar lanes)
	BatchedReqs  atomic.Int64 // requests carried by those batches
	BatchedElems atomic.Int64 // expansion elements carried by those batches
	QueueDepth   atomic.Int64 // scalar requests currently enqueued
}

// Snapshot is a plain-struct copy for JSON reporting; the shared
// counters' fields are promoted, so snap.Requests resolves.
type Snapshot struct {
	counterSnapshot
	Batches      int64 `json:"batches"`
	BatchedReqs  int64 `json:"batched_requests"`
	BatchedElems int64 `json:"batched_elements"`
	QueueDepth   int64 `json:"queue_depth"`
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
		Batches:         s.Batches.Load(),
		BatchedReqs:     s.BatchedReqs.Load(),
		BatchedElems:    s.BatchedElems.Load(),
		QueueDepth:      s.QueueDepth.Load(),
	}
}
