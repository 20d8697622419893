package daemon

import "sync/atomic"

// Counters are the per-instance counters both daemons keep. Each daemon
// embeds them in its own Stats next to its specific counters, so a field
// such as Stats().ProtocolErrors resolves on either.
type Counters struct {
	Requests       atomic.Int64 // frames accepted off the wire
	Responses      atomic.Int64 // frames written back
	Overloads      atomic.Int64 // requests answered StatusOverloaded
	DeadlineMisses atomic.Int64 // requests answered StatusDeadlineExceeded
	ProtocolErrors atomic.Int64 // malformed frames / bad requests
	ChecksumErrors atomic.Int64 // frames rejected on CRC32C mismatch
	IdleTimeouts   atomic.Int64 // connections closed for idling/stalling
	ActiveConns    atomic.Int64 // connections currently open
	ReduceChunks   atomic.Int64 // reduction chunks folded or forwarded
	Reductions     atomic.Int64 // reduction streams completed (result returned)
}

// CounterSnapshot is a plain-struct copy of Counters for JSON reporting.
type CounterSnapshot struct {
	Requests       int64 `json:"requests"`
	Responses      int64 `json:"responses"`
	Overloads      int64 `json:"overloads"`
	DeadlineMisses int64 `json:"deadline_misses"`
	ProtocolErrors int64 `json:"protocol_errors"`
	ChecksumErrors int64 `json:"checksum_errors"`
	IdleTimeouts   int64 `json:"idle_timeouts"`
	ActiveConns    int64 `json:"active_conns"`
	ReduceChunks   int64 `json:"reduce_chunks"`
	Reductions     int64 `json:"reductions"`
}

// Snapshot returns a consistent-enough point-in-time copy.
func (c *Counters) Snapshot() CounterSnapshot {
	return CounterSnapshot{
		Requests:       c.Requests.Load(),
		Responses:      c.Responses.Load(),
		Overloads:      c.Overloads.Load(),
		DeadlineMisses: c.DeadlineMisses.Load(),
		ProtocolErrors: c.ProtocolErrors.Load(),
		ChecksumErrors: c.ChecksumErrors.Load(),
		IdleTimeouts:   c.IdleTimeouts.Load(),
		ActiveConns:    c.ActiveConns.Load(),
		ReduceChunks:   c.ReduceChunks.Load(),
		Reductions:     c.Reductions.Load(),
	}
}
