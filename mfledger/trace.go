package main

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math"
	"strings"
	"time"

	"multifloats/internal/blas"
	"multifloats/internal/exact"
	"multifloats/serve/server"
	"multifloats/serve/wire"
)

// The traced run. It measures the workload end to end (untraced, then
// with a span kept per request, for trace.overhead), then the same
// inputs at every boundary of the stack, bottom-up:
//
//	L0 kernels   mf, blas lanes and BLAS kernels, exact, timed alone
//	L1 wire      request and response frames through memory buffers
//	L2 server    the saturated loop against an in-memory listener
//	L3 TCP       the saturated loop against a loopback server
//	L4 proxy     the saturated loop through mfproxy to two backends
//
// and prints one row per boundary: CPU µs per request and the increment
// over the boundary below it.

// Shares of --seconds given to each traced measurement.
const (
	satShare     = 0.12 // each saturated phase (four of them)
	latShare     = 0.05 // each one-caller phase (three of them)
	kernelShare  = 0.25 // all kernel-layer timings together
	wireShare    = 0.04 // the wire-layer timings
	kernelTimers = 66   // kernel-layer metrics sharing kernelShare
)

func (r *runner) traced() error {
	in, st, tgt, err := r.setup(true)
	if err != nil {
		return err
	}
	defer st.close()
	share := func(f float64) time.Duration { return time.Duration(f * float64(r.opts.seconds)) }
	saturate := func(name string, id int, t target, spans bool) *phaseOut {
		return r.phase(name, t, in, phaseSpec{curs: in.cursors(r.opts.seed, id, r.conns), depth: r.depth,
			dur: share(satShare), spans: spans})
	}
	oneCaller := func(name string, id int, t target, viaClient bool) *phaseOut {
		return r.phase(name, t, in, phaseSpec{curs: in.cursors(r.opts.seed, id, 1), depth: 1,
			dur: share(latShare), rtt: true, viaClient: viaClient})
	}
	relay := r.opts.workload == "proxy-relay"

	// End to end, untraced and traced. For proxy-relay the target is the
	// proxy, so its counters are read around the untraced phase.
	px0 := st.proxyCounts()
	plain := saturate("untraced", 1, tgt, false)
	px1 := st.proxyCounts()
	spanned := saturate("traced", 2, tgt, true)
	r.set("trace.overhead", spanned.rps()/plain.rps(), "ratio")

	// L2: the server without TCP.
	s0 := st.pipe.Stats().Snapshot()
	pipe := saturate("in-memory", 3, st.inMemory(), false)
	r.serverStats(s0, st.pipe.Stats().Snapshot())
	r.set("server.pipe_us_per_req", pipe.usPerReq(), "us")

	// L3 and L4: direct over loopback TCP, and through the proxy.
	direct, proxied := plain, plain
	if relay {
		direct = saturate("direct", 4, st.direct(), false)
	} else {
		px0 = st.proxyCounts()
		proxied = saturate("proxied", 4, st.viaProxy(), false)
		px1 = st.proxyCounts()
	}
	r.set("tcp.us_per_req", direct.usPerReq()-pipe.usPerReq(), "us")
	r.proxyStats(px0, px1)
	r.set("proxy.hop_us_per_req", proxied.usPerReq()-direct.usPerReq(), "us")

	// One synchronous caller: with and without the batch window, and
	// through serve/client.
	window := oneCaller("synchronous", 5, st.direct(), false)
	nowindow := oneCaller("synchronous, no batch window", 6, tcpTarget("server", st.nowindow.Addr().String()), false)
	cli := oneCaller("serve/client", 7, st.direct(), true)
	p50, p50off := us(quantile(window.rtts, 0.5)), us(quantile(nowindow.rtts, 0.5))
	r.set("server.window_share", (p50-p50off)/p50, "ratio")
	r.set("client.rtt_p50_us", us(quantile(cli.rtts, 0.5)), "us")

	// L0 and L1, on the workload's own operand bands.
	slab := int(math.Round(r.metrics["server.elems_per_batch"].Value))
	if slab < 1 {
		slab = 256 // no lane batches: a full batch of single-element requests
	}
	r.kernelLayers(in, slab, share(kernelShare)/(3*kernelTimers))
	sample := sampleItems(in, r.opts.seed)
	r.wireLayer(sample, share(wireShare)/9)

	r.attribution(sample, []*phaseOut{pipe, direct, proxied}, spanned, p50, p50off)
	return st.close()
}

// serverStats reports the server's counters over one phase.
func (r *runner) serverStats(a, b server.Snapshot) {
	batches := float64(b.Batches - a.Batches)
	ratio := func(x int64) float64 {
		if batches == 0 {
			return 0
		}
		return float64(x) / batches
	}
	r.set("server.batch_occupancy", ratio(b.BatchedReqs-a.BatchedReqs), "reqs")
	r.set("server.elems_per_batch", ratio(b.BatchedElems-a.BatchedElems), "elems")
	r.set("server.overloads", float64(b.Overloads-a.Overloads), "count")
	r.set("server.deadline_misses", float64(b.DeadlineMisses-a.DeadlineMisses), "count")
	r.set("server.protocol_errors", float64(b.ProtocolErrors-a.ProtocolErrors), "count")
}

// proxyCounts are the proxy's counters plus the frames its backends saw.
type proxyCounts struct {
	requests, hits, misses, failovers, overloads, upstream int64
}

func (st *stack) proxyCounts() proxyCounts {
	s := st.proxy.Stats().Snapshot()
	c := proxyCounts{s.Requests, s.CacheHits, s.CacheMisses, s.Failovers, s.Overloads, 0}
	for _, b := range st.backends {
		c.upstream += b.Stats().Snapshot().Requests
	}
	return c
}

func (r *runner) proxyStats(a, b proxyCounts) {
	hits, looked := b.hits-a.hits, (b.hits-a.hits)+(b.misses-a.misses)
	r.set("proxy.cache_hit_ratio", float64(hits)/float64(max(looked, 1)), "ratio")
	r.set("proxy.upstream_per_req", float64(b.upstream-a.upstream)/float64(max(b.requests-a.requests, 1)), "ratio")
	r.set("proxy.failovers", float64(b.failovers-a.failovers), "count")
	r.set("proxy.overloads", float64(b.overloads-a.overloads), "count")
}

// nsPer times f, which does units of work, in three rounds of at least d
// each and returns the median round's nanoseconds per unit.
func nsPer(units int, d time.Duration, f func()) float64 {
	rounds := make([]float64, 3)
	for i := range rounds {
		start := time.Now()
		n := 0
		for n == 0 || time.Since(start) < d {
			f()
			n++
		}
		rounds[i] = float64(time.Since(start).Nanoseconds()) / float64(n*units)
	}
	return median(rounds)
}

// Kernel-layer input sizes: elements per mf timing loop, and per exact
// reduction: one streamed chunk, the slab the server folds at a time
// (and, freshly decoded, finds in cache).
const (
	mfLoopElems    = 1024
	exactLoopElems = reduceChunk
)

var laneOps = map[wire.Op]blas.LaneOp{
	wire.OpAdd: blas.LaneOpAdd, wire.OpSub: blas.LaneOpSub, wire.OpMul: blas.LaneOpMul,
	wire.OpDiv: blas.LaneOpDiv, wire.OpSqrt: blas.LaneOpSqrt,
}

// kernelLayers times L0: the mf ops single-threaded, the generated lane
// kernels on slabs of the observed batch size, the parallel BLAS kernels
// at the server's worker count, blas.Parallel's dispatch cost, and the
// exact accumulator's deposits. d is the length of one timing round.
func (r *runner) kernelLayers(in *inputs, slab int, d time.Duration) {
	g := newGen(r.opts.seed, in.name+"/layers")
	for _, op := range append(append([]wire.Op{}, scalarOps...), mathOps...) {
		n := mfLoopElems
		if op.Math() {
			n = mathCount
		}
		for _, w := range widths {
			it := g.elementwise(op, w, n)
			var ns float64
			switch w {
			case 2:
				ns = mfNs(op, wire.Unpack2(it.x), wire.Unpack2(it.y), d)
			case 3:
				ns = mfNs(op, wire.Unpack3(it.x), wire.Unpack3(it.y), d)
			default:
				ns = mfNs(op, wire.Unpack4(it.x), wire.Unpack4(it.y), d)
			}
			r.set(fmt.Sprintf("mf.%s%d.ns_per_elem", op, w), ns, "ns")
		}
	}
	for _, op := range scalarOps {
		for _, w := range widths {
			it := g.elementwise(op, w, slab)
			var x, y, z blas.SoA
			for j := 0; j < w; j++ {
				x[j], y[j], z[j] = make([]float64, slab), make([]float64, slab), make([]float64, slab)
				for i := 0; i < slab; i++ {
					x[j][i] = it.x[i*w+j]
					if it.y != nil {
						y[j][i] = it.y[i*w+j]
					}
				}
			}
			kern := blas.LaneKernel(laneOps[op], w)
			r.set(fmt.Sprintf("blas.lane.%s%d.ns_per_elem", op, w),
				nsPer(slab, d, func() { kern(&x, &y, &z, 0, slab) }), "ns")
		}
	}
	for _, w := range widths {
		for _, it := range g.blasItems(w) {
			run, _ := blasCall(it, r.workers)
			r.set(fmt.Sprintf("blas.%s%d.gops", it.op, w), blasOps(it)/nsPer(1, d, run), "GOPS")
		}
	}
	r.set("blas.parallel_ns", nsPer(1, d, func() { blas.Parallel(slab, r.workers, func(lo, hi int) {}) }), "ns")

	var acc exact.Accumulator
	for _, it := range g.reduceItems(exactLoopElems) {
		fold := func() { acc.Reset(); acc.AddValues(it.x) }
		if it.op == wire.OpDotExact {
			fold = func() { acc.Reset(); acc.AddDotSlab(it.width, it.x, it.y) }
		}
		r.set(fmt.Sprintf("exact.%s%d.ns_per_elem", exactName(it.op), it.width), nsPer(it.count, d, fold), "ns")
	}
}

func exactName(op wire.Op) string { return strings.TrimSuffix(op.String(), "exact") }

// mfNs is one mf op's single-threaded cost per element.
func mfNs[E mfElem[E]](op wire.Op, x, y []E, d time.Duration) float64 {
	f := mfFunc[E](op)
	if len(y) == 0 {
		y = make([]E, len(x))
	}
	z := make([]E, len(x))
	return nsPer(len(x), d, func() {
		for i := range x {
			z[i] = f(x[i], y[i])
		}
	})
}

// sampleItems is a bounded sample of the workload's requests in the
// order the load generator sends them: at most 1024 requests or 32 MiB
// of operands.
func sampleItems(in *inputs, seed int64) []*item {
	cur := in.cursors(seed, 99, 1)[0]
	n := len(in.items)
	if in.fresh != nil {
		n = 1024
	}
	var out []*item
	size := 0
	for len(out) < min(n, 1024) && size < 32<<20 {
		it := cur.take()
		out = append(out, it)
		size += 8 * (len(it.x) + len(it.y) + len(it.want))
	}
	return out
}

// wireLayer times L1 on the sample: encoding and decoding every request
// and response frame through memory buffers, and CRC32C over the bytes
// one round trip checksums (each frame sealed by its sender and verified
// by its receiver).
func (r *runner) wireLayer(sample []*item, d time.Duration) {
	var reqBuf, respBuf bytes.Buffer
	var reqs []*wire.Request
	var resps []*wire.Response
	for _, it := range sample {
		q, p := it.frames()
		reqs, resps = append(reqs, q...), append(resps, p...)
	}
	var frames [][]byte
	for _, q := range reqs {
		reqBuf.Reset()
		wire.WriteRequest(&reqBuf, q)
		frames = append(frames, bytes.Clone(reqBuf.Bytes()))
	}
	for _, p := range resps {
		respBuf.Reset()
		wire.WriteResponse(&respBuf, p)
		frames = append(frames, bytes.Clone(respBuf.Bytes()))
	}
	total := 0
	for _, f := range frames {
		total += len(f)
	}
	n := len(sample)
	r.set("wire.bytes_per_req", float64(total)/float64(n), "bytes")
	r.set("wire.req_ns", nsPer(n, d, func() {
		for _, q := range reqs {
			reqBuf.Reset()
			wire.WriteRequest(&reqBuf, q)
			wire.ReadRequest(&reqBuf)
		}
	}), "ns")
	r.set("wire.resp_ns", nsPer(n, d, func() {
		for _, p := range resps {
			respBuf.Reset()
			wire.WriteResponse(&respBuf, p)
			wire.ReadResponse(&respBuf)
		}
	}), "ns")
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	r.set("wire.crc_ns_per_req", nsPer(n, d, func() {
		for _, f := range frames {
			sealed := f[:len(f)-wire.TrailerSize]
			crc32.Checksum(sealed, castagnoli)
			crc32.Checksum(sealed, castagnoli)
		}
	}), "ns")
}

// kernelNs is an item's kernel cost from the measured L0 metrics: the
// generated lanes for arithmetic (what the server runs), mf for math,
// the BLAS GOPS, and the exact deposits.
func (r *runner) kernelNs(it *item) float64 {
	m := func(name string) float64 { return r.metrics[name].Value }
	n := float64(it.count)
	switch it.class() {
	case "lanes":
		return n * m(fmt.Sprintf("blas.lane.%s%d.ns_per_elem", it.op, it.width))
	case "math":
		return n * m(fmt.Sprintf("mf.%s%d.ns_per_elem", it.op, it.width))
	case "exact":
		return n * m(fmt.Sprintf("exact.%s%d.ns_per_elem", exactName(it.op), it.width))
	}
	return blasOps(it) / m(fmt.Sprintf("blas.%s%d.gops", it.op, it.width))
}

// attribution prints the per-request table: CPU µs at each boundary and
// its increment over the one below. L0 and L1 are single-threaded costs
// of the server's share of the work; L2–L4 are the whole process's CPU
// (load generator included) per completed request at saturation.
func (r *runner) attribution(sample []*item, served []*phaseOut, spanned *phaseOut, p50, p50off float64) {
	w := r.out
	var kernel float64
	byClass := map[string]float64{}
	for _, it := range sample {
		ns := r.kernelNs(it)
		kernel += ns
		byClass[it.class()] += ns
	}
	kernelUS := kernel / float64(len(sample)) / 1e3
	m := func(name string) float64 { return r.metrics[name].Value }
	wireUS := kernelUS + (m("wire.req_ns")+m("wire.resp_ns"))/1e3
	rows := []struct {
		name     string
		cpu, wal float64
	}{
		{"L0 kernels (lanes, mf, blas, exact)", kernelUS, math.NaN()},
		{"L1 wire codec incl. CRC32C", wireUS, math.NaN()},
		{"L2 server, in-memory listener", served[0].cpuUSPerReq(), served[0].usPerReq()},
		{"L3 server, loopback TCP", served[1].cpuUSPerReq(), served[1].usPerReq()},
		{"L4 mfproxy → 2 backends", served[2].cpuUSPerReq(), served[2].usPerReq()},
	}
	fmt.Fprintf(w, "attribution %s seed %d (%d conns × depth %d, GOMAXPROCS %d)\n",
		r.opts.workload, r.opts.seed, r.conns, r.depth, r.workers)
	fmt.Fprintf(w, "  %-38s %12s %12s %14s\n", "boundary", "cpu µs/req", "+Δ cpu", "wall µs/req")
	prev := 0.0
	for _, row := range rows {
		wall := "—"
		if !math.IsNaN(row.wal) {
			wall = fmt.Sprintf("%.3f", row.wal)
		}
		fmt.Fprintf(w, "  %-38s %12.3f %12.3f %14s\n", row.name, row.cpu, row.cpu-prev, wall)
		prev = row.cpu
	}
	fmt.Fprintf(w, "  kernel share:")
	for _, c := range []string{"lanes", "math", "blas", "exact"} {
		if byClass[c] > 0 {
			fmt.Fprintf(w, " %s %.0f%%", c, 100*byClass[c]/kernel)
		}
	}
	fmt.Fprintln(w)
	wireNs := m("wire.req_ns") + m("wire.resp_ns")
	fmt.Fprintf(w, "  CRC32C: %.0f ns/req of %.0f ns/req wire codec (%.0f%%), %.0f bytes/req\n",
		m("wire.crc_ns_per_req"), wireNs, 100*m("wire.crc_ns_per_req")/wireNs, m("wire.bytes_per_req"))
	fmt.Fprintf(w, "  batch window: synchronous rtt p50 %.1f µs at %v, %.1f µs with coalescing off (%.0f%% of rtt_p50)\n",
		p50, serverConfig(r.workers).BatchWindow, p50off, 100*m("server.window_share"))
	fmt.Fprintf(w, "  server: %.1f reqs and %.1f elems per batch; client.Do rtt p50 %.1f µs\n",
		m("server.batch_occupancy"), m("server.elems_per_batch"), m("client.rtt_p50_us"))
	fmt.Fprintf(w, "  proxy: hop %+.3f µs/req wall, %.2f upstream frames per request, cache hit ratio %.2f\n",
		m("proxy.hop_us_per_req"), m("proxy.upstream_per_req"), m("proxy.cache_hit_ratio"))
	spans := make([]time.Duration, len(spanned.spans))
	for i, s := range spanned.spans {
		spans[i] = time.Duration(s.end - s.start)
	}
	fmt.Fprintf(w, "  trace: %d request spans, p50 %.1f µs at saturation; traced/untraced throughput %.3f\n",
		len(spans), us(quantile(spans, 0.5)), m("trace.overhead"))
	for _, name := range sortedKeys(r.metrics) {
		fmt.Fprintf(w, "%-34s %14.4f %s\n", name, r.metrics[name].Value, r.metrics[name].Unit)
	}
}
