package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"multifloats/internal/blas"
	"multifloats/internal/exact"
	"multifloats/mf"
	"multifloats/serve/wire"
)

// item is one request the benchmark sends, together with the result the
// server must return for it, bit for bit.
type item struct {
	op          wire.Op
	width       int
	count, m    int
	alpha, x, y []float64
	want        []float64
}

func (it *item) String() string { return fmt.Sprintf("%s%d×%d", it.op, it.width, it.count) }

// class groups items by the kernel family that computes them, for the
// kernel-share line of the traced run.
func (it *item) class() string {
	switch {
	case it.op.Reduction():
		return "exact"
	case it.op.Math():
		return "math"
	case it.op.Scalar():
		return "lanes"
	}
	return "blas"
}

// frame returns the single wire frame of a non-streamed item.
func (it *item) frame(id uint64) wire.Request {
	return wire.Request{ID: id, Op: it.op, Width: it.width, Count: it.count, M: it.m,
		Alpha: it.alpha, X: it.x, Y: it.y}
}

// reduceChunk is the element count of one streamed reduction chunk.
const reduceChunk = 8192

// frames returns every request frame of one item, and the responses the
// server answers them with: one frame for ordinary requests, the chunk
// stream (empty acknowledgements, then the result) for reductions.
func (it *item) frames() ([]*wire.Request, []*wire.Response) {
	if !it.op.Reduction() {
		f := it.frame(1)
		return []*wire.Request{&f}, []*wire.Response{{ID: 1, Data: it.want}}
	}
	var reqs []*wire.Request
	var resps []*wire.Response
	w := it.width
	for lo := 0; lo < it.count; lo += reduceChunk {
		hi := min(lo+reduceChunk, it.count)
		r := &wire.Request{ID: 1, Op: it.op, Width: w, Count: hi - lo, X: it.x[lo*w : hi*w]}
		if it.y != nil {
			r.Y = it.y[lo*w : hi*w]
		}
		resp := &wire.Response{ID: 1}
		if hi == it.count {
			r.M = wire.FlagReduceFinal
			resp.Data = it.want
		}
		reqs, resps = append(reqs, r), append(resps, resp)
	}
	return reqs, resps
}

// matches reports whether data is the expected result, bit for bit.
func (it *item) matches(data []float64) bool {
	if len(data) != len(it.want) {
		return false
	}
	for i, v := range data {
		if math.Float64bits(v) != math.Float64bits(it.want[i]) {
			return false
		}
	}
	return true
}

// gen is a seeded operand generator. Each workload draws from its own
// stream, derived from the run seed and a stream name, so adding a draw
// to one workload never shifts another's inputs.
type gen struct{ r *rand.Rand }

func newGen(seed int64, stream string) *gen {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, stream)
	return &gen{rand.New(rand.NewSource(int64(h.Sum64())))}
}

// fill writes one nonoverlapping expansion into dst: the lead is uniform
// in [lo, hi) (negated half the time when signed) and each further
// component is below half an ulp of the one before, with a random sign.
func (g *gen) fill(dst []float64, lo, hi float64, signed bool) {
	v := lo + (hi-lo)*g.r.Float64()
	if signed && g.r.Intn(2) == 0 {
		v = -v
	}
	for k := range dst {
		dst[k] = v
		v *= 0x1p-54 * (0.5 + g.r.Float64()/2)
		if g.r.Intn(2) == 0 {
			v = -v
		}
	}
}

// slab returns n width-w expansions drawn from the band.
func (g *gen) slab(n, w int, b band) []float64 {
	s := make([]float64, n*w)
	for i := 0; i < n; i++ {
		g.fill(s[i*w:(i+1)*w], b.lo, b.hi, b.signed)
	}
	return s
}

// band is an operand range for leading components.
type band struct {
	lo, hi float64
	signed bool
}

// operandBands returns the x and y bands for op. Every band keeps the op
// on its finite, in-domain path: positive operands for div and sqrt,
// positive log arguments, tan arguments at 1e18–1e20 so the Payne–Hanek
// reduction is priced in, and pow exponents that cannot overflow.
func operandBands(op wire.Op) (x, y band) {
	switch op {
	case wire.OpDiv, wire.OpSqrt:
		return band{0.5, 2, false}, band{0.5, 2, false}
	case wire.OpExp:
		return band{0, 5, true}, band{}
	case wire.OpLog:
		return band{1e-3, 1e3, false}, band{}
	case wire.OpSin:
		return band{1, 1e6, true}, band{}
	case wire.OpTan:
		return band{1e18, 1e20, false}, band{}
	case wire.OpPow:
		return band{0.5, 2, false}, band{0, 8, true}
	case wire.OpSumExact, wire.OpDotExact:
		return band{0, 1e3, true}, band{0, 1e3, true}
	}
	return band{0.5, 2, true}, band{0.5, 2, true}
}

// elementwise builds an elementwise request of count elements.
func (g *gen) elementwise(op wire.Op, w, count int) *item {
	bx, by := operandBands(op)
	it := &item{op: op, width: w, count: count, x: g.slab(count, w, bx)}
	if !op.Unary() {
		it.y = g.slab(count, w, by)
	}
	return it
}

// scalarOps are the arithmetic ops with generated lane kernels; mathOps
// the transcendental cross-section of the slab-kernels workload.
var (
	scalarOps = []wire.Op{wire.OpAdd, wire.OpSub, wire.OpMul, wire.OpDiv, wire.OpSqrt}
	mathOps   = []wire.Op{wire.OpExp, wire.OpLog, wire.OpSin, wire.OpTan, wire.OpPow}
	widths    = []int{2, 3, 4}
)

// scalarShapes is the number of (arithmetic op, width) pairs.
const scalarShapes = 5 * 3

// scalarItem is one single-element request of the scalar-small shape:
// arithmetic op k%5 at width 2+k/5%3, so a pool cycles every (op, width)
// pair equally whatever the seed, and the seed only draws operands.
func (g *gen) scalarItem(k, workers int) *item {
	it := g.elementwise(scalarOps[k%len(scalarOps)], widths[k/len(scalarOps)%len(widths)], 1)
	it.want = reference(it, workers)
	return it
}

// Slab-kernels shapes. Lane slabs are the size a full batch of
// count-16 requests would assemble; the BLAS sizes are those of the
// Fig 9 tables (internal/tables.DefaultSizes), except GEMM, which is
// halved so one request stays near ten milliseconds. The repeat counts
// weight the cycle so that lanes, BLAS and math each take a comparable
// share of kernel time (the traced run prints the shares).
const (
	laneCount  = 4096
	laneRepeat = 10
	mathCount  = 128
	blasVecN   = 1 << 14
	blasGemvN  = 192
	blasGemmN  = 36
	blasRepeat = 2
)

// inputs are one workload's generated requests.
type inputs struct {
	name  string
	items []*item // the cycled request pool (proxy-relay: the hot set)
	// fresh, when set, makes a new unique request; hotShare of the
	// requests come from items instead.
	fresh    func(g *gen) *item
	hotShare float64
	// stream marks reductions, sent through serve/client's ReduceStream.
	stream bool
}

var workloadNames = []string{"scalar-small", "slab-kernels", "reduce-stream", "proxy-relay"}

// buildInputs generates a workload's requests and their references from
// the seed. workers is the server's kernel parallelism, which the
// parallel BLAS references must share to be bit-identical.
func buildInputs(name string, seed int64, workers int) (*inputs, error) {
	g := newGen(seed, name)
	in := &inputs{name: name}
	switch name {
	case "scalar-small":
		for k := 0; k < 273*scalarShapes; k++ {
			in.items = append(in.items, g.scalarItem(k, workers))
		}
	case "slab-kernels":
		for _, w := range widths {
			for r := 0; r < laneRepeat; r++ {
				for _, op := range []wire.Op{wire.OpMul, wire.OpDiv, wire.OpSqrt} {
					in.items = append(in.items, g.elementwise(op, w, laneCount))
				}
			}
			for r := 0; r < blasRepeat; r++ {
				in.items = append(in.items, g.blasItems(w)...)
			}
			for _, op := range mathOps {
				in.items = append(in.items, g.elementwise(op, w, mathCount))
			}
		}
		// Interleave the families so every stretch of the cycle mixes them,
		// in an order that does not depend on the seed: the order decides
		// which heavy requests overlap, so it must not vary between runs.
		order := newGen(0, name+"/order").r
		order.Shuffle(len(in.items), func(i, j int) { in.items[i], in.items[j] = in.items[j], in.items[i] })
	case "reduce-stream":
		// Four lengths per shape, 5 to 11 chunks (65536 elements on
		// average), so stream costs form a spread of levels rather than
		// eight steps a percentile can fall between.
		for n := 5 * reduceChunk; n <= 11*reduceChunk; n += 2 * reduceChunk {
			in.items = append(in.items, g.reduceItems(n)...)
		}
		in.stream = true
	case "proxy-relay":
		// A small hot set that the proxy's result cache can serve, and a
		// stream of unique requests that it cannot.
		for k := 0; k < scalarShapes; k++ {
			in.items = append(in.items, g.scalarItem(k, workers))
		}
		in.fresh = func(g *gen) *item { return g.scalarItem(g.r.Intn(scalarShapes), workers) }
		in.hotShare = 0.25
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	for _, it := range in.items {
		if it.want == nil {
			it.want = reference(it, workers)
		}
	}
	return in, nil
}

// blasItems returns one dot, axpy, gemv and gemm request at width w.
func (g *gen) blasItems(w int) []*item {
	b := band{0.5, 2, true}
	alpha := make([]float64, w)
	g.fill(alpha, b.lo, b.hi, b.signed)
	return []*item{
		{op: wire.OpDot, width: w, count: blasVecN, x: g.slab(blasVecN, w, b), y: g.slab(blasVecN, w, b)},
		{op: wire.OpAxpy, width: w, count: blasVecN, alpha: alpha, x: g.slab(blasVecN, w, b), y: g.slab(blasVecN, w, b)},
		{op: wire.OpGemv, width: w, count: blasGemvN, m: blasGemvN, x: g.slab(blasGemvN*blasGemvN, w, b), y: g.slab(blasGemvN, w, b)},
		{op: wire.OpGemm, width: w, count: blasGemmN, x: g.slab(blasGemmN*blasGemmN, w, b), y: g.slab(blasGemmN*blasGemmN, w, b)},
	}
}

// reduceItems returns SumExact and DotExact vectors of n elements at
// widths 1–4.
func (g *gen) reduceItems(n int) []*item {
	var items []*item
	for _, op := range []wire.Op{wire.OpSumExact, wire.OpDotExact} {
		for w := 1; w <= 4; w++ {
			bx, by := operandBands(op)
			it := &item{op: op, width: w, count: n, x: g.slab(n, w, bx)}
			if op == wire.OpDotExact {
				it.y = g.slab(n, w, by)
			}
			items = append(items, it)
		}
	}
	return items
}

// mfElem is the mf method set the benchmark's elementwise ops use.
type mfElem[E any] interface {
	Add(E) E
	Sub(E) E
	Mul(E) E
	Div(E) E
	Sqrt() E
	Exp() E
	Log() E
	Sin() E
	Tan() E
	Pow(E) E
}

// mfFunc returns the mf call for an elementwise op (unary ops ignore b).
func mfFunc[E mfElem[E]](op wire.Op) func(a, b E) E {
	switch op {
	case wire.OpAdd:
		return func(a, b E) E { return a.Add(b) }
	case wire.OpSub:
		return func(a, b E) E { return a.Sub(b) }
	case wire.OpMul:
		return func(a, b E) E { return a.Mul(b) }
	case wire.OpDiv:
		return func(a, b E) E { return a.Div(b) }
	case wire.OpSqrt:
		return func(a, _ E) E { return a.Sqrt() }
	case wire.OpExp:
		return func(a, _ E) E { return a.Exp() }
	case wire.OpLog:
		return func(a, _ E) E { return a.Log() }
	case wire.OpSin:
		return func(a, _ E) E { return a.Sin() }
	case wire.OpTan:
		return func(a, _ E) E { return a.Tan() }
	case wire.OpPow:
		return func(a, b E) E { return a.Pow(b) }
	}
	panic(fmt.Sprintf("mfFunc: op %v is not in the benchmark's op set", op))
}

// mapElems applies f elementwise; a short (or nil) y reads as zeros.
func mapElems[E any](f func(a, b E) E, x, y []E) []E {
	z := make([]E, len(x))
	var zero E
	for i := range x {
		b := zero
		if i < len(y) {
			b = y[i]
		}
		z[i] = f(x[i], b)
	}
	return z
}

// reference computes an item's expected result locally, through the same
// public functions the server's executor calls: mf for elementwise ops
// (bit-identical to the generated lane kernels), the parallel BLAS
// kernels at the server's worker count, and internal/exact for the
// reductions.
func reference(it *item, workers int) []float64 {
	switch {
	case it.op.Reduction():
		return reduceRef(it)
	case it.op.Scalar():
		switch it.width {
		case 2:
			return wire.Pack2(mapElems(mfFunc[mf.Float64x2](it.op), wire.Unpack2(it.x), wire.Unpack2(it.y)))
		case 3:
			return wire.Pack3(mapElems(mfFunc[mf.Float64x3](it.op), wire.Unpack3(it.x), wire.Unpack3(it.y)))
		default:
			return wire.Pack4(mapElems(mfFunc[mf.Float64x4](it.op), wire.Unpack4(it.x), wire.Unpack4(it.y)))
		}
	}
	return blasRef(it, workers)
}

// blasRef mirrors the server's BLAS executor call for call.
func blasRef(it *item, workers int) []float64 {
	run, result := blasCall(it, workers)
	run()
	return result()
}

// blasCall prepares an item's BLAS kernel call exactly as the server's
// executor makes it: run performs the call (again on every invocation),
// and result packs the output of the last one.
func blasCall(it *item, workers int) (run func(), result func() []float64) {
	n, m := it.count, it.m
	switch it.op {
	case wire.OpDot:
		switch it.width {
		case 2:
			x, y, r := wire.Unpack2(it.x), wire.Unpack2(it.y), mf.Float64x2{}
			return func() { r = blas.DotF2Parallel(x, y, workers) }, func() []float64 { return r[:] }
		case 3:
			x, y, r := wire.Unpack3(it.x), wire.Unpack3(it.y), mf.Float64x3{}
			return func() { r = blas.DotF3Parallel(x, y, workers) }, func() []float64 { return r[:] }
		default:
			x, y, r := wire.Unpack4(it.x), wire.Unpack4(it.y), mf.Float64x4{}
			return func() { r = blas.DotF4Parallel(x, y, workers) }, func() []float64 { return r[:] }
		}
	case wire.OpAxpy:
		switch it.width {
		case 2:
			a, x, y := mf.Float64x2(it.alpha), wire.Unpack2(it.x), wire.Unpack2(it.y)
			return func() { blas.AxpyF2Parallel(a, x, y, workers) }, func() []float64 { return wire.Pack2(y) }
		case 3:
			a, x, y := mf.Float64x3(it.alpha), wire.Unpack3(it.x), wire.Unpack3(it.y)
			return func() { blas.AxpyF3Parallel(a, x, y, workers) }, func() []float64 { return wire.Pack3(y) }
		default:
			a, x, y := mf.Float64x4(it.alpha), wire.Unpack4(it.x), wire.Unpack4(it.y)
			return func() { blas.AxpyF4Parallel(a, x, y, workers) }, func() []float64 { return wire.Pack4(y) }
		}
	case wire.OpGemv:
		switch it.width {
		case 2:
			a, x, y := wire.Unpack2(it.x), wire.Unpack2(it.y), make([]mf.Float64x2, n)
			return func() { blas.GemvTiledF2Parallel(a, n, m, x, y, workers) }, func() []float64 { return wire.Pack2(y) }
		case 3:
			a, x, y := wire.Unpack3(it.x), wire.Unpack3(it.y), make([]mf.Float64x3, n)
			return func() { blas.GemvTiledF3Parallel(a, n, m, x, y, workers) }, func() []float64 { return wire.Pack3(y) }
		default:
			a, x, y := wire.Unpack4(it.x), wire.Unpack4(it.y), make([]mf.Float64x4, n)
			return func() { blas.GemvTiledF4Parallel(a, n, m, x, y, workers) }, func() []float64 { return wire.Pack4(y) }
		}
	case wire.OpGemm:
		switch it.width {
		case 2:
			a, b, c := wire.Unpack2(it.x), wire.Unpack2(it.y), make([]mf.Float64x2, n*n)
			return func() { blas.GemmBlockedF2Parallel(a, b, c, n, workers) }, func() []float64 { return wire.Pack2(c) }
		case 3:
			a, b, c := wire.Unpack3(it.x), wire.Unpack3(it.y), make([]mf.Float64x3, n*n)
			return func() { blas.GemmBlockedF3Parallel(a, b, c, n, workers) }, func() []float64 { return wire.Pack3(c) }
		default:
			a, b, c := wire.Unpack4(it.x), wire.Unpack4(it.y), make([]mf.Float64x4, n*n)
			return func() { blas.GemmBlockedF4Parallel(a, b, c, n, workers) }, func() []float64 { return wire.Pack4(c) }
		}
	}
	panic(fmt.Sprintf("blasCall: op %v is not a BLAS op", it.op))
}

// blasOps is an item's operation count in the Fig 9 tables' convention:
// n for dot and axpy, n·m for gemv, n³ for gemm.
func blasOps(it *item) float64 {
	n := float64(it.count)
	switch it.op {
	case wire.OpGemv:
		return n * float64(it.m)
	case wire.OpGemm:
		return n * n * n
	}
	return n
}

// reduceRef is the exact reduction of the whole vector.
func reduceRef(it *item) []float64 {
	dot := it.op == wire.OpDotExact
	switch it.width {
	case 1:
		if dot {
			return []float64{exact.Dot(it.x, it.y)}
		}
		return []float64{exact.Sum(it.x)}
	case 2:
		if dot {
			r := exact.Dot2(wire.Unpack2(it.x), wire.Unpack2(it.y))
			return r[:]
		}
		r := exact.Sum2(wire.Unpack2(it.x))
		return r[:]
	case 3:
		if dot {
			r := exact.Dot3(wire.Unpack3(it.x), wire.Unpack3(it.y))
			return r[:]
		}
		r := exact.Sum3(wire.Unpack3(it.x))
		return r[:]
	default:
		if dot {
			r := exact.Dot4(wire.Unpack4(it.x), wire.Unpack4(it.y))
			return r[:]
		}
		r := exact.Sum4(wire.Unpack4(it.x))
		return r[:]
	}
}
