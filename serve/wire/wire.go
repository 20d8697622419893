// Package wire is the binary protocol of the mfserve compute service: a
// compact, versioned framing for extended-precision expansion values and
// the request/response pairs of the scalar arithmetic (Add/Sub/Mul/Div/
// Sqrt), transcendental (Exp..Hypot — see the Op block), and BLAS
// (Axpy/Dot/Gemv/Gemm) operations at widths 2, 3, and 4.
//
// Expansion components travel as their raw IEEE-754 bit patterns
// (little-endian uint64 per float64 component), so a decode(encode(x))
// round trip is bit-exact for every representable expansion — including
// -0 tail terms, subnormals, and the NaN/Inf collapse states of the §4.4
// special-value contract. The wire base type is float64 (the serving
// tier's configuration); float32 expansions are a client-side concern.
//
// Because that encoding is the memory of a []float64 on a little-endian
// host, the codec moves operands without converting them: a decoder
// reads each frame's payload straight into the one slab it returns
// (Request.Alpha, X and Y are consecutive pieces of it), and an encoder
// writes straight from the caller's slabs. Decoded slabs are ordinary
// garbage-collected memory that belongs to the caller, so nothing needs
// releasing. Big-endian hosts take a copying path instead (frame.go).
//
// Frame layout (all integers little-endian):
//
//	offset  size  field
//	0       2     magic "MF"
//	2       1     version (2)
//	3       1     frame type (1 = request, 2 = response)
//	4       4     payload length in bytes (trailer not included)
//	8       8     request ID
//	16      8     request: absolute deadline, Unix nanoseconds (0 = none)
//	              response: reserved (0)
//	24      —     payload
//	24+len  4     CRC32C (Castagnoli) of header + payload
//
// Version 2 added the CRC32C trailer. Every frame is integrity-checked
// end to end: a flipped bit anywhere in the header or payload makes the
// trailer mismatch, the decoder returns ErrChecksum, and the connection
// is closed — a corrupted frame can never decode into a plausible
// request or response, so the arithmetic error bounds the service
// advertises are never silently voided by the transport. Version 1
// frames (no trailer) are rejected with ErrVersion; there is no
// downgrade path.
//
// Request payload:
//
//	0       1     op
//	1       1     width (2, 3, or 4; reductions also allow 1)
//	2       1     proxy hop count (0 for a direct client; each proxy
//	              tier increments it; > MaxProxyHops is rejected, so a
//	              misconfigured proxy loop dies at the first wrap)
//	3       1     reserved (0)
//	4       4     count (elements / vector length / matrix dimension n)
//	8       4     m     (GEMV column count; reduction flags; 0 otherwise)
//	12      —     Axpy only: alpha, width components
//	…       —     X slab, then Y slab (see ReqElems for sizes)
//
// Response payload:
//
//	0       1     status
//	1       3     reserved (0)
//	4       4     retry-after hint, milliseconds (Overloaded only)
//	8       —     result slab (see RespElems for size)
package wire

import (
	"errors"
	"fmt"
	"time"
)

// Protocol constants.
const (
	Version    = 2
	HeaderSize = 24
	// TrailerSize is the CRC32C trailer appended after the payload.
	TrailerSize = 4

	// MaxPayload bounds a frame's payload so a corrupt or hostile length
	// field cannot trigger an arbitrary allocation. 1 GiB admits GEMM up
	// to n≈2048 at width 4 with both operand matrices in one frame.
	MaxPayload = 1 << 30

	magic0, magic1 = 'M', 'F'

	frameRequest  = 1
	frameResponse = 2
)

// Op identifies the requested operation. Scalar ops apply elementwise to
// `count` operand expansions; BLAS ops carry whole vectors or matrices.
type Op uint8

const (
	OpAdd  Op = 1
	OpSub  Op = 2
	OpMul  Op = 3
	OpDiv  Op = 4
	OpSqrt Op = 5

	OpAxpy Op = 16
	OpDot  Op = 17
	OpGemv Op = 18
	OpGemm Op = 19

	// Transcendental elementwise ops (mf/math.go). Like the arithmetic
	// scalar ops they apply to `count` operand expansions and are
	// batching-eligible; unlike them they dispatch to the scalar mf
	// kernels rather than the generated lane networks. The §4.4 collapse
	// contract travels unchanged: non-finite operands (and domain
	// violations) yield NaN expansions, bit-identical to a local call.
	// OpAtan2's X slab is the y-coordinate operand, matching Atan2(y, x);
	// OpPow's X slab is the base.
	OpExp   Op = 48
	OpExpm1 Op = 49
	OpExp2  Op = 50
	OpLog   Op = 51
	OpLog1p Op = 52
	OpLog2  Op = 53
	OpLog10 Op = 54
	OpSin   Op = 55
	OpCos   Op = 56
	OpTan   Op = 57
	OpAsin  Op = 58
	OpAcos  Op = 59
	OpAtan  Op = 60
	OpSinh  Op = 61
	OpCosh  Op = 62
	OpTanh  Op = 63
	OpCbrt  Op = 64
	OpPow   Op = 65
	OpAtan2 Op = 66
	OpHypot Op = 67

	// Streaming reductions (exact superaccumulator — internal/exact).
	// A reduction is a sequence of request frames sharing one request ID
	// on one connection: the server folds each operand chunk into a
	// per-(connection, ID) accumulator and acknowledges it with an empty
	// StatusOK response; the frame carrying FlagReduceFinal in M also
	// folds its chunk, then returns the correctly rounded width-w result
	// and releases the state. The accumulator is exact and
	// merge-associative, so the result is bit-identical for every chunk
	// split, chunk order, and server-side worker count. Reductions allow
	// width 1 (plain float64 operands) through 4.
	OpSumExact Op = 32
	OpDotExact Op = 33
)

// FlagReduceFinal marks the last chunk of a streaming reduction.
// Reduction requests reuse the M header field as a flags word; all
// other M bits must be zero.
const FlagReduceFinal = 1

// FlagReduceRaw, valid only together with FlagReduceFinal, asks the
// server to answer the final chunk with the raw serialized
// superaccumulator state (exact.EncodeFloats — ReduceRawElems float64
// words) instead of the rounded width-w expansion. This is the cluster
// hook: a proxy that shards one reduction's chunk stream across
// backends collects each shard's raw accumulator, merges them with
// exact.Accumulator.Merge (exact, order-independent), and rounds once
// — bit-identical to a single-server fold of the same chunks.
const FlagReduceRaw = 2

// MaxProxyHops bounds the proxy hop count a request may carry; a frame
// whose hop byte exceeds it is rejected as malformed (the loop guard
// for misconfigured proxy tiers — see Request.Hops).
const MaxProxyHops = 3

// MaxOpenReductions caps the reduction streams one connection may hold
// open at a server or proxy, so a hostile peer cannot pin unbounded
// accumulator memory by opening streams it never finishes. The first
// chunk of a stream past the cap is answered StatusBadRequest.
const MaxOpenReductions = 256

// ReduceRawElems is the float64 word count of a raw reduction result:
// the serialized superaccumulator a FlagReduceRaw final chunk returns.
// It must equal exact.EncodedWords — serve/server asserts the equality
// at compile time, so the protocol package itself stays free of any
// dependency on the accumulator's layout.
const ReduceRawElems = 137

// Scalar reports whether op is one of the elementwise scalar operations
// (the ones the server's batching scheduler may coalesce across
// requests): the arithmetic ops and the transcendental family.
func (op Op) Scalar() bool { return (op >= OpAdd && op <= OpSqrt) || op.Math() }

// Math reports whether op is one of the transcendental elementwise
// operations (OpExp..OpHypot). Math ops are Scalar — batched through
// the same lanes — but execute on the scalar mf kernels instead of the
// generated lane networks.
func (op Op) Math() bool { return op >= OpExp && op <= OpHypot }

// Unary reports whether op takes a single operand slab: Sqrt and every
// math op except the binary Pow/Atan2/Hypot.
func (op Op) Unary() bool {
	return op == OpSqrt || (op.Math() && op < OpPow)
}

// Reduction reports whether op is a streaming exact reduction (chunked
// requests folded into a per-(connection, ID) superaccumulator).
func (op Op) Reduction() bool { return op == OpSumExact || op == OpDotExact }

// Valid reports whether op is a known operation code.
func (op Op) Valid() bool {
	return op.Scalar() || (op >= OpAxpy && op <= OpGemm) || op.Reduction()
}

// opNames covers every valid op; String and ParseOp derive from it so
// the two can never drift apart.
var opNames = map[Op]string{
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpSqrt: "sqrt",
	OpAxpy: "axpy", OpDot: "dot", OpGemv: "gemv", OpGemm: "gemm",
	OpExp: "exp", OpExpm1: "expm1", OpExp2: "exp2",
	OpLog: "log", OpLog1p: "log1p", OpLog2: "log2", OpLog10: "log10",
	OpSin: "sin", OpCos: "cos", OpTan: "tan",
	OpAsin: "asin", OpAcos: "acos", OpAtan: "atan",
	OpSinh: "sinh", OpCosh: "cosh", OpTanh: "tanh",
	OpCbrt: "cbrt", OpPow: "pow", OpAtan2: "atan2", OpHypot: "hypot",
	OpSumExact: "sumexact", OpDotExact: "dotexact",
}

func (op Op) String() string {
	if s, ok := opNames[op]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// ParseOp is the inverse of Op.String, for CLI flag parsing.
func ParseOp(s string) (Op, error) {
	for op, name := range opNames {
		if name == s {
			return op, nil
		}
	}
	return 0, fmt.Errorf("wire: unknown op %q", s)
}

// Status is the response disposition.
type Status uint8

const (
	StatusOK Status = 0
	// StatusDeadlineExceeded: the request's deadline passed before the
	// server completed (or started) it; no result is included.
	StatusDeadlineExceeded Status = 1
	// StatusOverloaded: the server's bounded queue was full (or it is
	// draining); retry after the hinted delay.
	StatusOverloaded Status = 2
	// StatusBadRequest: the frame was well-formed but semantically
	// invalid (unknown op, bad width, inconsistent sizes).
	StatusBadRequest Status = 3
	// StatusInternal: the server failed unexpectedly.
	StatusInternal Status = 4
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusDeadlineExceeded:
		return "deadline-exceeded"
	case StatusOverloaded:
		return "overloaded"
	case StatusBadRequest:
		return "bad-request"
	case StatusInternal:
		return "internal"
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// Framing errors. Read-side failures wrap one of these (or an underlying
// I/O error); any of them poisons the connection byte stream, so callers
// should close the connection rather than attempt to resynchronize.
var (
	ErrMagic     = errors.New("wire: bad magic")
	ErrVersion   = errors.New("wire: unsupported protocol version")
	ErrFrameType = errors.New("wire: unexpected frame type")
	ErrTooLarge  = errors.New("wire: frame exceeds MaxPayload")
	ErrMalformed = errors.New("wire: malformed payload")
	// ErrChecksum: the frame's CRC32C trailer did not match its contents.
	// The frame was corrupted in flight (or the peer is broken); nothing
	// decoded from it can be trusted and the connection must be closed.
	ErrChecksum = errors.New("wire: frame checksum mismatch")
	// ErrMaxDim: ReadRequestMax read an intact request whose operands
	// exceed the reader's bound. Unlike the errors above it leaves the
	// stream aligned: the request can be answered and the next one read.
	ErrMaxDim = errors.New("wire: request exceeds the reader's dimension bound")
)

// Untrusted reports whether err is a read failure of the frame bytes
// themselves — a checksum mismatch or any framing error above — rather
// than of the transport under them (EOF, reset, timeout). Either way the
// connection is done; Untrusted says whether the peer or the path sent
// bytes that cannot be trusted.
func Untrusted(err error) bool {
	for _, e := range [...]error{ErrChecksum, ErrMagic, ErrVersion, ErrFrameType, ErrTooLarge, ErrMalformed} {
		if errors.Is(err, e) {
			return true
		}
	}
	return false
}

// Request is one decoded request frame. Slabs are flat component arrays:
// expansion i of a width-w slab occupies s[i*w : (i+1)*w], leading
// component first (mf's canonical component order).
type Request struct {
	ID       uint64
	Deadline time.Time // zero = no deadline
	Op       Op
	Width    int // expansion width: 2, 3, or 4 (reductions also allow 1)
	Count    int // scalar: elements; axpy/dot: n; gemv: rows n; gemm: n; reductions: chunk elements
	M        int // gemv: columns; reductions: flags (FlagReduceFinal | FlagReduceRaw); 0 otherwise
	Hops     int // proxy hops taken so far (0..MaxProxyHops; each proxy tier increments)

	Alpha []float64 // axpy only: one expansion (Width components)
	X     []float64 // first operand slab
	Y     []float64 // second operand slab (empty for unary ops)
}

// Response is one decoded response frame.
type Response struct {
	ID           uint64
	Status       Status
	RetryAfterMs uint32
	Data         []float64 // result slab; empty unless Status == StatusOK
}

// maxElems bounds the component count of any single slab: a frame's
// payload caps at MaxPayload bytes and each component costs 8, so no
// slab can legitimately carry more. Enforcing it inside slabElems —
// before each partial product grows — is what keeps attacker-controlled
// count/m fields from overflowing the size arithmetic.
const maxElems = MaxPayload / 8

// slabElems returns the product of dims, rejecting any product that
// exceeds maxElems. The bound check runs before each multiplication, so
// the product can never overflow (or wrap negative) on the way up.
func slabElems(dims ...int) (int, error) {
	n := 1
	for _, d := range dims {
		if d == 0 {
			return 0, nil
		}
		if n > maxElems/d {
			return 0, fmt.Errorf("%w: slab dimensions %v exceed frame capacity", ErrMalformed, dims)
		}
		n *= d
	}
	return n, nil
}

// ReqElems returns the expected component counts (len of X, Y, Alpha)
// for a request with the given shape. It returns an error for unknown
// ops, invalid widths/dimensions, and shapes whose slabs could not fit
// in a single frame (so hostile count/m values are rejected here rather
// than overflowing downstream size computations).
func ReqElems(op Op, width, count, m int) (x, y, alpha int, err error) {
	minWidth := 2
	if op.Reduction() {
		minWidth = 1 // plain float64 operands
	}
	if width < minWidth || width > 4 {
		return 0, 0, 0, fmt.Errorf("%w: width %d (want %d..4)", ErrMalformed, width, minWidth)
	}
	if count < 0 || m < 0 {
		return 0, 0, 0, fmt.Errorf("%w: negative dimension", ErrMalformed)
	}
	switch {
	case op.Reduction():
		n, err := slabElems(count, width)
		if err != nil {
			return 0, 0, 0, err
		}
		if op == OpDotExact {
			return n, n, 0, nil
		}
		return n, 0, 0, nil
	case op.Scalar(), op == OpAxpy, op == OpDot:
		n, err := slabElems(count, width)
		if err != nil {
			return 0, 0, 0, err
		}
		switch {
		case op.Unary():
			return n, 0, 0, nil
		case op == OpAxpy:
			return n, n, width, nil
		default:
			return n, n, 0, nil
		}
	case op == OpGemv:
		nx, err := slabElems(count, m, width)
		if err != nil {
			return 0, 0, 0, err
		}
		ny, err := slabElems(m, width)
		if err != nil {
			return 0, 0, 0, err
		}
		return nx, ny, 0, nil
	case op == OpGemm:
		n, err := slabElems(count, count, width)
		if err != nil {
			return 0, 0, 0, err
		}
		return n, n, 0, nil
	}
	return 0, 0, 0, fmt.Errorf("%w: unknown op %d", ErrMalformed, op)
}

// RespElems returns the component count of a successful response's Data
// slab for a request with the given shape.
func RespElems(op Op, width, count, m int) int {
	switch op {
	case OpSumExact, OpDotExact:
		// Only the final chunk of a streaming reduction carries a result;
		// earlier chunks are acknowledged with an empty OK. A raw final
		// carries the serialized accumulator instead of the rounded
		// expansion.
		if m&FlagReduceFinal != 0 {
			if m&FlagReduceRaw != 0 {
				return ReduceRawElems
			}
			return width
		}
		return 0
	case OpDot:
		return width
	case OpGemv:
		return count * width
	case OpGemm:
		return count * count * width
	default: // scalar elementwise and axpy: one result per input element
		return count * width
	}
}

// Validate checks the request's shape: known op, supported width, and
// slab lengths exactly matching the op's geometry.
func (r *Request) Validate() error {
	if !r.Op.Valid() {
		return fmt.Errorf("%w: unknown op %d", ErrMalformed, r.Op)
	}
	if r.Hops < 0 || r.Hops > MaxProxyHops {
		// The loop guard: every proxy tier increments the hop byte, so a
		// request cycling through a misconfigured proxy ring trips this
		// bound instead of orbiting forever.
		return fmt.Errorf("%w: proxy hop count %d exceeds MaxProxyHops %d", ErrMalformed, r.Hops, MaxProxyHops)
	}
	if r.Op.Reduction() && r.M&^(FlagReduceFinal|FlagReduceRaw) != 0 {
		return fmt.Errorf("%w: unknown reduction flags %#x", ErrMalformed, r.M)
	}
	if r.Op.Reduction() && r.M&FlagReduceRaw != 0 && r.M&FlagReduceFinal == 0 {
		// Raw output is a property of the final fold-down; a non-final
		// chunk asking for it is a confused (or hostile) peer.
		return fmt.Errorf("%w: FlagReduceRaw on a non-final reduction chunk", ErrMalformed)
	}
	if r.M != 0 && r.Op != OpGemv && !r.Op.Reduction() {
		// M is gemv's column count and the reductions' flags word; any
		// other op carrying one is a malformed (or hostile) frame.
		return fmt.Errorf("%w: %s with nonzero m %d", ErrMalformed, r.Op, r.M)
	}
	nx, ny, na, err := ReqElems(r.Op, r.Width, r.Count, r.M)
	if err != nil {
		return err
	}
	if len(r.X) != nx || len(r.Y) != ny || len(r.Alpha) != na {
		return fmt.Errorf("%w: %s width=%d count=%d m=%d: slab lengths x=%d y=%d alpha=%d, want %d/%d/%d",
			ErrMalformed, r.Op, r.Width, r.Count, r.M, len(r.X), len(r.Y), len(r.Alpha), nx, ny, na)
	}
	return nil
}
