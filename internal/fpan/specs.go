package fpan

// Proof-obligation specs for cmd/mfprove.
//
// A Spec describes how to verify one kernel shape exhaustively in the
// reduced-precision softfloat model: how its parameters group into
// floating-point expansions, what exact value the outputs must
// approximate, over which enumerated input space, at which precision, and
// to which error bound. Every //mf:fpan annotation names a spec; all
// kernels that lift to the same canonical program share one proof.
//
// The bound and band constants here are the *small-p calibrated* values:
// the float64 bound constants (networks.go) inflate by a few bits at
// p = 3..5 exactly as documented for BoundAdd2 vs the paper, and the
// verifier pins the tightest (A, B) and band that hold over the full
// enumerated space (TestSpecBoundsAreTight keeps them honest in both
// directions).

// ValKind says what exact value a kernel's outputs approximate, as a
// function of its input groups.
type ValKind uint8

const (
	// ValSum: outputs approximate the exact sum of all inputs.
	ValSum ValKind = iota
	// ValProd: outputs approximate (Σ group 0) · (Σ group 1).
	ValProd
	// ValSqr: outputs approximate (Σ group 0)².
	ValSqr
	// ValMulAcc: outputs approximate Σg0 + (Σg1 · Σg2).
	ValMulAcc
	// ValEFTSum: TwoSum contract — s = RN(a+b) and s + e = a + b.
	ValEFTSum
	// ValEFTFastSum: FastTwoSum contract — s = RN(a+b) always; s + e =
	// a + b whenever the precondition (a = 0, b = 0, or exp a ≥ exp b)
	// holds.
	ValEFTFastSum
	// ValEFTProd: TwoProd contract — p = RN(a·b) and p + e = a·b.
	ValEFTProd
)

func (v ValKind) String() string {
	switch v {
	case ValSum:
		return "sum"
	case ValProd:
		return "prod"
	case ValSqr:
		return "sqr"
	case ValMulAcc:
		return "mulacc"
	case ValEFTSum:
		return "eft-sum"
	case ValEFTFastSum:
		return "eft-fastsum"
	case ValEFTProd:
		return "eft-prod"
	}
	return "val?"
}

// GroupSpace describes the enumerated candidates for one input group (one
// expansion-valued argument). The group's leading term ranges over every
// p-bit mantissa across an exponent window; each tail term ranges over
// the nonoverlap-band boundary values relative to its predecessor plus,
// for the first Full tail levels, every mantissa across a Gap-deep
// exponent window. The all-zero group is always included.
//
// Exponents are relative; the verifier normalizes the whole space by one
// global shift (the model is scale-invariant), so only windows matter.
type GroupSpace struct {
	Terms    int // expansion length; 1 = scalar argument
	LeadDown int // lead-exponent window below the anchor
	LeadUp   int // lead-exponent window above the anchor
	Full     int // tail levels enumerated with full mantissas
	Gap      int // extra exponent depth per full tail level
	Bnd      int // boundary magnitudes per tail level (0 = default 3)
}

// Spec is one proof obligation shape.
type Spec struct {
	Name   string
	Val    ValKind
	Groups []GroupSpace
	P      uint      // proof precision (mantissa bits)
	Bound  BoundSpec // discarded-error bound q = A·p − B at precision P
	Band   int64     // output nonoverlap band multiplier (CheckOutputsBand)
	Strict bool      // inputs satisfy strict half-ulp nonoverlap (else weak 2·ulp)
	Canon  string    // kernel whose KernelProgram the reference must equal, or ""
	Ref    string    // reference kernel ("core.Add2"); instances must hash-match it
}

// NumParams returns the total scalar parameter count of the spec.
func (s *Spec) NumParams() int {
	n := 0
	for _, g := range s.Groups {
		n += g.Terms
	}
	return n
}

// specs is the registry, keyed by the //mf:fpan annotation argument.
//
// Space sizing is tuned for a single-core full sweep (make prove) in low
// single-digit minutes: the wide, cheap kernels get full-mantissa tails
// and generous lead windows; the 8- and 12-parameter kernels fall back to
// boundary-only tails over narrower windows (the boundary values are
// where every known counterexample family for accumulation networks
// lives — see the companion verification paper).
var specs = map[string]*Spec{
	// Error-free transformation primitives (internal/eft). Verified
	// against their defining identities, not an error band.
	"twosum": {
		Name: "twosum", Val: ValEFTSum, P: 4,
		Groups: []GroupSpace{{Terms: 1, LeadDown: 9, LeadUp: 9}, {Terms: 1, LeadDown: 9, LeadUp: 9}},
		Ref:    "eft.TwoSum",
	},
	"fasttwosum": {
		Name: "fasttwosum", Val: ValEFTFastSum, P: 4,
		Groups: []GroupSpace{{Terms: 1, LeadDown: 9, LeadUp: 9}, {Terms: 1, LeadDown: 9, LeadUp: 9}},
		Ref:    "eft.FastTwoSum",
	},
	"twoprod": {
		// Exponent windows are redundant for pure products (scaling one
		// operand scales every wire exactly), so only mantissas range.
		Name: "twoprod", Val: ValEFTProd, P: 4,
		Groups: []GroupSpace{{Terms: 1}, {Terms: 1}},
		Ref:    "eft.TwoProd",
	},

	// Addition networks (internal/core), weak nonoverlap in and out.
	"add2": {
		Name: "add2", Val: ValSum, P: 4, Bound: BoundSpec{2, 4}, Band: 2,
		Groups: []GroupSpace{
			{Terms: 2, Full: 1, Gap: 2},
			{Terms: 2, LeadDown: 11, LeadUp: 3, Full: 1, Gap: 2},
		},
		Canon: "add2", Ref: "core.Add2",
	},
	"add3": {
		Name: "add3", Val: ValSum, P: 3, Bound: BoundSpec{3, 4}, Band: 2,
		Groups: []GroupSpace{
			{Terms: 3, Full: 2, Gap: 1},
			{Terms: 3, LeadDown: 8, LeadUp: 3, Full: 1, Gap: 1},
		},
		Canon: "add3", Ref: "core.Add3",
	},
	"add4": {
		Name: "add4", Val: ValSum, P: 3, Bound: BoundSpec{4, 4}, Band: 2,
		Groups: []GroupSpace{
			{Terms: 4, Full: 1, Gap: 1},
			{Terms: 4, LeadDown: 8, LeadUp: 3, Bnd: 1},
		},
		Canon: "add4", Ref: "core.Add4",
	},
	"add21": {
		Name: "add21", Val: ValSum, P: 4, Bound: BoundSpec{2, 4}, Band: 2,
		Groups: []GroupSpace{
			{Terms: 2, Full: 1, Gap: 2},
			{Terms: 1, LeadDown: 12, LeadUp: 3},
		},
		Ref: "core.Add21",
	},
	// Add31/Add41 run one error-propagation pass, not a full renorm: the
	// discarded-error bound is exact (and tighter than the full networks')
	// but the outputs carry no ordering invariant, so Band is 0 (skip).
	"add31": {
		Name: "add31", Val: ValSum, P: 3, Bound: BoundSpec{3, 1}, Band: 0,
		Groups: []GroupSpace{
			{Terms: 3, Full: 2, Gap: 1},
			{Terms: 1, LeadDown: 10, LeadUp: 3},
		},
		Ref: "core.Add31",
	},
	"add41": {
		Name: "add41", Val: ValSum, P: 3, Bound: BoundSpec{4, 2}, Band: 0,
		Groups: []GroupSpace{
			{Terms: 4, Full: 2, Gap: 1},
			{Terms: 1, LeadDown: 12, LeadUp: 3},
		},
		Ref: "core.Add41",
	},

	// Multiplication networks (internal/core). Verified under the strict
	// half-ulp input invariant against the paper's bounds (the weak-input
	// regime is covered by the sampling verifier at p = 53, like
	// BoundMul2..4 document).
	"mul2": {
		Name: "mul2", Val: ValProd, P: 4, Bound: BoundSpec{2, 2}, Band: 1, Strict: true,
		Groups: []GroupSpace{
			{Terms: 2, Full: 1, Gap: 2},
			{Terms: 2, Full: 1, Gap: 2},
		},
		Canon: "mul2", Ref: "core.Mul2",
	},
	"mul3": {
		Name: "mul3", Val: ValProd, P: 3, Bound: BoundSpec{3, 5}, Band: 1, Strict: true,
		Groups: []GroupSpace{
			{Terms: 3, Full: 1, Gap: 1},
			{Terms: 3, Full: 1, Gap: 1},
		},
		Canon: "mul3", Ref: "core.Mul3",
	},
	"mul4": {
		Name: "mul4", Val: ValProd, P: 3, Bound: BoundSpec{4, 8}, Band: 2, Strict: true,
		Groups: []GroupSpace{
			{Terms: 4, Full: 1},
			{Terms: 4},
		},
		Canon: "mul4", Ref: "core.Mul4",
	},
	"mul21": {
		Name: "mul21", Val: ValProd, P: 4, Bound: BoundSpec{2, 1}, Band: 1, Strict: true,
		Groups: []GroupSpace{
			{Terms: 2, Full: 1, Gap: 2},
			{Terms: 1},
		},
		Ref: "core.Mul21",
	},
	"mul31": {
		Name: "mul31", Val: ValProd, P: 3, Bound: BoundSpec{3, 3}, Band: 1, Strict: true,
		Groups: []GroupSpace{
			{Terms: 3, Full: 2, Gap: 1},
			{Terms: 1},
		},
		Ref: "core.Mul31",
	},
	"mul41": {
		Name: "mul41", Val: ValProd, P: 3, Bound: BoundSpec{4, 6}, Band: 14, Strict: true,
		Groups: []GroupSpace{
			{Terms: 4, Full: 2, Gap: 1},
			{Terms: 1},
		},
		Ref: "core.Mul41",
	},
	"sqr2": {
		Name: "sqr2", Val: ValSqr, P: 4, Bound: BoundSpec{2, 1}, Band: 1, Strict: true,
		Groups: []GroupSpace{{Terms: 2, Full: 1, Gap: 4}},
		Ref:    "core.Sqr2",
	},
	"sqr3": {
		Name: "sqr3", Val: ValSqr, P: 3, Bound: BoundSpec{3, 4}, Band: 1, Strict: true,
		Groups: []GroupSpace{{Terms: 3, Full: 2, Gap: 3}},
		Ref:    "core.Sqr3",
	},
	"sqr4": {
		Name: "sqr4", Val: ValSqr, P: 3, Bound: BoundSpec{4, 7}, Band: 2, Strict: true,
		Groups: []GroupSpace{{Terms: 4, Full: 3, Gap: 2}},
		Ref:    "core.Sqr4",
	},

	// Fused multiply-accumulate steps (internal/core muladd.go) — the
	// reference semantics of every genmicro-generated GEMM/GEMV block.
	// 8–12 parameters: boundary-heavy spaces.
	"mulacc2": {
		Name: "mulacc2", Val: ValMulAcc, P: 3, Bound: BoundSpec{2, 2}, Band: 1, Strict: true,
		Groups: []GroupSpace{
			{Terms: 2, LeadDown: 5, LeadUp: 5, Full: 1},
			{Terms: 2, Full: 1},
			{Terms: 2, Full: 1},
		},
		Ref: "core.MulAcc2",
	},
	"mulacc3": {
		Name: "mulacc3", Val: ValMulAcc, P: 3, Bound: BoundSpec{3, 5}, Band: 1, Strict: true,
		Groups: []GroupSpace{
			{Terms: 3, LeadDown: 4, LeadUp: 4, Bnd: 2},
			{Terms: 3, Bnd: 2},
			{Terms: 3, Bnd: 2},
		},
		Ref: "core.MulAcc3",
	},
	"mulacc4": {
		Name: "mulacc4", Val: ValMulAcc, P: 3, Bound: BoundSpec{4, 8}, Band: 1, Strict: true,
		Groups: []GroupSpace{
			{Terms: 4, LeadDown: 3, LeadUp: 3, Bnd: 1},
			{Terms: 4, Bnd: 1},
			{Terms: 4, Bnd: 1},
		},
		Ref: "core.MulAcc4",
	},

	// double-double kernels (internal/qd): strict half-ulp invariant in
	// and out (Band 1 ≈ the DD invariant at small p).
	"ddadd": {
		Name: "ddadd", Val: ValSum, P: 4, Bound: BoundSpec{2, 2}, Band: 1, Strict: true,
		Groups: []GroupSpace{
			{Terms: 2, Full: 1, Gap: 2},
			{Terms: 2, LeadDown: 11, LeadUp: 3, Full: 1, Gap: 2},
		},
		Ref: "qd.DD.Add",
	},
	"ddaddf": {
		Name: "ddaddf", Val: ValSum, P: 4, Bound: BoundSpec{2, 1}, Band: 1, Strict: true,
		Groups: []GroupSpace{
			{Terms: 2, Full: 1, Gap: 2},
			{Terms: 1, LeadDown: 12, LeadUp: 3},
		},
		Ref: "qd.DD.AddFloat",
	},
	"ddmul": {
		Name: "ddmul", Val: ValProd, P: 4, Bound: BoundSpec{2, 2}, Band: 1, Strict: true,
		Groups: []GroupSpace{
			{Terms: 2, Full: 1, Gap: 2},
			{Terms: 2, Full: 1, Gap: 2},
		},
		Ref: "qd.DD.Mul",
	},
	"ddmulf": {
		Name: "ddmulf", Val: ValProd, P: 4, Bound: BoundSpec{2, 1}, Band: 1, Strict: true,
		Groups: []GroupSpace{
			{Terms: 2, Full: 1, Gap: 2},
			{Terms: 1},
		},
		Ref: "qd.DD.MulFloat",
	},
}

// SpecByName returns the registered proof spec, or nil.
func SpecByName(name string) *Spec { return specs[name] }

// SpecNames returns all registered spec names (unsorted).
func SpecNames() []string {
	names := make([]string, 0, len(specs))
	for n := range specs {
		names = append(names, n)
	}
	return names
}
