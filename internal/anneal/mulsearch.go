package anneal

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"multifloats/internal/eft"
	"multifloats/internal/fpan"
	"multifloats/internal/verify"
)

// Multiplication-network search (paper §4.2). Unlike addition, where the
// commutative first layer "naturally occurs in the optimal FPANs
// discovered by our heuristic search procedure", for multiplication the
// paper must "deliberately impose the presence of the commutativity layer
// in our search procedure". SearchMul does the same: every candidate
// starts with the fixed commutative prefix pairing the symmetric partial
// products, and the annealing moves only touch the suffix.

// MakeMulCases builds verification cases for n-term multiplication: FPAN
// inputs from the §4.2 expansion step, with the exact product of the full
// expansions as the reference (computed error-free from all n² TwoProd
// pairs, including the components the expansion step drops).
func MakeMulCases(n, count int, seed int64) []Case {
	gen := verify.NewExpansionGen(seed)
	gen.MaxLeadExp = 100
	cases := make([]Case, 0, count)
	for i := 0; i < count; i++ {
		x, y := gen.Pair(n)
		in := fpan.MulInputs(n, x, y)
		// Exact product: Σ_{i,j} (p_ij + e_ij) over all pairs.
		var comps []float64
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				p, e := eft.TwoProd(x[a], y[b])
				comps = append(comps, p, e)
			}
		}
		ex := exactExpansion(comps)
		scale := 0.0
		if len(ex) > 0 {
			scale = math.Abs(ex[len(ex)-1])
		}
		in2 := fpan.MulInputs(n, y, x)
		cases = append(cases, Case{
			In:    append([]float64(nil), in...),
			Exact: ex,
			Scale: scale,
			In2:   append([]float64(nil), in2...),
		})
	}
	return cases
}

// commutativePrefix returns the imposed first layer for n-term
// multiplication: TwoSum gates pairing (p_ij, p_ji) and, where both are
// full TwoProd outputs, (e_ij, e_ji), following the §4.2 input layout of
// fpan.MulInputs.
func commutativePrefix(n int) []fpan.Gate {
	switch n {
	case 2:
		// inputs: p00, e00, c01, c10.
		return []fpan.Gate{{Kind: fpan.Sum, A: 2, B: 3}}
	case 3:
		// inputs: p00, e00, p01, p10, e01, e10, c02, c11, c20.
		return []fpan.Gate{
			{Kind: fpan.Sum, A: 2, B: 3},
			{Kind: fpan.Sum, A: 4, B: 5},
			{Kind: fpan.Sum, A: 6, B: 8},
		}
	case 4:
		// inputs: p00,e00,p01,p10,e01,e10,p02,p20,p11,e02,e20,e11,c03,c12,c21,c30.
		return []fpan.Gate{
			{Kind: fpan.Sum, A: 2, B: 3},
			{Kind: fpan.Sum, A: 4, B: 5},
			{Kind: fpan.Sum, A: 6, B: 7},
			{Kind: fpan.Sum, A: 9, B: 10},
			{Kind: fpan.Sum, A: 12, B: 15},
			{Kind: fpan.Sum, A: 13, B: 14},
		}
	}
	panic("anneal: SearchMul supports n = 2, 3, 4")
}

// Commutes reports whether the network produces bit-identical outputs on
// every case's operand-swapped inputs (the §4.2 commutativity property).
func Commutes(net *fpan.Network, cases []Case, w []float64) bool {
	w2 := make([]float64, len(w))
	for i := range cases {
		c := &cases[i]
		if c.In2 == nil {
			continue
		}
		copy(w, c.In)
		fpan.RunInPlace(net, w)
		copy(w2, c.In2)
		fpan.RunInPlace(net, w2)
		for _, wi := range net.Outputs {
			if w[wi] != w2[wi] && !(math.IsNaN(w[wi]) && math.IsNaN(w2[wi])) {
				return false
			}
		}
	}
	return true
}

// SearchMul runs the annealing procedure for an n-term multiplication
// network. When cfg.RequireCommutative is set (the default used by
// fpantool), candidates must also produce bit-identical results under
// operand swap, reproducing the constraint the paper imposes in §4.2.
func SearchMul(n int, cfg Config, w io.Writer) *Result {
	prefix := commutativePrefix(n)
	s := &search{
		cfg:         cfg,
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		quick:       MakeMulCases(n, cfg.QuickCases, cfg.Seed+100),
		deep:        MakeMulCases(n, cfg.DeepCases, cfg.Seed+200),
		buf:         make([]float64, n*n),
		nfix:        len(prefix),
		mixAdd:      true,
		commutative: cfg.RequireCommutative,
	}

	blank := func() *fpan.Network {
		net := &fpan.Network{
			Name:     fmt.Sprintf("search-mul%d", n),
			NumWires: n * n,
		}
		ref := fpan.ByName(fmt.Sprintf("mul%d", n))
		net.InputLabels = append([]string(nil), ref.InputLabels...)
		for i := 0; i < n; i++ {
			net.OutputLabels = append(net.OutputLabels, fmt.Sprintf("z%d", i))
			net.Outputs = append(net.Outputs, i)
		}
		net.Gates = append([]fpan.Gate(nil), prefix...)
		net.ErrorBoundBits = ref.ErrorBoundBits
		return net
	}

	// Random growth with restarts until a verified starting point appears
	// (the paper grows "until it passed the automatic verification
	// procedure").
	var cur *fpan.Network
	for attempt := 0; attempt < 500 && cur == nil; attempt++ {
		cand := blank()
		for len(cand.Gates) < cfg.MaxGates {
			if s.passes(cand, s.quick) {
				cur = cand
				break
			}
			cand.Gates = append(cand.Gates, s.gate())
		}
		if cur == nil && s.passes(cand, s.quick) {
			cur = cand
		}
	}
	if cur == nil {
		// Seed from the known-good production network and anneal down, as
		// SearchAdd does (random growth rarely finds a 2^-(3p)-class
		// multiplication network from scratch).
		prod := fpan.ByName(fmt.Sprintf("mul%d", n))
		if prod != nil && len(prod.Gates) <= cfg.MaxGates {
			seeded := blank()
			seeded.Gates = append([]fpan.Gate(nil), prod.Gates...)
			seeded.Outputs = append([]int(nil), prod.Outputs...)
			seeded.OutputLabels = append([]string(nil), prod.OutputLabels...)
			if CheckFast(seeded, s.quick, s.buf) {
				cur = seeded
			}
		}
	}
	if cur == nil {
		return &Result{} // no verified starting point within the gate budget
	}
	return s.anneal(cur, w)
}
