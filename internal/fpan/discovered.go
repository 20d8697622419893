package fpan

// Networks discovered by this repository's simulated-annealing search
// (internal/anneal). Each note gives the `fpantool search` command that
// finds the network; the command prints the winner's gate list as a Go
// literal, and internal/anneal's TestSearchReproducesDiscovered reruns the
// add3 and both mul3 searches and compares gate for gate. They are
// recorded for the E-Search experiment and deep-verified in
// internal/verify/discovered_test.go, but are not used in production —
// see the per-network notes. The production networks remain the ones in
// networks.go, chosen for their verified closure under the library's weak
// nonoverlap invariant.

// Add3Discovered is the size-14 three-term addition network found by
// `fpantool search -n 3 -iters 25000 -maxgates 30 -seed 1`.
//
// Its size matches the paper's Figure 3 exactly (14 gates; conjectured
// optimal), though its depth is 12 versus the paper's 8. Deep
// verification: zero bound failures over 6·10⁵ adversarial cases at the
// 2^-(3p-3) bound, but ~7·10⁻⁶ of cases violate the weak nonoverlap
// invariant (and small-p sampling confirms the violations are real), so —
// like Add2Discovered — it meets the paper-size error bound without being
// closed under composition, and stays out of production.
func Add3Discovered() *Network {
	return &Network{
		Name:         "add3-discovered",
		NumWires:     6,
		InputLabels:  []string{"x0", "y0", "x1", "y1", "x2", "y2"},
		OutputLabels: []string{"z0", "z1", "z2"},
		Outputs:      []int{0, 1, 2},
		Gates: []Gate{
			{Sum, 0, 1},
			{Sum, 0, 2},
			{Sum, 0, 3},
			{Sum, 4, 5},
			{Sum, 0, 4},
			{Sum, 4, 3},
			{Sum, 0, 2},
			{Sum, 4, 2},
			{Sum, 1, 4},
			{Sum, 2, 4},
			{Sum, 2, 5},
			{Sum, 2, 3},
			{Sum, 0, 2},
			{Sum, 1, 2},
		},
		ErrorBoundBits: BoundAdd3.Bits(P64),
	}
}

// Mul3DiscoveredNC is the size-10, depth-5 three-term multiplication
// network found by the seeded annealing search when the commutativity
// constraint of §4.2 is NOT imposed (`fpantool search -n 3 -op mul
// -commutative=false -iters 20000 -maxgates 20 -seed 1`).
//
// It is smaller than the paper's conjecturally optimal commutative
// network (12 gates, Figure 6) precisely because it drops the symmetric
// pairing of e01/e10 — evidence for the paper's observation that the
// commutativity layer must be imposed and costs gates. Not production:
// Mul(x,y) and Mul(y,x) differ, which §4.2 identifies as poisonous for
// complex arithmetic.
func Mul3DiscoveredNC() *Network {
	return &Network{
		Name:     "mul3-discovered-nc",
		NumWires: 9,
		InputLabels: []string{
			"p00", "e00", "p01", "p10", "e01", "e10", "c02", "c11", "c20",
		},
		OutputLabels: []string{"z0", "z1", "z2"},
		Outputs:      []int{0, 1, 3},
		Gates: []Gate{
			{Sum, 2, 3},
			{Sum, 1, 2},
			{Add, 6, 8},
			{Sum, 3, 5},
			{Sum, 7, 4},
			{Add, 3, 6},
			{Sum, 0, 1},
			{Sum, 2, 7},
			{Add, 3, 2},
			{Sum, 1, 3},
		},
		ErrorBoundBits: BoundMul3.Bits(P64),
	}
}

// Mul3DiscoveredC is the size-10, depth-5 commutative three-term
// multiplication network found with the §4.2 commutativity constraint
// imposed (`fpantool search -n 3 -op mul -iters 25000 -maxgates 20
// -seed 1`). It pairs all three symmetric product groups — (p01,p10) with
// TwoSum, (e01,e10) and (c02,c20) with ⊕.
//
// Measured behaviour (TestDiscoveredMul3Deep): it MEETS the paper's
// 2^-(3p-3) error bound under strict inputs (worst observed 2^-156.2 over
// 2·10⁵ adversarial cases, zero bound failures) at two gates fewer than
// the paper's conjecturally optimal Figure 6 network — but its outputs
// violate the paper's strict half-ulp nonoverlap requirement on ~0.3% of
// cases (they are ulp-nonoverlapping). So it does not refute the paper's
// conjecture, which quantifies over networks satisfying both conditions;
// it shows the error bound alone is achievable in 10 gates, i.e. the
// strict-nonoverlap invariant is what the extra gates of Figure 6 buy.
func Mul3DiscoveredC() *Network {
	return &Network{
		Name:     "mul3-discovered-c",
		NumWires: 9,
		InputLabels: []string{
			"p00", "e00", "p01", "p10", "e01", "e10", "c02", "c11", "c20",
		},
		OutputLabels: []string{"z0", "z1", "z2"},
		Outputs:      []int{0, 1, 3},
		Gates: []Gate{
			{Sum, 2, 3},
			{Sum, 1, 2},
			{Add, 6, 8},
			{Add, 4, 5},
			{Sum, 3, 2},
			{Sum, 0, 1},
			{Sum, 6, 4},
			{Add, 7, 6},
			{Sum, 3, 7},
			{Sum, 1, 3},
		},
		ErrorBoundBits: BoundMul3.Bits(P64),
	}
}

// Add4Discovered is the size-26 four-term addition network found by
// `fpantool search -n 4 -iters 30000 -maxgates 45 -seed 1`. Its size
// matches the paper's Figure 4 (26 gates) — but it is a FALSE POSITIVE:
// it passes the search's statistical gate (2·10⁴ adversarial cases) yet
// fails the full verifier at 2^-143 on 46 of 6·10⁵ cases
// (TestDiscoveredAdd4Deep). It is kept as the E-Search experiment's
// cautionary artifact: at four terms the rounding-pattern space outgrows
// statistical gating, which is precisely why the paper pairs its search
// with a formal SMT verifier rather than testing.
func Add4Discovered() *Network {
	return &Network{
		Name:     "add4-discovered",
		NumWires: 8,
		InputLabels: []string{
			"x0", "y0", "x1", "y1", "x2", "y2", "x3", "y3",
		},
		OutputLabels: []string{"z0", "z1", "z2", "z3"},
		Outputs:      []int{0, 1, 2, 3},
		Gates: []Gate{
			{Sum, 2, 3},
			{Sum, 3, 4},
			{Sum, 5, 6},
			{Sum, 1, 0},
			{Sum, 6, 0},
			{Sum, 6, 0},
			{Sum, 5, 3},
			{Sum, 2, 4},
			{Sum, 2, 1},
			{Sum, 4, 7},
			{Sum, 3, 4},
			{Sum, 1, 5},
			{Sum, 1, 6},
			{Sum, 1, 2},
			{Sum, 0, 3},
			{Sum, 0, 6},
			{Sum, 6, 7},
			{Sum, 3, 5},
			{Sum, 6, 4},
			{Sum, 3, 6},
			{Sum, 0, 2},
			{Sum, 3, 2},
			{Sum, 0, 1},
			{Sum, 2, 6},
			{Sum, 1, 3},
			{Sum, 2, 3},
		},
		ErrorBoundBits: BoundAdd4.Bits(P64),
	}
}
