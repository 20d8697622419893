package fpan

// This file defines the concrete FPANs used by the library, reconstructing
// the six networks of the paper's Figures 2–7.
//
// The paper presents its networks only as diagrams, so the exact gate graphs
// are not recoverable from the text. The networks below are reconstructions
// built from the same ingredients the paper cites (Møller/Knuth TwoSum,
// Dekker FastTwoSum, the double-word algorithms of Joldes–Muller–Popescu,
// and VecSum-style renormalization passes), with the same interfaces, the
// same commutativity-enforcing first layer, and the same claimed error
// bounds. Every network is validated by internal/verify against its stated
// bound; measured (size, depth) versus the paper's values are recorded in
// EXPERIMENTS.md.
//
// Precision constants are expressed for the generic machine precision p at
// execution time; ErrorBoundBits stores the bound for p = 53 (float64) and
// is rescaled by callers for other base types via BoundBits.

// P64 is the significand precision of float64.
const P64 = 53

// P32 is the significand precision of float32.
const P32 = 24

// BoundBits returns the error-bound exponent q for machine precision p,
// given the network family parameters (a, b) meaning q = a·p - b.
type BoundSpec struct{ A, B int }

func (s BoundSpec) Bits(p int) int { return s.A*p - s.B }

// Bound specifications for the six production networks, as claimed in the
// paper (§4, Figures 2–7).
var (
	// BoundAdd2 is 2^-(2p-3): two bits weaker than the paper's 2^-(2p-1).
	// One bit comes from the network: the 6-gate reconstruction below is
	// the AccurateDWPlusDW network, whose worst case is 3u² ≈ 2^-(2p-1.42)
	// (a bound proven tight by Joldes–Muller–Popescu), while the paper's
	// own 6-gate network must differ in a way the text does not specify.
	// The other bit comes from the input invariant: the library admits
	// weakly (2·ulp) nonoverlapping inputs rather than the paper's strict
	// Eq. 8. Verified empirically: worst observed 2^-103.1 over 6·10⁵
	// adversarial cases (EXPERIMENTS.md).
	BoundAdd2 = BoundSpec{2, 3}
	BoundAdd3 = BoundSpec{3, 3} // 2^-(3p-3)|x+y|, as in the paper
	BoundAdd4 = BoundSpec{4, 4} // 2^-(4p-4)|x+y|, as in the paper

	// The multiplication bounds below are 3–7 bits weaker than the
	// paper's (2p-3, 3p-3, 4p-4). The difference is the input invariant:
	// this library's closed invariant is weak nonoverlap (|x_i| ≤
	// 2·ulp(x_{i-1})), under which the dropped TwoProd terms of the
	// expansion step are up to 2^(2(i+j)) times larger than under the
	// paper's strict half-ulp invariant (Eq. 8). With strictly
	// nonoverlapping inputs the paper's bounds hold; both regimes are
	// verified in internal/verify and recorded in EXPERIMENTS.md.
	BoundMul2 = BoundSpec{2, 6}  // 2^-(2p-6)|xy| (paper: 2p-3); worst seen 2^-100.7
	BoundMul3 = BoundSpec{3, 8}  // 2^-(3p-8)|xy| (paper: 3p-3); worst seen 2^-151.5
	BoundMul4 = BoundSpec{4, 11} // 2^-(4p-11)|xy| (paper: 4p-4); worst seen 2^-202.0
)

// PaperBoundMul gives the paper's multiplication bounds, which this
// library's networks meet when inputs satisfy the strict half-ulp
// nonoverlap invariant (verified by TestMulPaperBoundsStrictInputs).
var PaperBoundMul = map[int]BoundSpec{2: {2, 3}, 3: {3, 3}, 4: {4, 4}}

// Add2 returns the 2-term addition FPAN (paper Figure 2; size 6).
//
// This reconstruction is the AccurateDWPlusDW algorithm of
// Joldes–Muller–Popescu (2017), which is an FPAN of size 6:
//
//	(s0,e0) = TwoSum(x0,y0); (s1,e1) = TwoSum(x1,y1)
//	c = e0 ⊕ s1
//	(v,w) = FastTwoSum(s0,c)
//	t = e1 ⊕ w
//	(z0,z1) = FastTwoSum(v,t)
func Add2() *Network {
	return &Network{
		Name:         "add2",
		NumWires:     4,
		InputLabels:  []string{"x0", "y0", "x1", "y1"},
		OutputLabels: []string{"z0", "z1"},
		Outputs:      []int{0, 3},
		Gates: []Gate{
			{Sum, 0, 1},     // (s0,e0)
			{Sum, 2, 3},     // (s1,e1)
			{Add, 1, 2},     // c = e0 ⊕ s1        [discard]
			{FastSum, 0, 1}, // (v,w) = FastTwoSum(s0,c)
			{Add, 3, 1},     // t = e1 ⊕ w          [discard]
			{FastSum, 0, 3}, // (z0,z1)
		},
		ErrorBoundBits: BoundAdd2.Bits(P64),
	}
}

// Add2Discovered is a size-6, depth-4 network from this repository's
// annealing search, matching the paper's optimal (size, depth) = (6, 4)
// for Figure 2 exactly — one better in depth than the AccurateDWPlusDW
// reconstruction used in production — and meeting
// the paper's 2^-(2p-1) error bound (worst observed 2^-105.2 over 6·10⁵
// adversarial cases, versus 2^-103.1 for Add2).
//
// It is NOT used as the production network because its outputs violate the
// library's weak nonoverlap invariant on roughly 1 in 10³ adversarial
// inputs, so it is not closed under composition; the paper's own Figure 2
// network satisfies both properties simultaneously, which our statistical
// search has not yet reproduced. See EXPERIMENTS.md (E-Search).
//
// This gate list is its only record. The command once credited with
// finding it, `fpantool search -n 2 -seed 1`, now returns a different
// (6, 4) network, and no seed from 1 to 120 returns this one.
func Add2Discovered() *Network {
	return &Network{
		Name:         "add2-discovered",
		NumWires:     4,
		InputLabels:  []string{"x0", "y0", "x1", "y1"},
		OutputLabels: []string{"z0", "z1"},
		Outputs:      []int{0, 1},
		Gates: []Gate{
			{Sum, 0, 1},
			{Sum, 2, 3},
			{Sum, 0, 3},
			{Sum, 0, 2},
			{Sum, 1, 3},
			{Sum, 1, 2},
		},
		ErrorBoundBits: BoundSpec{2, 1}.Bits(P64),
	}
}

// Add2Small is a 5-gate candidate that the verifier rejects: it demonstrates
// (statistically) the paper's claim that no FPAN of size < 6 computes
// 2-term addition to the required bound. Kept for the E-Opt2 experiment.
func Add2Small() *Network {
	return &Network{
		Name:         "add2small",
		NumWires:     4,
		InputLabels:  []string{"x0", "y0", "x1", "y1"},
		OutputLabels: []string{"z0", "z1"},
		Outputs:      []int{0, 1},
		Gates: []Gate{
			{Sum, 0, 1},     // (s0,e0)
			{Sum, 2, 3},     // (s1,e1)
			{Add, 1, 2},     // c = e0 ⊕ s1        [discard]
			{Add, 1, 3},     // w = c ⊕ e1          [discard]
			{FastSum, 0, 1}, // (z0,z1)
		},
		ErrorBoundBits: BoundAdd2.Bits(P64),
	}
}

// Add3 returns the 3-term addition FPAN (paper Figure 3: size 14, depth 8;
// this reconstruction: size 22, depth 11).
//
// Structure: a TwoSum sorting network over the six interleaved inputs
// (whose first layer is the paper's commutative layer) followed by two
// bottom-up VecSum passes. Chosen by the structure scan in internal/verify
// (TestScanAddSortFamily, TestAdd3Variants) as the smallest member of the
// family with zero violations of the 2^-(3p-3) bound and the weak
// nonoverlap invariant over 6·10⁵ adversarial cases.
func Add3() *Network {
	n := BuildAddSort(3, "UU")
	n.Name = "add3"
	return n
}

// Add4 returns the 4-term addition FPAN (paper Figure 4: size 26, depth 11;
// this reconstruction: size 37, depth 22).
//
// Structure: a Batcher odd-even TwoSum sorting network over the eight
// interleaved inputs, two bottom-up VecSum passes, and one top-down
// error-propagation pass, with the pass gates that cannot reach an output
// removed by liveness analysis (Simplify). Chosen by the structure scan
// as the smallest family member with zero violations of the 2^-(4p-4)
// bound and the weak nonoverlap invariant over 6·10⁵ adversarial cases
// (worst observed relative error 2^-213.3).
func Add4() *Network {
	n := Simplify(BuildAddSort(4, "UUD"))
	n.Name = "add4"
	return n
}

// Mul2 returns the 2-term multiplication FPAN (paper Figure 5; size 3,
// depth 3, matching the paper exactly).
//
// FPAN inputs (computed by the TwoProd expansion step, see core.Mul2):
//
//	p00, e00 = TwoProd(x0,y0);  c01 = x0 ⊗ y1;  c10 = x1 ⊗ y0
func Mul2() *Network {
	return &Network{
		Name:         "mul2",
		NumWires:     4,
		InputLabels:  []string{"p00", "e00", "c01", "c10"},
		OutputLabels: []string{"z0", "z1"},
		Outputs:      []int{0, 1},
		Gates: []Gate{
			{Add, 2, 3},     // t = c01 ⊕ c10 (commutative pairing) [discard]
			{Add, 1, 2},     // s = e00 ⊕ t                         [discard]
			{FastSum, 0, 1}, // (z0,z1) = FastTwoSum(p00,s)
		},
		ErrorBoundBits: BoundMul2.Bits(P64),
	}
}

// Mul3 returns the 3-term multiplication FPAN (paper Figure 6; size 12,
// depth 7, matching the paper exactly).
//
// FPAN inputs: p00,e00 = TwoProd(x0,y0); p01,e01 = TwoProd(x0,y1);
// p10,e10 = TwoProd(x1,y0); c02 = x0⊗y2; c11 = x1⊗y1; c20 = x2⊗y0.
func Mul3() *Network {
	return &Network{
		Name:     "mul3",
		NumWires: 9,
		InputLabels: []string{
			"p00", "e00", "p01", "p10", "e01", "e10", "c02", "c11", "c20",
		},
		OutputLabels: []string{"z0", "z1", "z2"},
		Outputs:      []int{0, 1, 3},
		Gates: []Gate{
			{Sum, 2, 3},     // (a1,b1) = TwoSum(p01,p10)  commutative layer
			{Sum, 1, 2},     // (h1,i2) = TwoSum(e00,a1)
			{Add, 6, 8},     // m = c02 ⊕ c20              commutative [discard]
			{Add, 4, 5},     // d2 = e01 ⊕ e10             commutative [discard]
			{Add, 7, 6},     // q = c11 ⊕ m                [discard]
			{Add, 4, 7},     // r = d2 ⊕ q                 [discard]
			{Add, 3, 2},     // s2 = b1 ⊕ i2               [discard]
			{Add, 3, 4},     // t2 = s2 ⊕ r                [discard]
			{FastSum, 0, 1}, // (u0,v1) = FastTwoSum(p00,h1)
			{Sum, 1, 3},     // (z1a,w2) = TwoSum(v1,t2)
			{FastSum, 0, 1}, // (z0,c1) = FastTwoSum(u0,z1a)
			{Sum, 1, 3},     // (z1,z2) = TwoSum(c1,w2)
		},
		ErrorBoundBits: BoundMul3.Bits(P64),
	}
}

// Mul4 returns the 4-term multiplication FPAN (paper Figure 7; paper
// size 27, this reconstruction size 26).
//
// FPAN inputs: TwoProd pairs for i+j ≤ 2 and plain products for i+j = 3:
//
//	p00,e00; p01,p10,e01,e10; p02,p20,p11,e02,e20,e11; c03,c12,c21,c30
func Mul4() *Network {
	return &Network{
		Name:     "mul4",
		NumWires: 16,
		InputLabels: []string{
			"p00", "e00", "p01", "p10", "e01", "e10",
			"p02", "p20", "p11", "e02", "e20", "e11",
			"c03", "c12", "c21", "c30",
		},
		OutputLabels: []string{"z0", "z1", "z2", "z3"},
		Outputs:      []int{0, 1, 3, 11},
		Gates: []Gate{
			{Sum, 2, 3},   // (a1,b1) = TwoSum(p01,p10)   commutative layer
			{Sum, 1, 2},   // (h1,i2) = TwoSum(e00,a1)
			{Sum, 6, 7},   // (a2,b2) = TwoSum(p02,p20)   commutative layer
			{Sum, 4, 5},   // (d2,f3) = TwoSum(e01,e10)   commutative layer
			{Sum, 8, 6},   // (m2,n3) = TwoSum(p11,a2)
			{Sum, 4, 8},   // (q2,r3) = TwoSum(d2,m2)
			{Sum, 3, 2},   // (s2,t3) = TwoSum(b1,i2)
			{Sum, 3, 4},   // (v2,w3) = TwoSum(s2,q2)
			{Add, 9, 10},  // A = e02 ⊕ e20               commutative [discard]
			{Add, 12, 15}, // B = c03 ⊕ c30               commutative [discard]
			{Add, 13, 14}, // C = c12 ⊕ c21               commutative [discard]
			{Add, 11, 9},  // D = e11 ⊕ A                 [discard]
			{Add, 12, 13}, // E = B ⊕ C                   [discard]
			{Add, 11, 12}, // F = D ⊕ E                   [discard]
			{Add, 7, 5},   // G = b2 ⊕ f3                 [discard]
			{Add, 6, 8},   // H = n3 ⊕ r3                 [discard]
			{Add, 4, 2},   // I = w3 ⊕ t3                 [discard]
			{Add, 7, 6},   // J = G ⊕ H                   [discard]
			{Add, 4, 7},   // K = I ⊕ J                   [discard]
			{Add, 11, 4},  // L = F ⊕ K                   [discard]
			// chain: p00(w0), h1(w1), v2(w3), L(w11)
			{FastSum, 0, 1}, // (u0,g1) = FastTwoSum(p00,h1)
			{Sum, 1, 3},     // (x2,y3) = TwoSum(g1,v2)
			{Sum, 3, 11},    // (R2,S3) = TwoSum(y3,L)
			{FastSum, 0, 1}, // (z0,c1) = FastTwoSum(u0,x2)
			{Sum, 1, 3},     // (z1,c2) = TwoSum(c1,R2)
			{Sum, 3, 11},    // (z2,z3) = TwoSum(c2,S3)
		},
		ErrorBoundBits: BoundMul4.Bits(P64),
	}
}

// All returns the six production networks keyed by name.
func All() map[string]*Network {
	nets := []*Network{Add2(), Add3(), Add4(), Mul2(), Mul3(), Mul4()}
	m := make(map[string]*Network, len(nets))
	for _, n := range nets {
		m[n.Name] = n
	}
	return m
}

// ByName returns the named production network (or candidate), or nil.
func ByName(name string) *Network {
	switch name {
	case "add2":
		return Add2()
	case "add2small":
		return Add2Small()
	case "add3":
		return Add3()
	case "add4":
		return Add4()
	case "mul2":
		return Mul2()
	case "mul3":
		return Mul3()
	case "mul4":
		return Mul4()
	case "add2-discovered":
		return Add2Discovered()
	case "add3-discovered":
		return Add3Discovered()
	case "add4-discovered":
		return Add4Discovered()
	case "mul3-discovered-c":
		return Mul3DiscoveredC()
	case "mul3-discovered-nc":
		return Mul3DiscoveredNC()
	}
	return nil
}
