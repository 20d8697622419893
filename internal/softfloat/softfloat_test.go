package softfloat

import (
	"math/rand"
	"testing"

	"multifloats/internal/fpan"
)

func TestRNEAgainstBruteForce(t *testing.T) {
	// For p = 3, enumerate the representable set up to 128 and verify
	// nearest-even rounding against a brute-force search.
	const p = 3
	var repr []int64
	for v := int64(0); v <= 256; v++ {
		if Representable(v, p) {
			repr = append(repr, v)
		}
	}
	for v := int64(0); v <= 128; v++ {
		got := RNE(v, p)
		// Brute force: nearest representable, ties to the one whose
		// significand is even.
		best := repr[0]
		bestD := v - best
		if bestD < 0 {
			bestD = -bestD
		}
		for _, r := range repr {
			d := v - r
			if d < 0 {
				d = -d
			}
			if d < bestD {
				best, bestD = r, d
			} else if d == bestD && r != best {
				// Tie: pick even significand.
				if evenSig(r, p) && !evenSig(best, p) {
					best = r
				}
			}
		}
		if got != best {
			t.Fatalf("RNE(%d, %d) = %d, brute force %d", v, p, got, best)
		}
		if RNE(-v, p) != -best {
			t.Fatalf("RNE(-%d) not symmetric", v)
		}
	}
}

func evenSig(v int64, p uint) bool {
	if v == 0 {
		return true
	}
	u := Ulp(v, p)
	return (v/u)&1 == 0
}

func TestTwoSumErrorRepresentable(t *testing.T) {
	const p = 4
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		a := randP(rng, p, 20)
		b := randP(rng, p, 20)
		s, e := TwoSum(a, b, p)
		if s != RNE(a+b, p) {
			t.Fatalf("TwoSum sum wrong")
		}
		if !Representable(e, p) {
			t.Fatalf("TwoSum error %d not representable at p=%d (a=%d b=%d)", e, p, a, b)
		}
	}
}

// randP returns a random p-bit value with exponent range [0, maxExp).
func randP(rng *rand.Rand, p uint, maxExp int) int64 {
	if rng.Intn(16) == 0 {
		return 0
	}
	m := int64(1)<<(p-1) + rng.Int63n(1<<(p-1))
	v := m << uint(rng.Intn(maxExp))
	if rng.Intn(2) == 0 {
		v = -v
	}
	return v
}

// runner compiles net to its Program form and returns an executor of it
// in the exact small-p model. Each call returns the outputs (valid until
// the next call) and the exact discarded error Σin − Σout.
func runner(t *testing.T, net *fpan.Network, p uint) func(in []int64) (out []int64, discarded int64) {
	t.Helper()
	prog, err := fpan.FromNetwork(net)
	if err != nil {
		t.Fatal(err)
	}
	regs := make([]int64, prog.NumRegs)
	var out []int64
	return func(in []int64) ([]int64, int64) {
		out = RunProgram(prog, in, p, regs, out[:0])
		var d int64
		for _, v := range in {
			d += v
		}
		for _, v := range out {
			d -= v
		}
		return out, d
	}
}

// enumAdd2 enumerates strictly nonoverlapping 2-term input pairs (the
// paper's Eq. 8 invariant, the setting of its own verification) for the
// given precision and calls f for each input vector (x0,y0,x1,y1).
// x0 is fixed positive with exponent S (scale and global-sign symmetry).
//
// The strict invariant matters at tiny p: under the library's weak (2·ulp)
// invariant a 3-bit tail can cancel half of the leading term, which is
// outside any double-word error regime; at p = 53 the distinction is a
// negligible factor in the tail (covered by the adversarial float64
// verifier instead).
func enumAdd2(p uint, f func(in []int64) bool) (total int, bad int) {
	gapX := int(p) + 6 // x1 exponent reach below the nonoverlap boundary
	dyMax := 2*int(p) + 6
	S := uint(dyMax + 2*int(p) + gapX + 2)
	in := make([]int64, 4)

	// Second terms: zero, the exact half-ulp boundary ±2^(e0-p), or any
	// mantissa at value exponents ≤ e0-p-1.
	seconds := func(e0 int) []int64 {
		out := []int64{0}
		if e0-int(p) >= 0 {
			b := int64(1) << uint(e0-int(p))
			out = append(out, b, -b)
		}
		for g := 0; g <= gapX; g++ {
			e := e0 - 2*int(p) + 1 - g
			if e < 0 {
				break
			}
			for m := int64(1) << (p - 1); m < 1<<p; m++ {
				v := m << uint(e)
				out = append(out, v, -v)
			}
		}
		return out
	}

	xSeconds := seconds(int(S))
	for m0 := int64(1) << (p - 1); m0 < 1<<p; m0++ {
		in[0] = m0 << S
		for dy := 0; dy <= dyMax; dy++ {
			e0y := int(S) - dy
			ySeconds := seconds(e0y)
			for my := int64(1) << (p - 1); my < 1<<p; my++ {
				for _, sy := range []int64{1, -1} {
					in[1] = sy * (my << uint(e0y))
					for _, x1 := range xSeconds {
						in[2] = x1
						for _, y1 := range ySeconds {
							in[3] = y1
							total++
							if !f(in) {
								bad++
							}
						}
					}
				}
			}
		}
	}
	return total, bad
}

// TestExhaustiveAdd2 exhaustively verifies the production add2 network at
// small precision over the stratified input space — the closest this
// repository comes to the paper's formal verification.
func TestExhaustiveAdd2(t *testing.T) {
	ps := []uint{3}
	if !testing.Short() {
		ps = append(ps, 4)
	}
	for _, p := range ps {
		q := fpan.BoundAdd2.Bits(int(p))
		run := runner(t, fpan.Add2(), p)
		total, bad := enumAdd2(p, func(in []int64) bool {
			out, disc := run(in)
			return CheckOutputs(out, disc, in[0]+in[1]+in[2]+in[3], q, p)
		})
		t.Logf("p=%d: %d cases exhaustively checked against bound 2^-%d", p, total, q)
		if bad != 0 {
			t.Errorf("p=%d: %d violations", p, bad)
		}
	}
}

// TestExhaustiveAdd2SmallRejected: at small p the undersized candidate is
// refuted by exhaustive enumeration, the exact shape of the paper's
// optimality argument.
func TestExhaustiveAdd2SmallRejected(t *testing.T) {
	const p = 3
	q := fpan.BoundAdd2.Bits(p)
	run := runner(t, fpan.Add2Small(), p)
	_, bad := enumAdd2(p, func(in []int64) bool {
		out, disc := run(in)
		return CheckOutputs(out, disc, in[0]+in[1]+in[2]+in[3], q, p)
	})
	if bad == 0 {
		t.Error("add2small unexpectedly passed exhaustive small-p verification")
	} else {
		t.Logf("p=%d: %d counterexamples found for the 5-gate candidate", p, bad)
	}
}

// sampleExpansion draws a random weakly nonoverlapping n-term expansion in
// the integer model.
func sampleExpansion(rng *rand.Rand, n int, p uint, S uint) []int64 {
	out := make([]int64, n)
	if rng.Intn(32) == 0 {
		return out
	}
	m := int64(1)<<(p-1) + rng.Int63n(1<<(p-1))
	v := m << S
	if rng.Intn(2) == 0 {
		v = -v
	}
	out[0] = v
	e := int(S)
	for i := 1; i < n; i++ {
		if rng.Intn(8) == 0 {
			break
		}
		// Weak nonoverlap: exponent ≤ e - p + 1 for general mantissa.
		gap := rng.Intn(int(p) + 4)
		e = e - int(p) + 1 - gap
		if e < 0 {
			break
		}
		m := int64(1)<<(p-1) + rng.Int63n(1<<(p-1))
		v := m << uint(e)
		if rng.Intn(2) == 0 {
			v = -v
		}
		out[i] = v
		e = exponentOf(out[i])
	}
	return out
}

func exponentOf(v int64) int {
	if v < 0 {
		v = -v
	}
	e := -1
	for v > 0 {
		v >>= 1
		e++
	}
	return e
}

// TestSampledAddNetworks runs dense sampled verification of add3/add4 in
// the exact integer model (the input space is too large to enumerate, as
// the paper notes about its own exhaustive search beyond 2 terms).
func TestSampledAddNetworks(t *testing.T) {
	cases := 300000
	if testing.Short() {
		cases = 60000
	}
	for _, tc := range []struct {
		net *fpan.Network
		n   int
		b   fpan.BoundSpec
	}{
		{fpan.Add3(), 3, fpan.BoundAdd3},
		{fpan.Add4(), 4, fpan.BoundAdd4},
	} {
		for _, p := range []uint{4, 5} {
			q := tc.b.Bits(int(p))
			run := runner(t, tc.net, p)
			rng := rand.New(rand.NewSource(int64(p) * 77))
			S := uint(4*int(p) + 20)
			bad := 0
			in := make([]int64, 2*tc.n)
			for i := 0; i < cases; i++ {
				x := sampleExpansion(rng, tc.n, p, S)
				y := sampleExpansion(rng, tc.n, p, S-uint(rng.Intn(int(p)+3)))
				if rng.Intn(4) == 0 {
					// Cancellation family.
					for j := range y {
						y[j] = -x[j]
					}
					if k := rng.Intn(tc.n); y[k] != 0 {
						y[k] += Ulp(y[k], p) * int64(1-rng.Intn(3))
						y[k] = RNE(y[k], p)
					}
				}
				var sum int64
				for j := 0; j < tc.n; j++ {
					in[2*j] = x[j]
					in[2*j+1] = y[j]
					sum += x[j] + y[j]
				}
				out, disc := run(in)
				// 4·ulp band: see CheckOutputsBand on small-p constants.
				if !CheckOutputsBand(out, disc, sum, q, p, 4) {
					bad++
					if bad < 4 {
						t.Logf("%s p=%d violation: in=%v out=%v disc=%d sum=%d",
							tc.net.Name, p, in, out, disc, sum)
					}
				}
			}
			if bad != 0 {
				t.Errorf("%s p=%d: %d violations in %d sampled cases (bound 2^-%d)",
					tc.net.Name, p, bad, cases, q)
			} else {
				t.Logf("%s p=%d: %d sampled cases clean (bound 2^-%d)", tc.net.Name, p, cases, q)
			}
		}
	}
}

// TestExhaustiveMul2 exhaustively verifies the mul2 network at p = 3 over
// strictly nonoverlapping operand pairs, checking against the exact
// product in the integer model (completing the small-p evidence for all
// six production networks: add2/mul2 exhaustive, the rest densely
// sampled).
func TestExhaustiveMul2(t *testing.T) {
	const p = 3
	run := runner(t, fpan.Mul2(), p)
	q := fpan.PaperBoundMul[2].Bits(p)
	gapX := int(p) + 4
	S := uint(2*int(p) + gapX + 4)

	seconds := func(e0 int) []int64 {
		out := []int64{0}
		if e0-int(p) >= 0 {
			b := int64(1) << uint(e0-int(p))
			out = append(out, b, -b)
		}
		for g := 0; g <= gapX; g++ {
			e := e0 - 2*int(p) + 1 - g
			if e < 0 {
				break
			}
			for m := int64(1) << (p - 1); m < 1<<p; m++ {
				v := m << uint(e)
				out = append(out, v, -v)
			}
		}
		return out
	}

	twoProd := func(a, b int64) (int64, int64) {
		prod := a * b
		pr := RNE(prod, p)
		return pr, prod - pr
	}

	in := make([]int64, 4)
	total, bad := 0, 0
	xSeconds := seconds(int(S))
	for m0 := int64(1) << (p - 1); m0 < 1<<p; m0++ {
		x0 := m0 << S
		for dy := 0; dy <= 2*int(p)+4; dy++ {
			e0y := int(S) - dy
			ySeconds := seconds(e0y)
			for my := int64(1) << (p - 1); my < 1<<p; my++ {
				for _, sy := range []int64{1, -1} {
					y0 := sy * (my << uint(e0y))
					for _, x1 := range xSeconds {
						for _, y1 := range ySeconds {
							total++
							// Expansion step in the exact model.
							p00, e00 := twoProd(x0, y0)
							c01 := RNE(x0*y1, p)
							c10 := RNE(x1*y0, p)
							in[0], in[1], in[2], in[3] = p00, e00, c01, c10
							out, _ := run(in)
							// Exact product of the full expansions.
							exact := (x0 + x1) * (y0 + y1)
							var sumOut int64
							for _, v := range out {
								sumOut += v
							}
							d := exact - sumOut
							if !CheckOutputs(out, d, exact, q, p) {
								bad++
								if bad < 4 {
									t.Logf("x=(%d,%d) y=(%d,%d): out=%v exact=%d", x0, x1, y0, y1, out, exact)
								}
							}
						}
					}
				}
			}
		}
	}
	t.Logf("p=%d: %d mul2 cases exhaustively checked against bound 2^-%d", p, total, q)
	if bad != 0 {
		t.Errorf("p=%d: %d violations", p, bad)
	}
}
