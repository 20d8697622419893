package verify

import (
	"fmt"
	"math"
	"math/big"

	"multifloats/internal/eft"
	"multifloats/internal/fpan"
)

// Report aggregates the outcome of a verification run.
type Report struct {
	Network string
	Cases   int

	// BoundFailures counts cases whose relative deviation exceeded the
	// network's claimed 2^-q bound.
	BoundFailures int
	// ZeroFailures counts cases with an exactly-zero true result where the
	// network returned nonzero outputs (the bound demands exactness).
	ZeroFailures int
	// StrictNOFailures / UlpNOFailures / WeakNOFailures count violations
	// of the strict (half-ulp, paper Eq. 8), ulp (CAMPARY), and weak
	// (2·ulp, this library's closed) nonoverlapping invariants.
	StrictNOFailures int
	UlpNOFailures    int
	WeakNOFailures   int

	// WorstErrBits is the smallest observed -log2(relative error): the
	// empirical error-bound exponent. +Inf when every case was exact.
	WorstErrBits float64
	// WorstInputs is the FPAN input vector achieving WorstErrBits.
	WorstInputs []float64
}

// Failed reports whether the run found any violation of the claimed
// correctness conditions (using the weak 2·ulp nonoverlap invariant;
// strict and ulp violations are reported separately as statistics).
func (r *Report) Failed() bool {
	return r.BoundFailures > 0 || r.ZeroFailures > 0 || r.WeakNOFailures > 0
}

func (r *Report) String() string {
	worst := "exact"
	if !math.IsInf(r.WorstErrBits, 1) {
		worst = fmt.Sprintf("2^-%.1f", r.WorstErrBits)
	}
	return fmt.Sprintf(
		"%s: %d cases, worst rel err %s, bound fails %d, zero fails %d, strict-NO fails %d, ulp-NO fails %d, weak-NO fails %d",
		r.Network, r.Cases, worst, r.BoundFailures, r.ZeroFailures,
		r.StrictNOFailures, r.UlpNOFailures, r.WeakNOFailures)
}

func newReport(name string) *Report {
	return &Report{Network: name, WorstErrBits: math.Inf(1)}
}

// check runs net on one input vector and folds the paper's two
// correctness conditions (§3) into the report: the deviation of Σout from
// the exact reference result (Σin for addition, x·y for multiplication)
// against the network's 2^-q bound, and the nonoverlap of the outputs.
func (r *Report) check(net *fpan.Network, in []float64, exact *big.Float) {
	out := fpan.Run(net, in)
	r.Cases++
	diff := new(big.Float).SetPrec(2048).Sub(exact, exactSum(out))
	errBits := math.Inf(1)
	switch {
	case exact.Sign() == 0:
		// The bound 2^-q·|exact| = 0 demands exactness: any nonzero
		// output is a failure, and a nonzero deviation is unbounded.
		if diff.Sign() != 0 {
			errBits = math.Inf(-1)
		}
		for _, z := range out {
			if z != 0 {
				r.ZeroFailures++
				break
			}
		}
	case diff.Sign() != 0:
		rel := new(big.Float).SetPrec(2048).Quo(
			new(big.Float).Abs(diff),
			new(big.Float).SetPrec(2048).Abs(exact))
		f, _ := rel.Float64()
		errBits = -math.Log2(f)
		if errBits < float64(net.ErrorBoundBits) {
			r.BoundFailures++
		}
	}
	strict, ulp, weak := nonOverlap(out)
	if !strict {
		r.StrictNOFailures++
	}
	if !ulp {
		r.UlpNOFailures++
	}
	if !weak {
		r.WeakNOFailures++
	}
	if errBits < r.WorstErrBits {
		r.WorstErrBits = errBits
		r.WorstInputs = append([]float64(nil), in...)
	}
}

// VerifyAdd runs `cases` adversarial cases through an n-term addition
// network and checks the paper's correctness conditions.
func VerifyAdd(net *fpan.Network, nTerms, cases int, seed int64) *Report {
	return VerifyAddWith(NewExpansionGen(seed), net, nTerms, cases)
}

// VerifyAddWith is VerifyAdd with a caller-configured generator (e.g. one
// restricted to the paper's strict nonoverlap invariant).
func VerifyAddWith(gen *ExpansionGen, net *fpan.Network, nTerms, cases int) *Report {
	return verifyPairs(gen, net, nTerms, cases, func(x, y []float64) ([]float64, *big.Float) {
		in := Interleave(x, y)
		return in, exactSum(in)
	})
}

// VerifyMul runs `cases` adversarial cases through an n-term multiplication
// network. The bound for multiplication is relative to the exact product
// x·y (which includes the error of the dropped TwoProd terms), not to the
// sum of the FPAN inputs, so the check is performed against a big.Float
// product.
func VerifyMul(net *fpan.Network, nTerms, cases int, seed int64) *Report {
	gen := NewExpansionGen(seed)
	// Multiplication squares the exponent range; halve it so products and
	// their low-order error terms stay within thresholds.
	gen.MaxLeadExp = 100
	return VerifyMulWith(gen, net, nTerms, cases)
}

// VerifyMulWith is VerifyMul with a caller-configured generator.
func VerifyMulWith(gen *ExpansionGen, net *fpan.Network, nTerms, cases int) *Report {
	return verifyPairs(gen, net, nTerms, cases, func(x, y []float64) ([]float64, *big.Float) {
		return fpan.MulInputs(nTerms, x, y), exactProduct(x, y)
	})
}

// verifyPairs checks net on `cases` operand pairs drawn from gen; build
// turns each pair into the FPAN input vector and the exact reference.
func verifyPairs(gen *ExpansionGen, net *fpan.Network, nTerms, cases int,
	build func(x, y []float64) ([]float64, *big.Float)) *Report {
	rep := newReport(net.Name)
	for i := 0; i < cases; i++ {
		in, exact := build(gen.Pair(nTerms))
		rep.check(net, in, exact)
	}
	return rep
}

// exactSum returns the exact sum of xs as a big.Float with generous
// precision.
func exactSum(xs []float64) *big.Float {
	acc := new(big.Float).SetPrec(2048)
	tmp := new(big.Float).SetPrec(2048)
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		acc.Add(acc, tmp.SetFloat64(x))
	}
	return acc
}

// exactProduct returns (Σx)·(Σy) exactly.
func exactProduct(x, y []float64) *big.Float {
	bx := exactSum(x)
	by := exactSum(y)
	return new(big.Float).SetPrec(4096).Mul(bx, by)
}

// nonOverlap reports whether the expansion z satisfies the strict
// (|z_{i+1}| ≤ ulp(z_i)/2, paper Eq. 8), ulp (|z_{i+1}| ≤ ulp(z_i),
// CAMPARY), and weak (|z_{i+1}| ≤ 2·ulp(z_i), this library's closed
// invariant) nonoverlapping conditions. Interior zero terms are skipped:
// each nonzero term is compared against the previous nonzero term
// (Shewchuk's convention for expansions with zeros).
func nonOverlap(z []float64) (strict, ulp, weak bool) {
	strict, ulp, weak = true, true, true
	prev := 0.0
	for _, lo := range z {
		if lo == 0 {
			continue
		}
		if prev != 0 {
			u := eft.Ulp64(prev)
			if math.Abs(lo) > 2*u {
				weak = false
			}
			if math.Abs(lo) > u {
				ulp = false
			}
			if math.Abs(lo) > u/2 {
				strict = false
			}
		}
		prev = lo
	}
	return strict, ulp, weak
}
