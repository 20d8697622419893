package diffuzz

import (
	"math"
	"testing"
)

// TestCampaignSmoke runs a small deterministic campaign over every op.
// Any in-threshold bound violation or special-value contract break fails.
// This is the cheap always-on tier of the harness; cmd/mffuzz runs the
// same machinery for orders of magnitude more cases.
func TestCampaignSmoke(t *testing.T) {
	cases := 200
	blas := 3
	if testing.Short() {
		cases, blas = 60, 1
	}
	rep := Run(Config{Seed: 1, Cases: cases, BlasCases: blas})
	if len(rep.Ops) != len(Ops()) {
		t.Fatalf("campaign covered %d ops, registry has %d", len(rep.Ops), len(Ops()))
	}
	for _, or := range rep.Ops {
		t.Logf("%-14s cases=%-4d inTh=%-4d edge=%-3d special=%-3d worst=%.3g units (%.1f bits) edgeWorst=%.3g violations=%d",
			or.Name, or.Cases, or.InThresh, or.EdgeCases, or.Specials,
			or.WorstUnits, or.WorstBits, or.WorstEdgeUnits, or.Violations)
		if or.Violations > 0 {
			t.Errorf("%s: %d violations, first: %s", or.Name, or.Violations, or.FirstViolation)
		}
		if or.Cases == 0 {
			t.Errorf("%s: no cases ran", or.Name)
		}
	}
}

// TestCampaignDeterministic pins that a campaign is a pure function of
// its seed (required for triage: a reported worst case must replay).
func TestCampaignDeterministic(t *testing.T) {
	cfg := Config{Seed: 7, Cases: 40, BlasCases: 1}
	a, b := Run(cfg), Run(cfg)
	for i := range a.Ops {
		if a.Ops[i].WorstUnits != b.Ops[i].WorstUnits || a.Ops[i].WorstBits != b.Ops[i].WorstBits {
			t.Errorf("%s: reruns disagree: %v/%v vs %v/%v", a.Ops[i].Name,
				a.Ops[i].WorstUnits, a.Ops[i].WorstBits, b.Ops[i].WorstUnits, b.Ops[i].WorstBits)
		}
	}
}

// TestCanon pins the canonicalization used by the fuzz targets.
func TestCanon(t *testing.T) {
	if _, ok := Canon(2, []float64{math.NaN(), 1}); ok {
		t.Error("Canon accepted NaN")
	}
	if _, ok := Canon(2, []float64{math.MaxFloat64, math.MaxFloat64}); ok {
		t.Error("Canon accepted an overflowing sum")
	}
	// Overlapping raw terms must come back strongly nonoverlapping with
	// the same exact value.
	x, ok := Canon(3, []float64{1, 1, 0x1p-80})
	if !ok {
		t.Fatal("Canon rejected finite input")
	}
	if x[0] != 2 || x[1] != 0x1p-80 || x[2] != 0 {
		t.Errorf("Canon(1+1+2^-80) = %v", x)
	}
	// The decomposition preserves value exactly when it fits n terms.
	o := newOracle(oraclePrec)
	raw := []float64{0x1.fp10, -0x1.8p-40, 0x1p-90, -0x1p-140}
	c, ok := Canon(4, raw)
	if !ok {
		t.Fatal("Canon rejected finite input")
	}
	if o.sub(o.fromTerms(raw), o.fromTerms(c)).Sign() != 0 {
		t.Errorf("Canon changed the value: %v -> %v", raw, c)
	}
}

// TestSpecialContractProbes pins a few §4.4 collapse cases end to end
// through the Check functions (the exhaustive matrix lives in
// mf/special_test.go).
func TestSpecialContractProbes(t *testing.T) {
	specs := map[string]OpSpec{}
	for _, s := range Ops() {
		specs[s.Name] = s
	}
	nan := math.NaN()
	if out := CheckAdd(specs["add2"], []float64{nan, 0}, []float64{1, 0}); !out.OK || !out.Special {
		t.Errorf("add2(NaN, 1): %+v", out)
	}
	if out := CheckDiv(specs["div3"], []float64{1, 0, 0}, []float64{0, 0, 0}); !out.OK || !out.Special {
		t.Errorf("div3(1, 0): %+v", out)
	}
	if out := CheckSqrt(specs["sqrt4"], []float64{-1, 0, 0, 0}); !out.OK || !out.Special {
		t.Errorf("sqrt4(-1): %+v", out)
	}
	if out := CheckSqrt(specs["sqrt2"], []float64{0, 0}); !out.OK || !out.Special {
		t.Errorf("sqrt2(0): %+v", out)
	}
	if out := CheckRecip(specs["recip2"], []float64{math.Inf(1), 0}); !out.OK || !out.Special {
		t.Errorf("recip2(+Inf): %+v", out)
	}
}

// TestLogThresholdGatesResultTail pins the log family's in-threshold
// gate on the result: a result whose width-n tail would be subnormal is
// recorded, not enforced, however normal the operand is.
func TestLogThresholdGatesResultTail(t *testing.T) {
	for _, tc := range []struct {
		name string
		a    []float64
		want bool
	}{
		{"log2", []float64{1, 1e-300}, false}, // the FuzzLogExpRoundTrip reproducer
		{"log1p", []float64{1e-300, 0}, false},
		{"log1p", []float64{0x1p-960, 0}, true},
		{"log", []float64{1, 0x1p-900, 0}, true},
		{"log", []float64{1, 0x1p-900, 0, 0}, false},
		{"log10", []float64{2, 0}, true},
		{"log", []float64{1, 0}, true}, // exact zero result stays enforced
	} {
		if got := mathInTh(tc.name, tc.a, nil); got != tc.want {
			t.Errorf("mathInTh(%s, %v) = %v, want %v", tc.name, tc.a, got, tc.want)
		}
	}
}
