package anneal

import (
	"io"
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"testing"

	"multifloats/internal/fpan"
)

func TestGrowExpansionExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		vals := make([]float64, 2+rng.Intn(6))
		for j := range vals {
			vals[j] = math.Ldexp(rng.Float64()-0.5, rng.Intn(200)-100)
		}
		e := exactExpansion(vals)
		want := new(big.Float).SetPrec(2048)
		tmp := new(big.Float)
		for _, v := range vals {
			want.Add(want, tmp.SetFloat64(v))
		}
		got := new(big.Float).SetPrec(2048)
		for _, v := range e {
			got.Add(got, tmp.SetFloat64(v))
		}
		if want.Cmp(got) != 0 {
			t.Fatalf("growExpansion inexact for %v", vals)
		}
	}
}

func TestCheckFastAcceptsProductionNetworks(t *testing.T) {
	for _, tc := range []struct {
		net *fpan.Network
		n   int
	}{
		{fpan.Add2(), 2},
		{fpan.Add3(), 3},
		{fpan.Add4(), 4},
	} {
		cases := MakeCases(tc.n, 30000, 17)
		buf := make([]float64, 2*tc.n)
		if !CheckFast(tc.net, cases, buf) {
			t.Errorf("%s rejected by fast checker", tc.net.Name)
		}
	}
}

func TestCheckFastRejectsBadNetwork(t *testing.T) {
	cases := MakeCases(2, 30000, 18)
	buf := make([]float64, 4)
	if CheckFast(fpan.Add2Small(), cases, buf) {
		t.Error("add2small accepted by fast checker")
	}
}

func TestSearchFindsVerifiedNetwork(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Iters = 400
	cfg.QuickCases = 1500
	cfg.DeepCases = 30000
	res := SearchAdd(2, cfg, io.Discard)
	if res.Best == nil {
		t.Fatal("search returned no verified network")
	}
	if res.Best.Size() > cfg.MaxGates {
		t.Errorf("best network oversize: %d", res.Best.Size())
	}
	// Whatever the search found must pass an independent deep check.
	cases := MakeCases(2, 30000, 99)
	buf := make([]float64, 4)
	if !CheckFast(res.Best, cases, buf) {
		t.Errorf("search result fails independent verification: %s", res.Best)
	}
}

func TestMulCasesExact(t *testing.T) {
	// The exact-product reference must match the FPAN inputs plus the
	// dropped terms: running the production network on the inputs must
	// land within its bound of the reference.
	cases := MakeMulCases(2, 20000, 21)
	buf := make([]float64, 4)
	if !CheckFast(fpan.Mul2(), cases, buf) {
		t.Error("mul2 rejected by its own fast checker")
	}
	cases3 := MakeMulCases(3, 10000, 22)
	buf3 := make([]float64, 9)
	if !CheckFast(fpan.Mul3(), cases3, buf3) {
		t.Error("mul3 rejected by its own fast checker")
	}
}

func TestSearchMulFindsNetwork(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Iters = 600
	cfg.QuickCases = 1500
	cfg.DeepCases = 25000
	cfg.MaxGates = 10
	res := SearchMul(2, cfg, io.Discard)
	if res.Best == nil {
		t.Fatal("mul2 search found no verified network")
	}
	t.Logf("discovered mul2-class network: size %d depth %d (production: 3, 3)",
		res.Best.Size(), res.Best.Depth())
	cases := MakeMulCases(2, 40000, 77)
	buf := make([]float64, 4)
	if !CheckFast(res.Best, cases, buf) {
		t.Errorf("mul2 search result fails independent verification")
	}
}

// The fixed-seed searches documented in internal/fpan/discovered.go must
// find the networks recorded there, gate for gate. This pins the RNG draw
// order of the annealing loop: any change to it changes these results.
func TestSearchReproducesDiscovered(t *testing.T) {
	if testing.Short() {
		t.Skip("three full-length searches skipped in -short mode")
	}
	for _, tc := range []struct {
		name            string
		want            *fpan.Network
		iters, maxGates int
		mul, comm       bool
	}{
		{"add3", fpan.Add3Discovered(), 25000, 30, false, false},
		{"mul3-nc", fpan.Mul3DiscoveredNC(), 20000, 20, true, false},
		{"mul3-c", fpan.Mul3DiscoveredC(), 25000, 20, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig()
			cfg.Iters, cfg.MaxGates, cfg.RequireCommutative = tc.iters, tc.maxGates, tc.comm
			run := SearchAdd
			if tc.mul {
				run = SearchMul
			}
			best := run(3, cfg, io.Discard).Best
			if best == nil {
				t.Fatal("search found no verified network")
			}
			if !reflect.DeepEqual(best.Gates, tc.want.Gates) || !reflect.DeepEqual(best.Outputs, tc.want.Outputs) {
				t.Errorf("search found %v -> %v, discovered.go records %v -> %v",
					best.Gates, best.Outputs, tc.want.Gates, tc.want.Outputs)
			}
		})
	}
}
