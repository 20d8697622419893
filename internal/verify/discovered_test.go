package verify

import (
	"testing"

	"multifloats/internal/fpan"
)

// TestDiscoveredAdd2Deep checks what Add2Discovered's doc comment states:
// the network meets its bound, under strict and weak inputs, but its
// outputs violate the weak nonoverlap invariant.
func TestDiscoveredAdd2Deep(t *testing.T) {
	if testing.Short() {
		t.Skip("deep sweep skipped in -short mode")
	}
	net := fpan.Add2Discovered()
	for _, strict := range []bool{true, false} {
		worst := 1e18
		var fails, weak int
		for _, seed := range []int64{999, 7, 123456, 31337} {
			gen := NewExpansionGen(seed)
			gen.Strict = strict
			rep := VerifyAddWith(gen, net, 2, 150000)
			fails += rep.BoundFailures + rep.ZeroFailures
			weak += rep.WeakNOFailures
			if rep.WorstErrBits < worst {
				worst = rep.WorstErrBits
			}
		}
		t.Logf("strict=%v: worst 2^-%.2f vs bound 2^-105, bound/zero fails %d, weak-NO fails %d",
			strict, worst, fails, weak)
		if fails != 0 || weak == 0 {
			t.Errorf("strict=%v: want no bound/zero failures and some weak-NO failures", strict)
		}
	}
}

// TestDiscoveredAdd3Deep validates the search-found size-14 add3 (matching
// the paper's Figure 3 size) against the full adversarial verifier: no
// bound failures, but some weak-nonoverlap failures, as discovered.go
// states.
func TestDiscoveredAdd3Deep(t *testing.T) {
	if testing.Short() {
		t.Skip("deep sweep skipped in -short mode")
	}
	net := fpan.Add3Discovered()
	var fails, weak int
	worst := 1e18
	for _, seed := range []int64{999, 7, 123456, 31337} {
		rep := VerifyAdd(net, 3, 150000, seed)
		fails += rep.BoundFailures + rep.ZeroFailures
		weak += rep.WeakNOFailures
		if rep.WorstErrBits < worst {
			worst = rep.WorstErrBits
		}
	}
	t.Logf("add3-discovered (size %d depth %d): worst 2^-%.2f vs 2^-%d, bound/zero fails %d, weak-NO fails %d",
		net.Size(), net.Depth(), worst, net.ErrorBoundBits, fails, weak)
	if fails != 0 || weak == 0 {
		t.Error("want no bound/zero failures and some weak-NO failures")
	}
}

// TestDiscoveredMul3Deep validates the commutative size-10 mul3 discovery
// at the library bound. Under strict inputs it also meets the paper's
// tighter bound, but its outputs violate the paper's strict nonoverlap
// invariant — so it does not refute Figure 6's conjectured optimality,
// which asks for both.
func TestDiscoveredMul3Deep(t *testing.T) {
	if testing.Short() {
		t.Skip("deep sweep skipped in -short mode")
	}
	net := fpan.Mul3DiscoveredC()
	var fails, weak int
	worst := 1e18
	for _, seed := range []int64{999, 7, 123456, 31337} {
		rep := VerifyMul(net, 3, 100000, seed)
		fails += rep.BoundFailures + rep.ZeroFailures
		weak += rep.WeakNOFailures
		if rep.WorstErrBits < worst {
			worst = rep.WorstErrBits
		}
	}
	t.Logf("mul3-discovered-c (size %d depth %d): worst 2^-%.2f vs 2^-%d, bound/zero fails %d, weak-NO fails %d",
		net.Size(), net.Depth(), worst, net.ErrorBoundBits, fails, weak)
	if fails != 0 {
		t.Errorf("%d bound/zero failures at the library bound", fails)
	}

	// At the paper's own bound (3p-3 = 156) under strict inputs.
	strictNet := net.Clone()
	strictNet.ErrorBoundBits = fpan.PaperBoundMul[3].Bits(fpan.P64)
	gen := NewExpansionGen(5)
	gen.MaxLeadExp = 100
	gen.Strict = true
	rep := VerifyMulWith(gen, strictNet, 3, 200000)
	t.Logf("at paper bound under strict inputs: %v", rep)
	if rep.BoundFailures+rep.ZeroFailures != 0 || rep.StrictNOFailures == 0 {
		t.Error("at the paper bound under strict inputs: want no bound/zero failures and some strict-NO failures")
	}
}

// TestDiscoveredAdd4Deep documents that the search-found size-26 add4 is a
// false positive: it passes the search's 2·10⁴-case statistical gate but
// fails the full adversarial verifier — the cautionary half of the
// E-Search experiment (at four terms, testing alone cannot stand in for
// the paper's formal verification).
func TestDiscoveredAdd4Deep(t *testing.T) {
	if testing.Short() {
		t.Skip("deep sweep skipped in -short mode")
	}
	net := fpan.Add4Discovered()
	var fails, weak int
	worst := 1e18
	for _, seed := range []int64{999, 7, 123456, 31337} {
		rep := VerifyAdd(net, 4, 150000, seed)
		fails += rep.BoundFailures + rep.ZeroFailures
		weak += rep.WeakNOFailures
		if rep.WorstErrBits < worst {
			worst = rep.WorstErrBits
		}
	}
	t.Logf("add4-discovered (size %d depth %d): worst 2^-%.2f vs 2^-%d, bound/zero fails %d, weak-NO fails %d",
		net.Size(), net.Depth(), worst, net.ErrorBoundBits, fails, weak)
	if fails == 0 {
		t.Error("add4-discovered passed the bound: the false positive this test records is gone")
	}
}
