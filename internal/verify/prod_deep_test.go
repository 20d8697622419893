package verify

import (
	"testing"

	"multifloats/internal/fpan"
)

// TestProdDeep runs the production networks through a deep multi-seed
// adversarial sweep under the library's weak nonoverlap input invariant
// and fails on any bound, zero or weak-nonoverlap failure. Guarded by
// -short.
func TestProdDeep(t *testing.T) {
	if testing.Short() {
		t.Skip("deep sweep skipped in -short mode")
	}
	type cand struct {
		net *fpan.Network
		n   int
		mul bool
	}
	cands := []cand{
		{fpan.Add2(), 2, false},
		{fpan.Add3(), 3, false},
		{fpan.Add4(), 4, false},
		{fpan.Mul2(), 2, true},
		{fpan.Mul3(), 3, true},
		{fpan.Mul4(), 4, true},
	}
	for _, c := range cands {
		worst := 1e18
		var fails, weak int
		for _, seed := range []int64{999, 7, 123456, 31337} {
			var rep *Report
			if c.mul {
				rep = VerifyMul(c.net, c.n, 150000, seed)
			} else {
				rep = VerifyAdd(c.net, c.n, 150000, seed)
			}
			fails += rep.BoundFailures + rep.ZeroFailures
			weak += rep.WeakNOFailures
			if rep.WorstErrBits < worst {
				worst = rep.WorstErrBits
			}
		}
		t.Logf("%-6s size %2d depth %2d: worst 2^-%.2f (claimed 2^-%d), bound/zero fails %d, weak-NO fails %d",
			c.net.Name, c.net.Size(), c.net.Depth(), worst, c.net.ErrorBoundBits, fails, weak)
		if fails != 0 || weak != 0 {
			t.Errorf("%s: %d bound/zero and %d weak-NO failures; a production network must have none", c.net.Name, fails, weak)
		}
	}
}
