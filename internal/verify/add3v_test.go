package verify

import (
	"testing"

	"multifloats/internal/fpan"
)

// TestAdd3Variants sweeps the sorting-network add3 family deeply. Every
// variant meets the 2^-(3p-3) bound; only add3[SD] and add3[SUD] show
// weak-nonoverlap failures at these seeds. Guarded by -short.
func TestAdd3Variants(t *testing.T) {
	if testing.Short() {
		t.Skip("deep sweep skipped in -short mode")
	}
	weakFails := map[string]bool{"add3[SD]": true, "add3[SUD]": true}
	for _, pat := range []string{"D", "DU", "UD", "DD", "UU", "UDU", "DUD"} {
		net := fpan.BuildAddSort(3, pat)
		worst := 1e18
		var fails, weak, ulpf int
		for _, seed := range []int64{999, 7, 123456, 31337} {
			rep := VerifyAdd(net, 3, 150000, seed)
			fails += rep.BoundFailures + rep.ZeroFailures
			weak += rep.WeakNOFailures
			ulpf += rep.UlpNOFailures
			if rep.WorstErrBits < worst {
				worst = rep.WorstErrBits
			}
		}
		t.Logf("%-10s size %2d depth %2d: worst 2^-%.2f, bound/zero %d, ulp-NO %d, weak-NO %d",
			net.Name, net.Size(), net.Depth(), worst, fails, ulpf, weak)
		if fails != 0 {
			t.Errorf("%s: %d bound/zero failures", net.Name, fails)
		}
		if (weak != 0) != weakFails[net.Name] {
			t.Errorf("%s: %d weak-NO failures, want them only in %v", net.Name, weak, weakFails)
		}
	}
}
