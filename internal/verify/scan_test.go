package verify

import (
	"slices"
	"strings"
	"testing"

	"multifloats/internal/fpan"
)

// TestScanAddFamily reproduces, in miniature, the paper's structure search:
// it sweeps the VecSum pass patterns of the BuildAdd family and checks
// which members pass adversarial verification. This is how the production
// Add3/Add4 patterns were chosen.
func TestScanAddFamily(t *testing.T) {
	scanFamily(t, fpan.BuildAdd, 1000, []string{
		"U", "UU", "UD", "UUU", "UUD", "UDU", "UDD",
		"UUUU", "UUUD", "UUDU", "UDUD", "UUDD", "UDUU",
		"UUUDU", "UUDUD", "UDUDU", "UUUUD",
	}, map[int]string{
		2: "UU UUU UUD UDU UDD UUUU UUUD UUDU UDUD UUDD UDUU UUUDU UUDUD UDUDU UUUUD",
		3: "UUUU UUUDU UUDUD UDUDU UUUUD",
		4: "UUUU",
	})
}

// TestScanAddSortFamily sweeps the sorting-network-based family.
func TestScanAddSortFamily(t *testing.T) {
	scanFamily(t, fpan.BuildAddSort, 2000, []string{
		"", "U", "D", "UU", "UD", "DU", "UDU", "UUD", "UUU",
	}, map[int]string{
		2: "U D UU UD DU UDU UUD UUU",
		3: "D UU UD DU UDU UUD UUU",
		4: "UDU UUD UUU",
	})
}

// scanFamily verifies the members build(n, pat) of a network family for
// n = 2..4 and checks each verdict at the fixed seeds: the patterns
// listed in passing[n] pass, and every other member fails.
func scanFamily(t *testing.T, build func(n int, pattern string) *fpan.Network, seed int64, patterns []string, passing map[int]string) {
	if testing.Short() {
		t.Skip("structure scan skipped in -short mode")
	}
	const cases = 60000
	for n := 2; n <= 4; n++ {
		pass := strings.Fields(passing[n])
		for _, pat := range patterns {
			net := build(n, pat)
			rep := VerifyAdd(net, n, cases, seed+int64(n*137)+int64(len(pat)))
			status := "PASS"
			if rep.Failed() {
				status = "FAIL"
			}
			t.Logf("%-14s size %2d depth %2d: %s  (%s)",
				net.Name, net.Size(), net.Depth(), status, rep)
			if rep.Failed() == slices.Contains(pass, pat) {
				t.Errorf("%s: %s, but the recorded verdict is the opposite", net.Name, status)
			}
		}
	}
}
