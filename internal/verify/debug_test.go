package verify

import (
	"fmt"
	"math"
	"os"
	"testing"

	"multifloats/internal/fpan"
)

// TestDebugWorstCase is a diagnostic harness: set FPAN_DEBUG=<network
// pattern> (e.g. "add4:UUUU") to dump the wire evolution of the worst
// verification case. Not run in normal test sweeps.
func TestDebugWorstCase(t *testing.T) {
	spec := os.Getenv("FPAN_DEBUG")
	if spec == "" {
		t.Skip("set FPAN_DEBUG=addN:PATTERN to enable")
	}
	var n int
	var pat string
	var net *fpan.Network
	if _, err := fmt.Sscanf(spec, "sadd%d:%s", &n, &pat); err == nil {
		net = fpan.BuildAddSort(n, pat)
	} else if _, err := fmt.Sscanf(spec, "add%d:%s", &n, &pat); err == nil {
		net = fpan.BuildAdd(n, pat)
	} else {
		t.Fatalf("bad FPAN_DEBUG %q", spec)
	}
	seed := int64(424242)
	cases := 200000
	if s := os.Getenv("FPAN_SEED"); s != "" {
		fmt.Sscanf(s, "%d", &seed)
	}
	if s := os.Getenv("FPAN_CASES"); s != "" {
		fmt.Sscanf(s, "%d", &cases)
	}
	rep := VerifyAdd(net, n, cases, seed)
	t.Logf("%s", rep)
	if rep.WorstInputs == nil {
		t.Fatal("no worst case recorded")
	}
	in := rep.WorstInputs
	t.Logf("worst inputs:")
	for i, v := range in {
		t.Logf("  in[%d] = %.17g  (exp %d)", i, v, exp(v))
	}
	// Re-run gate by gate, printing wires.
	w := append([]float64(nil), in...)
	for gi, g := range net.Gates {
		fpan.RunInPlace(&fpan.Network{Gates: []fpan.Gate{g}}, w)
		t.Logf("gate %2d %s(%d,%d): wires %v", gi, g.Kind, g.A, g.B, compact(w))
	}
}

func compact(w []float64) []string {
	out := make([]string, len(w))
	for i, v := range w {
		if v == 0 {
			out[i] = "0"
		} else {
			out[i] = fmt.Sprintf("%.3e", v)
		}
	}
	return out
}

func exp(v float64) int {
	if v == 0 {
		return -9999
	}
	_, e := math.Frexp(math.Abs(v))
	return e - 1
}
