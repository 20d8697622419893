package verify

import (
	"testing"

	"multifloats/internal/fpan"
)

// addPerm maps the add-spec parameter order (x0..xn-1, y0..yn-1) onto the
// canonical networks' interleaved wire order (x0, y0, x1, y1, ...).
func addPerm(n int) []int {
	perm := make([]int, 2*n)
	for i := 0; i < n; i++ {
		perm[i] = 2 * i
		perm[n+i] = 2*i + 1
	}
	return perm
}

// The canonical addition networks must survive their full proof spaces:
// the same check cmd/mfprove applies to the lifted core kernels, driven
// here through the network→program conversion (the annealing path).
func TestExhaustiveCanonicalAdds(t *testing.T) {
	for _, tc := range []struct {
		spec string
		net  *fpan.Network
	}{
		{"add2", fpan.Add2()},
		{"add3", fpan.Add3()},
		{"add4", fpan.Add4()},
	} {
		t.Run(tc.spec, func(t *testing.T) {
			spec := fpan.SpecByName(tc.spec)
			if spec == nil {
				t.Fatalf("no spec %q", tc.spec)
			}
			prog, err := fpan.FromNetwork(tc.net)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Exhaustive(prog, spec, &ExhaustiveOptions{Perm: addPerm(spec.Groups[0].Terms)})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Ok() {
				t.Fatalf("%s: %d violations in %d cases; first %v -> %v",
					tc.spec, res.Violations, res.Cases, res.First, res.FirstOut)
			}
			t.Logf("%s: %d cases ok (minQ %d vs bound %d, maxBand %d vs %d)",
				tc.spec, res.Cases, res.MinQ, spec.Bound.Bits(int(spec.P)), res.MaxBand, spec.Band)
		})
	}
}

// Add2Small is the known-rejected 5-gate candidate: the exhaustive space
// must produce a counterexample, proving the driver can fail.
func TestExhaustiveRejectsAdd2Small(t *testing.T) {
	spec := fpan.SpecByName("add2")
	prog, err := fpan.FromNetwork(fpan.Add2Small())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Exhaustive(prog, spec, &ExhaustiveOptions{Perm: addPerm(2)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ok() {
		t.Fatalf("add2small passed %d cases; expected a counterexample", res.Cases)
	}
	if res.First == nil || res.FirstOut == nil {
		t.Fatal("violation recorded without a witness")
	}
	t.Logf("add2small counterexample: %v -> %v", res.First, res.FirstOut)
}

// A checkpoint with chunks marked done must skip them, and a mismatched
// checkpoint must be refused.
func TestExhaustiveCheckpoint(t *testing.T) {
	spec := fpan.SpecByName("add2")
	prog, err := fpan.FromNetwork(fpan.Add2())
	if err != nil {
		t.Fatal(err)
	}
	perm := addPerm(2)

	full, err := Exhaustive(prog, spec, &ExhaustiveOptions{Perm: perm})
	if err != nil {
		t.Fatal(err)
	}

	var chunks int
	_, err = Exhaustive(prog, spec, &ExhaustiveOptions{
		Perm:    perm,
		OnChunk: func(cp *Checkpoint) { chunks = cp.Chunks },
	})
	if err != nil {
		t.Fatal(err)
	}
	if chunks == 0 {
		t.Fatal("OnChunk never called")
	}

	// First half pre-marked done: the run must cover strictly fewer cases.
	cp := NewCheckpoint(spec, prog.Hash(), chunks)
	for i := 0; i < chunks/2; i++ {
		cp.Done[i] = true
	}
	part, err := Exhaustive(prog, spec, &ExhaustiveOptions{Perm: perm, Resume: cp})
	if err != nil {
		t.Fatal(err)
	}
	if part.Cases <= 0 || part.Cases >= full.Cases {
		t.Fatalf("resumed run covered %d cases, full run %d", part.Cases, full.Cases)
	}

	// A checkpoint for a different program must be rejected.
	bad := NewCheckpoint(spec, "deadbeef", chunks)
	if _, err := Exhaustive(prog, spec, &ExhaustiveOptions{Perm: perm, Resume: bad}); err == nil {
		t.Fatal("mismatched checkpoint accepted")
	}
}
