package fpan

import (
	"strings"
	"testing"
)

// handAdd2 builds core.Add2's program by hand with a given parameter
// order: regs x0,x1,y0,y1 or any permutation perm mapping logical
// (x0,x1,y0,y1) to register indices.
func handAdd2(perm [4]int) *Program {
	x0, x1, y0, y1 := perm[0], perm[1], perm[2], perm[3]
	r := func(i int) Operand { return Operand{Reg: i} }
	return &Program{
		Name: "add2", NumParams: 4, NumRegs: 12,
		ParamNames: []string{"p0", "p1", "p2", "p3"},
		Insts: []Inst{
			{Op: OpTwoSum, A: r(x0), B: r(y0), Dst: [2]int{4, 5}},     // s0,e0
			{Op: OpTwoSum, A: r(x1), B: r(y1), Dst: [2]int{6, 7}},     // s1,e1
			{Op: OpAdd, A: r(5), B: r(6), Dst: [2]int{8, -1}},         // c
			{Op: OpFastTwoSum, A: r(4), B: r(8), Dst: [2]int{9, 10}},  // v,w
			{Op: OpAdd, A: r(7), B: r(10), Dst: [2]int{11, -1}},       // t
			{Op: OpFastTwoSum, A: r(9), B: r(11), Dst: [2]int{3, -1}}, // placeholder fixed below
		},
	}
}

func mustAdd2Prog(t *testing.T, perm [4]int) *Program {
	t.Helper()
	p := handAdd2(perm)
	// Final FastTwoSum writes two fresh regs and they are the outputs.
	p.NumRegs = 14
	p.Insts[5] = Inst{Op: OpFastTwoSum, A: Operand{Reg: 9}, B: Operand{Reg: 11}, Dst: [2]int{12, 13}}
	p.Outputs = []int{12, 13}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

// Parameter declaration order must not affect the canonical form: only
// first-use order matters (that is what makes generated blocks, whose
// params appear in load order, hash-equal their core reference kernels).
func TestCanonicalIgnoresParamOrder(t *testing.T) {
	a := mustAdd2Prog(t, [4]int{0, 1, 2, 3}) // declared x0,x1,y0,y1
	b := mustAdd2Prog(t, [4]int{0, 2, 1, 3}) // declared x0,y0,x1,y1
	if a.Hash() != b.Hash() {
		t.Fatalf("hash differs across param order:\n%v\nvs\n%v", a.Canonical(), b.Canonical())
	}
	if d := a.Diff(b); d != "" {
		t.Fatalf("unexpected diff: %s", d)
	}
}

// A swapped gate must change the hash and produce a located diff.
func TestDiffReportsGateSwap(t *testing.T) {
	a := mustAdd2Prog(t, [4]int{0, 1, 2, 3})
	b := mustAdd2Prog(t, [4]int{0, 1, 2, 3})
	b.Insts[2].Op = OpTwoSum // Add gate strengthened: different network
	b.Insts[2].Dst = [2]int{8, -1}
	// keep it structurally valid: TwoSum needs two dsts
	b.NumRegs = 15
	b.Insts[2].Dst = [2]int{8, 14}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.Hash() == b.Hash() {
		t.Fatal("gate swap did not change hash")
	}
	if d := a.Diff(b); d == "" {
		t.Fatal("gate swap not reported by Diff")
	}
}

// The hand-built add2 program must convert to a gate network identical to
// the paper's canonical add2 under canonical wire numbering, and a
// FromNetwork round trip must preserve the structure.
func TestGateNetworkMatchesCanonicalAdd2(t *testing.T) {
	p := mustAdd2Prog(t, [4]int{0, 1, 2, 3})
	net, err := p.GateNetwork()
	if err != nil {
		t.Fatal(err)
	}
	if d := DiffNetworks(net, Add2()); d != "" {
		t.Fatalf("lifted add2 differs from canonical: %s", d)
	}
	// Round trip: canonical network -> program -> network.
	fp, err := FromNetwork(Add2())
	if err != nil {
		t.Fatal(err)
	}
	rt, err := fp.GateNetwork()
	if err != nil {
		t.Fatal(err)
	}
	if d := DiffNetworks(rt, Add2()); d != "" {
		t.Fatalf("FromNetwork round trip drifted: %s", d)
	}
	if fp.Hash() != p.Hash() {
		t.Fatal("FromNetwork(add2) and hand-lifted add2 disagree")
	}
}

// A network that reads wire B of an earlier Add, by a gate or as an
// output, has no Program form: FromNetwork must refuse it rather than emit
// a read of register -1.
func TestFromNetworkRejectsConsumedWire(t *testing.T) {
	for _, tc := range []struct {
		gates   []Gate
		outputs []int
		want    string
	}{
		{[]Gate{{Add, 0, 1}, {Sum, 1, 2}}, []int{0, 2}, "gate 1 reads wire 1"},
		{[]Gate{{Add, 0, 1}, {Sum, 0, 2}}, []int{0, 1}, "output wire 1"},
	} {
		net := &Network{
			Name:         "consumed",
			NumWires:     3,
			InputLabels:  []string{"a", "b", "c"},
			OutputLabels: make([]string, len(tc.outputs)),
			Outputs:      tc.outputs,
			Gates:        tc.gates,
		}
		if err := net.Validate(); err != nil {
			t.Fatalf("%v: %v", tc.gates, err)
		}
		p, err := FromNetwork(net)
		if err == nil {
			t.Errorf("%v -> %v: accepted as %v -> %v", tc.gates, tc.outputs, p.Insts, p.Outputs)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v -> %v: error %q does not name %q", tc.gates, tc.outputs, err, tc.want)
		}
	}
}

// Every registered spec must be internally consistent.
func TestSpecRegistry(t *testing.T) {
	for _, name := range SpecNames() {
		s := SpecByName(name)
		if s.Name != name {
			t.Errorf("spec %q has Name %q", name, s.Name)
		}
		if s.Ref == "" {
			t.Errorf("spec %q has no reference kernel", name)
		}
		if len(s.Groups) == 0 || s.NumParams() == 0 {
			t.Errorf("spec %q has no input groups", name)
		}
		if s.P < 2 || s.P > 6 {
			t.Errorf("spec %q precision %d outside the exhaustive range", name, s.P)
		}
		if s.Canon != "" && ByName(s.Canon) == nil {
			t.Errorf("spec %q names unknown canonical network %q", name, s.Canon)
		}
	}
	for _, name := range []string{"add2", "add3", "add4", "mul2", "mul3", "mul4"} {
		if SpecByName(name) == nil || SpecByName(name).Canon == "" {
			t.Errorf("spec %q should carry a canonical network diff", name)
		}
	}
}
