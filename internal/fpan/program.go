package fpan

// Program is the register-level IR that cmd/mfprove lifts annotated Go
// kernels into. A Network describes a pure accumulation network (wires,
// Add/Sum/FastSum gates); a Program additionally carries the expansion
// step of the multiplication kernels — rounded products, FMAs, and exact
// doublings — so every //mf:fpan kernel in the tree, not just the pure
// addition networks, has a liftable, hashable, executable form.
//
// Registers are single-assignment: params occupy registers 0..NumParams-1
// and every instruction writes fresh registers. The lifter enforces the
// wire discipline (each instruction result feeds exactly one consumer) so
// that a Program built from a pure add network converts losslessly to a
// Network via GateNetwork.
//
// TwoProd has no dedicated opcode. Both spellings that occur in source —
// the eft.TwoProd call and the generated inline form p := x*y followed by
// e := FMA(x, y, -p) — lower to the same OpProd + OpFMA pair, so the two
// forms are structurally identical and hash equal. In the exact softfloat
// model OpFMA computes RNE(a·b+c), which reproduces TwoProd's error term
// (including any precondition violation) with no special casing.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
)

// OpKind enumerates the Program instruction set.
type OpKind uint8

const (
	// OpTwoSum writes Dst[0] = RN(a+b), Dst[1] = a+b - Dst[0] (exact).
	OpTwoSum OpKind = iota
	// OpFastTwoSum executes Dekker's 3-op sequence literally; Dst[1] is
	// the exact error only under the FastTwoSum precondition.
	OpFastTwoSum
	// OpAdd writes Dst[0] = RN(a+b); the rounding error is discarded.
	OpAdd
	// OpProd writes Dst[0] = RN(a·b); the rounding error is discarded
	// unless a following OpFMA recovers it (the TwoProd pattern).
	OpProd
	// OpFMA writes Dst[0] = RN(a·b + c) with a single rounding.
	OpFMA
	// OpScale2 writes Dst[0] = 2·a, which is exact in unbounded-exponent
	// floating point (the squaring kernels' symmetric-term doubling).
	OpScale2
)

func (k OpKind) String() string {
	switch k {
	case OpTwoSum:
		return "twosum"
	case OpFastTwoSum:
		return "fastsum"
	case OpAdd:
		return "add"
	case OpProd:
		return "prod"
	case OpFMA:
		return "fma"
	case OpScale2:
		return "scale2"
	}
	return fmt.Sprintf("op(%d)", uint8(k))
}

// Operand is a register reference, possibly negated (x - y is
// add(x, -y); the FMA of the TwoProd pattern reads -p).
type Operand struct {
	Reg int
	Neg bool
}

func (o Operand) String() string {
	if o.Neg {
		return fmt.Sprintf("-r%d", o.Reg)
	}
	return fmt.Sprintf("r%d", o.Reg)
}

// Inst is one Program instruction. Two-output ops (OpTwoSum,
// OpFastTwoSum) use both Dst entries; all others set Dst[1] = -1.
// C is the FMA addend and unused otherwise.
type Inst struct {
	Op   OpKind
	A, B Operand
	C    Operand
	Dst  [2]int
}

// NumDst returns how many results the instruction writes.
func (in Inst) NumDst() int {
	if in.Op == OpTwoSum || in.Op == OpFastTwoSum {
		return 2
	}
	return 1
}

// NumIn returns how many operands the instruction reads.
func (in Inst) NumIn() int {
	switch in.Op {
	case OpFMA:
		return 3
	case OpScale2:
		return 1
	}
	return 2
}

func (in Inst) String() string {
	var b strings.Builder
	b.WriteString(in.Op.String())
	b.WriteByte(' ')
	b.WriteString(in.A.String())
	if in.NumIn() >= 2 {
		b.WriteByte(' ')
		b.WriteString(in.B.String())
	}
	if in.NumIn() >= 3 {
		b.WriteByte(' ')
		b.WriteString(in.C.String())
	}
	fmt.Fprintf(&b, " -> r%d", in.Dst[0])
	if in.NumDst() == 2 {
		fmt.Fprintf(&b, " r%d", in.Dst[1])
	}
	return b.String()
}

// Program is a lifted kernel: params in registers 0..NumParams-1,
// straight-line instructions, outputs read from registers.
type Program struct {
	Name       string
	NumParams  int
	ParamNames []string // len NumParams; empty strings allowed
	NumRegs    int
	Insts      []Inst
	Outputs    []int
}

// Validate reports structural problems: operand or destination registers
// out of range, reads of never-written registers, or multiply-assigned
// registers.
func (p *Program) Validate() error {
	if p.NumParams < 0 || p.NumParams > p.NumRegs {
		return fmt.Errorf("program %q: %d params in %d regs", p.Name, p.NumParams, p.NumRegs)
	}
	written := make([]bool, p.NumRegs)
	for i := 0; i < p.NumParams; i++ {
		written[i] = true
	}
	check := func(o Operand, i int) error {
		if o.Reg < 0 || o.Reg >= p.NumRegs {
			return fmt.Errorf("program %q: inst %d reads r%d out of range", p.Name, i, o.Reg)
		}
		if !written[o.Reg] {
			return fmt.Errorf("program %q: inst %d reads r%d before assignment", p.Name, i, o.Reg)
		}
		return nil
	}
	for i, in := range p.Insts {
		if err := check(in.A, i); err != nil {
			return err
		}
		if in.NumIn() >= 2 {
			if err := check(in.B, i); err != nil {
				return err
			}
		}
		if in.NumIn() >= 3 {
			if err := check(in.C, i); err != nil {
				return err
			}
		}
		for d := 0; d < in.NumDst(); d++ {
			r := in.Dst[d]
			if r < 0 || r >= p.NumRegs {
				return fmt.Errorf("program %q: inst %d writes r%d out of range", p.Name, i, r)
			}
			if written[r] {
				return fmt.Errorf("program %q: inst %d rewrites r%d (registers are single-assignment)", p.Name, i, r)
			}
			written[r] = true
		}
	}
	for _, r := range p.Outputs {
		if r < 0 || r >= p.NumRegs || !written[r] {
			return fmt.Errorf("program %q: output register r%d invalid", p.Name, r)
		}
	}
	return nil
}

// Canonical returns the program as a list of instruction lines with
// registers renumbered by order of first appearance (operands before
// destinations, instruction by instruction, outputs last). Two lifts of
// the same gate structure — whatever the source-level variable names,
// parameter order, or load order — produce identical canonical forms.
func (p *Program) Canonical() []string {
	canon := make([]int, p.NumRegs)
	for i := range canon {
		canon[i] = -1
	}
	next := 0
	id := func(r int) int {
		if canon[r] < 0 {
			canon[r] = next
			next++
		}
		return canon[r]
	}
	opnd := func(o Operand) string {
		if o.Neg {
			return fmt.Sprintf("-r%d", id(o.Reg))
		}
		return fmt.Sprintf("r%d", id(o.Reg))
	}
	lines := make([]string, 0, len(p.Insts)+1)
	for _, in := range p.Insts {
		var b strings.Builder
		b.WriteString(in.Op.String())
		b.WriteByte(' ')
		b.WriteString(opnd(in.A))
		if in.NumIn() >= 2 {
			b.WriteByte(' ')
			b.WriteString(opnd(in.B))
		}
		if in.NumIn() >= 3 {
			b.WriteByte(' ')
			b.WriteString(opnd(in.C))
		}
		fmt.Fprintf(&b, " -> r%d", id(in.Dst[0]))
		if in.NumDst() == 2 {
			fmt.Fprintf(&b, " r%d", id(in.Dst[1]))
		}
		lines = append(lines, b.String())
	}
	var b strings.Builder
	b.WriteString("out")
	for _, r := range p.Outputs {
		fmt.Fprintf(&b, " r%d", id(r))
	}
	lines = append(lines, b.String())
	return lines
}

// Hash returns a stable content hash of the canonical form — the proof
// cache key. Renamings and reorderings that Canonical normalizes away do
// not change the hash; any structural edit (a swapped gate, a re-routed
// wire, a changed output) does.
func (p *Program) Hash() string {
	h := sha256.Sum256([]byte(strings.Join(p.Canonical(), "\n")))
	return hex.EncodeToString(h[:12])
}

// Diff structurally compares p against a reference program and returns a
// human-readable description of the first divergence, or "" if the
// canonical forms are identical.
func (p *Program) Diff(ref *Program) string {
	a, b := p.Canonical(), ref.Canonical()
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			what := fmt.Sprintf("inst %d", i)
			if i >= len(p.Insts) || i >= len(ref.Insts) {
				what = "outputs"
			}
			return fmt.Sprintf("%s: lifted %q, reference %q", what, a[i], b[i])
		}
	}
	if len(a) != len(b) {
		return fmt.Sprintf("size: lifted %d insts, reference %d", len(p.Insts), len(ref.Insts))
	}
	return ""
}

// GateNetwork converts the pure accumulation-gate portion of the program
// into a Network for diffing against the paper's canonical networks.
//
// Every register produced outside the gate family — params, products,
// FMAs, doublings — becomes an input wire, numbered in order of first use
// by a gate; TwoSum/FastTwoSum/Add instructions become gates on those
// wires under the usual FPAN convention (a gate's results stay on the
// wires it read). It fails if a gate reads a negated operand, if a
// non-gate instruction consumes a gate result (then the program is not an
// accumulation network over fixed inputs), or if the wire discipline is
// violated (a wire value read again after being overwritten).
func (p *Program) GateNetwork() (*Network, error) {
	isGate := func(op OpKind) bool {
		return op == OpTwoSum || op == OpFastTwoSum || op == OpAdd
	}
	// wireOf[r] is the wire whose CURRENT value register r holds, -1 if r
	// is not live on any wire.
	wireOf := make([]int, p.NumRegs)
	live := make([]int, 0, p.NumRegs) // live[w] = register currently on wire w
	for i := range wireOf {
		wireOf[i] = -1
	}
	net := &Network{}
	wire := func(o Operand, i int) (int, error) {
		if o.Neg {
			return 0, fmt.Errorf("inst %d: gate reads negated operand %s", i, o)
		}
		if w := wireOf[o.Reg]; w >= 0 {
			if live[w] != o.Reg {
				return 0, fmt.Errorf("inst %d: reads stale wire value r%d", i, o.Reg)
			}
			return w, nil
		}
		w := len(live)
		wireOf[o.Reg] = w
		live = append(live, o.Reg)
		return w, nil
	}
	for i, in := range p.Insts {
		if !isGate(in.Op) {
			// A non-gate instruction may only combine non-gate values
			// (the expansion step ahead of the network); if it consumes a
			// gate result the program has no pure-network form.
			for _, o := range []Operand{in.A, in.B, in.C} {
				if o.Reg >= 0 && o.Reg < p.NumRegs && wireOf[o.Reg] >= 0 {
					return nil, fmt.Errorf("inst %d (%s) consumes accumulation wire r%d", i, in.Op, o.Reg)
				}
			}
			continue
		}
		wa, err := wire(in.A, i)
		if err != nil {
			return nil, err
		}
		wb, err := wire(in.B, i)
		if err != nil {
			return nil, err
		}
		if wa == wb {
			return nil, fmt.Errorf("inst %d: gate reads wire %d twice", i, wa)
		}
		var kind GateKind
		switch in.Op {
		case OpTwoSum:
			kind = Sum
		case OpFastTwoSum:
			kind = FastSum
		case OpAdd:
			kind = Add
		}
		net.Gates = append(net.Gates, Gate{Kind: kind, A: wa, B: wb})
		wireOf[in.Dst[0]] = wa
		live[wa] = in.Dst[0]
		if in.NumDst() == 2 {
			wireOf[in.Dst[1]] = wb
			live[wb] = in.Dst[1]
		} else {
			live[wb] = -1 // Add zeroes wire B; further reads are stale
		}
	}
	for _, r := range p.Outputs {
		w := wireOf[r]
		if w < 0 || live[w] != r {
			return nil, fmt.Errorf("output r%d is not a live wire value", r)
		}
		net.Outputs = append(net.Outputs, w)
	}
	net.NumWires = len(live)
	net.Name = p.Name
	net.InputLabels = make([]string, net.NumWires)
	net.OutputLabels = make([]string, len(net.Outputs))
	for i := range net.InputLabels {
		net.InputLabels[i] = fmt.Sprintf("w%d", i)
	}
	for i := range net.OutputLabels {
		net.OutputLabels[i] = fmt.Sprintf("z%d", i)
	}
	return net, nil
}

// CanonNetwork renumbers a network's wires by order of first gate use,
// producing a comparable form for DiffNetworks. Wires never touched by a
// gate are appended in original order.
func CanonNetwork(n *Network) *Network {
	canon := make([]int, n.NumWires)
	for i := range canon {
		canon[i] = -1
	}
	next := 0
	id := func(w int) int {
		if canon[w] < 0 {
			canon[w] = next
			next++
		}
		return canon[w]
	}
	c := &Network{Name: n.Name, NumWires: n.NumWires, ErrorBoundBits: n.ErrorBoundBits}
	for _, g := range n.Gates {
		c.Gates = append(c.Gates, Gate{Kind: g.Kind, A: id(g.A), B: id(g.B)})
	}
	for _, w := range n.Outputs {
		c.Outputs = append(c.Outputs, id(w))
	}
	c.InputLabels = make([]string, c.NumWires)
	c.OutputLabels = make([]string, len(c.Outputs))
	for w, cw := range canon {
		if cw >= 0 && w < len(n.InputLabels) {
			c.InputLabels[cw] = n.InputLabels[w]
		}
	}
	for i := range c.OutputLabels {
		if i < len(n.OutputLabels) {
			c.OutputLabels[i] = n.OutputLabels[i]
		}
	}
	return c
}

// DiffNetworks compares two networks gate by gate after canonical wire
// renumbering and describes the first divergence ("" if identical). The
// reference network's input labels name the wires in the message.
func DiffNetworks(got, ref *Network) string {
	g, r := CanonNetwork(got), CanonNetwork(ref)
	label := func(w int) string {
		if w < len(r.InputLabels) && r.InputLabels[w] != "" {
			return fmt.Sprintf("w%d(%s)", w, r.InputLabels[w])
		}
		return fmt.Sprintf("w%d", w)
	}
	n := len(g.Gates)
	if len(r.Gates) < n {
		n = len(r.Gates)
	}
	for i := 0; i < n; i++ {
		gg, rg := g.Gates[i], r.Gates[i]
		if gg != rg {
			return fmt.Sprintf("gate %d: lifted %s(%s, %s), canonical %s(%s, %s)",
				i, gg.Kind, label(gg.A), label(gg.B), rg.Kind, label(rg.A), label(rg.B))
		}
	}
	if len(g.Gates) != len(r.Gates) {
		return fmt.Sprintf("size: lifted %d gates, canonical %d", len(g.Gates), len(r.Gates))
	}
	if len(g.Outputs) != len(r.Outputs) {
		return fmt.Sprintf("outputs: lifted %d, canonical %d", len(g.Outputs), len(r.Outputs))
	}
	for i := range g.Outputs {
		if g.Outputs[i] != r.Outputs[i] {
			return fmt.Sprintf("output %d: lifted %s, canonical %s", i, label(g.Outputs[i]), label(r.Outputs[i]))
		}
	}
	return ""
}

// FromNetwork converts a Network into an equivalent Program (each wire an
// input parameter, each gate one instruction), so network candidates from
// the annealing search run through the same exhaustive verifier as lifted
// kernels. It fails on a network that reads a wire an Add gate consumed
// (wire B of the Add), by a later gate or as an output: the float
// interpreters read that wire as 0, but no Program register holds it.
func FromNetwork(n *Network) (*Program, error) {
	p := &Program{
		Name:       n.Name,
		NumParams:  n.NumWires,
		ParamNames: append([]string(nil), n.InputLabels...),
		NumRegs:    n.NumWires,
	}
	cur := make([]int, n.NumWires) // wire -> register holding its value
	for i := range cur {
		cur[i] = i
	}
	for i, g := range n.Gates {
		for _, w := range [2]int{g.A, g.B} {
			if cur[w] < 0 {
				return nil, fmt.Errorf("fpan %q: gate %d reads wire %d, consumed by an earlier Add", n.Name, i, w)
			}
		}
		in := Inst{A: Operand{Reg: cur[g.A]}, B: Operand{Reg: cur[g.B]}, Dst: [2]int{-1, -1}}
		switch g.Kind {
		case Sum:
			in.Op = OpTwoSum
		case FastSum:
			in.Op = OpFastTwoSum
		case Add:
			in.Op = OpAdd
		}
		in.Dst[0] = p.NumRegs
		cur[g.A] = p.NumRegs
		p.NumRegs++
		if in.NumDst() == 2 {
			in.Dst[1] = p.NumRegs
			cur[g.B] = p.NumRegs
			p.NumRegs++
		} else {
			cur[g.B] = -1
		}
		p.Insts = append(p.Insts, in)
	}
	for _, w := range n.Outputs {
		if cur[w] < 0 {
			return nil, fmt.Errorf("fpan %q: output wire %d was consumed by an Add", n.Name, w)
		}
		p.Outputs = append(p.Outputs, cur[w])
	}
	return p, nil
}
