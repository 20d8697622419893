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
// wire discipline (each instruction result feeds exactly one consumer),
// the property that makes a kernel a network at all. KernelProgram
// builds the production kernels' programs from their networks.
//
// TwoProd has no dedicated opcode. Both spellings that occur in source —
// the eft.TwoProd call and the generated inline form p := T(x*y) followed
// by e := FMA(x, y, -p) — lower to the same OpProd + OpFMA pair, so the two
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

// KernelProgram returns the canonical Program of a production kernel,
// add{2,3,4}, mul{2,3,4} or mulacc{2,3,4}, built from the networks in
// networks.go alone; it returns nil for any other name. The parameters
// are the operand components in internal/core's signature order:
// x0..x{n-1}, then y0..y{n-1}, after the accumulator s0..s{n-1} for
// mulacc.
//
//   - addN runs the addN network over the interleaved (x_i, y_i).
//   - mulN reads its expansion step off mulN's input labels: pij is
//     TwoProd(x_i, y_j), which also defines eij, and cij is a plain
//     product. The mulN gates follow.
//   - mulaccN is mulN without its renormalization suffix, the trailing
//     gates that touch only output wires. The product's output wires
//     feed addN, interleaved with the accumulator.
//
// cmd/mfprove diffs each core reference kernel against these programs,
// and genmicro emits the generated kernels from them.
func KernelProgram(name string) *Program {
	if len(name) < 4 {
		return nil
	}
	op, n := name[:len(name)-1], int(name[len(name)-1]-'0')
	if n < 2 || n > 4 || (op != "add" && op != "mul" && op != "mulacc") {
		return nil
	}
	p := &Program{Name: name}
	var s []int
	if op == "mulacc" {
		s = p.params("s", n)
	}
	x, y := p.params("x", n), p.params("y", n)
	mul := ByName(fmt.Sprintf("mul%d", n))
	switch op {
	case "add":
		p.Outputs = p.addNet(n, x, y)
	case "mul":
		p.Outputs = p.mulNet(mul, len(mul.Gates), x, y)
	default:
		p.Outputs = p.addNet(n, s, p.mulNet(mul, renormStart(mul), x, y))
	}
	return p
}

// params appends n parameters named prefix0..prefix{n-1}; it must run
// before any instruction is appended.
func (p *Program) params(prefix string, n int) []int {
	regs := make([]int, n)
	for i := range regs {
		regs[i] = p.NumRegs
		p.ParamNames = append(p.ParamNames, fmt.Sprintf("%s%d", prefix, i))
		p.NumRegs++
	}
	p.NumParams = p.NumRegs
	return regs
}

// inst appends one instruction writing fresh registers and returns them
// (d1 is -1 for a one-result op).
func (p *Program) inst(op OpKind, a, b, c Operand) (d0, d1 int) {
	in := Inst{Op: op, A: a, B: b, C: c, Dst: [2]int{p.NumRegs, -1}}
	p.NumRegs++
	if in.NumDst() == 2 {
		in.Dst[1] = p.NumRegs
		p.NumRegs++
	}
	p.Insts = append(p.Insts, in)
	return in.Dst[0], in.Dst[1]
}

// gates appends gs as instructions on the wire values cur (cur[w] is the
// register on wire w), updating cur; an Add leaves -1 on its wire B. It
// fails on a gate that reads a consumed wire.
func (p *Program) gates(gs []Gate, cur []int) error {
	ops := [...]OpKind{Add: OpAdd, Sum: OpTwoSum, FastSum: OpFastTwoSum}
	for i, g := range gs {
		for _, w := range [2]int{g.A, g.B} {
			if cur[w] < 0 {
				return fmt.Errorf("gate %d reads wire %d, consumed by an earlier Add", i, w)
			}
		}
		cur[g.A], cur[g.B] = p.inst(ops[g.Kind], Operand{Reg: cur[g.A]}, Operand{Reg: cur[g.B]}, Operand{})
	}
	return nil
}

// addNet appends the addN network over the interleaved (x_i, y_i) and
// returns its output registers.
func (p *Program) addNet(n int, x, y []int) []int {
	net := ByName(fmt.Sprintf("add%d", n))
	cur := make([]int, 0, 2*n)
	for i := range x {
		cur = append(cur, x[i], y[i])
	}
	return p.run(net, len(net.Gates), cur)
}

// mulNet appends the expansion step read off net's input labels and
// then net's first k gates, and returns the registers on its output
// wires.
func (p *Program) mulNet(net *Network, k int, x, y []int) []int {
	cur := make([]int, net.NumWires)
	errs := make(map[string]int)
	for w, label := range net.InputLabels {
		a, b := Operand{Reg: x[label[1]-'0']}, Operand{Reg: y[label[2]-'0']}
		switch label[0] {
		case 'p':
			cur[w], _ = p.inst(OpProd, a, b, Operand{})
			errs["e"+label[1:]], _ = p.inst(OpFMA, a, b, Operand{Reg: cur[w], Neg: true})
		case 'c':
			cur[w], _ = p.inst(OpProd, a, b, Operand{})
		default:
			e, ok := errs[label]
			if !ok {
				panic(fmt.Sprintf("fpan: %s input %q precedes its product", net.Name, label))
			}
			cur[w] = e
		}
	}
	return p.run(net, k, cur)
}

// run appends net's first k gates on the wire values cur and returns the
// registers on its output wires. The production networks read no
// consumed wire, so an error here is a broken networks.go.
func (p *Program) run(net *Network, k int, cur []int) []int {
	if err := p.gates(net.Gates[:k], cur); err != nil {
		panic(fmt.Sprintf("fpan %q: %v", net.Name, err))
	}
	out := make([]int, len(net.Outputs))
	for i, w := range net.Outputs {
		out[i] = cur[w]
	}
	return out
}

// renormStart returns where net's renormalization suffix begins: the
// trailing gates that touch only output wires.
func renormStart(net *Network) int {
	isOut := make([]bool, net.NumWires)
	for _, w := range net.Outputs {
		isOut[w] = true
	}
	k := len(net.Gates)
	for k > 0 && isOut[net.Gates[k-1].A] && isOut[net.Gates[k-1].B] {
		k--
	}
	return k
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
	if err := p.gates(n.Gates, cur); err != nil {
		return nil, fmt.Errorf("fpan %q: %w", n.Name, err)
	}
	for _, w := range n.Outputs {
		if cur[w] < 0 {
			return nil, fmt.Errorf("fpan %q: output wire %d was consumed by an Add", n.Name, w)
		}
		p.Outputs = append(p.Outputs, cur[w])
	}
	return p, nil
}
