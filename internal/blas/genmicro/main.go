// Command genmicro generates the flattened GEMM micro-kernels and GEMV
// row-tile kernels in internal/blas/micro_generated.go, and the SoA lane
// kernels in internal/blas/lanes_generated.go.
//
// Why generated code: the expansion mul/add kernels in internal/core are
// too large for Go's inliner (each is a network of TwoSum/TwoProd gates,
// well past the 80-node budget), so a loop that calls core.Mul4 and
// core.Add4 pays a function call per gate network — and each call is an
// optimization barrier: accumulators held in registers are spilled around
// it, and the out-of-order window cannot interleave the independent
// accumulation chains of neighbouring C elements because one Mul4+Add4
// pair already exceeds it. Flattening the gate sequences directly into
// the tile loop bodies turns the whole inner loop into straight-line FP
// code; the hardware then overlaps the mr×nr independent FPAN chains,
// which is the ILP argument of the paper's §5.2.
//
// Why per-base-type kernels: the generic eft.FMA carries a width dispatch
// plus a call to the float32 emulation FMA32, which prices it just past
// the inline budget (cost 81 vs 80 in go1.24), leaving one opaque call —
// and one register-clobbering point — per TwoProd. The generator instead
// emits a float64 body that spells math.FMA directly (an intrinsic, free
// to inline anywhere) and a float32 body that calls eft.FMA32, with a
// generic front door that selects on unsafe.Sizeof — a constant per
// instantiation, so the dispatch folds away.
//
// Every gate sequence is emitted from fpan.KernelProgram, the program
// that internal/fpan builds from the production networks alone and that
// cmd/mfprove checks each internal/core reference kernel against; block
// spells one such program as Go. TestMicroMatchesCoreGates and
// TestLaneKernelsMatchCore pin the emitted kernels bit for bit against
// internal/core.
//
// Regenerate with: go generate ./internal/blas
package main

import (
	"bytes"
	"flag"
	"fmt"
	"go/format"
	"go/token"
	"log"
	"os"
	"strings"

	"multifloats/internal/fpan"
)

// cfg is one concrete emission target: expansion width × base type.
type cfg struct {
	n   int    // expansion terms
	typ string // float64 | float32
	sfx string // function suffix: d | s
	fma string // the FMA spelled for typ
}

func configs(n int) [2]cfg {
	return [2]cfg{
		{n: n, typ: "float64", sfx: "d", fma: "math.FMA"},
		{n: n, typ: "float32", sfx: "s", fma: "eft.FMA32"},
	}
}

// kernel returns the canonical program of the named production kernel.
func kernel(op string, n int) *fpan.Program {
	return fpan.KernelProgram(fmt.Sprintf("%s%d", op, n))
}

// block emits program p as a naked block. in[i] is the Go expression for
// parameter i: a plain identifier is read in place, and any other
// expression (a load) is bound once to the parameter's name. out[i] is
// assigned output i. Every product is spelled T(a * b), the Go spec's
// rounding barrier against FMA contraction, and every FMA as c.fma. The
// block scope lets the temporaries t<register> repeat across blocks.
func block(b *bytes.Buffer, c cfg, p *fpan.Program, in, out []string) {
	name := make([]string, p.NumRegs)
	read := make([]bool, p.NumRegs)
	for _, inst := range p.Insts {
		for _, o := range []fpan.Operand{inst.A, inst.B, inst.C}[:inst.NumIn()] {
			read[o.Reg] = true
		}
	}
	for _, r := range p.Outputs {
		read[r] = true
	}
	b.WriteString("{\n")
	for i, e := range in {
		name[i] = e
		if !token.IsIdentifier(e) {
			name[i] = p.ParamNames[i]
			fmt.Fprintf(b, "%s := %s\n", name[i], e)
		}
	}
	opnd := func(o fpan.Operand) string {
		if o.Neg {
			return "-" + name[o.Reg]
		}
		return name[o.Reg]
	}
	for _, inst := range p.Insts {
		var rhs string
		switch inst.Op {
		case fpan.OpTwoSum:
			rhs = fmt.Sprintf("eft.TwoSum(%s, %s)", opnd(inst.A), opnd(inst.B))
		case fpan.OpFastTwoSum:
			rhs = fmt.Sprintf("eft.FastTwoSum(%s, %s)", opnd(inst.A), opnd(inst.B))
		case fpan.OpAdd:
			rhs = fmt.Sprintf("%s + %s", opnd(inst.A), opnd(inst.B))
		case fpan.OpProd:
			rhs = fmt.Sprintf("%s(%s * %s)", c.typ, opnd(inst.A), opnd(inst.B))
		case fpan.OpFMA:
			rhs = fmt.Sprintf("%s(%s, %s, %s)", c.fma, opnd(inst.A), opnd(inst.B), opnd(inst.C))
		default:
			log.Fatalf("genmicro: %s: no Go spelling for %s", p.Name, inst)
		}
		dst := make([]string, inst.NumDst())
		for d := range dst {
			r := inst.Dst[d]
			name[r], dst[d] = fmt.Sprintf("t%d", r), "_"
			if read[r] {
				dst[d] = name[r]
			}
		}
		fmt.Fprintf(b, "%s := %s\n", strings.Join(dst, ", "), rhs)
	}
	res := make([]string, len(p.Outputs))
	for i, r := range p.Outputs {
		res[i] = name[r]
	}
	fmt.Fprintf(b, "%s = %s\n}\n", strings.Join(out, ", "), strings.Join(res, ", "))
}

// comps returns fmt.Sprintf(format, i) for each component i of an n-term
// expansion.
func comps(n int, format string) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf(format, i)
	}
	return out
}

// mulAcc emits one fused multiply–accumulate, acc += x·y, as a block
// running the mulacc program: x and y are component expressions (AoS
// element loads for the GEMV tiles, pre-loaded SoA scalars for the GEMM
// micro-kernels), and acc names the accumulator, read and reassigned in
// place.
func mulAcc(b *bytes.Buffer, c cfg, acc, x, y []string) {
	in := append(append(append([]string(nil), acc...), x...), y...)
	block(b, c, kernel("mulacc", c.n), in, acc)
}

// annots returns the mflint contract directives for a concrete kernel.
// Both widths are allocation-free hot paths; only the float64 body is
// branch-free, because the float32 TwoProd lines call eft.FMA32, whose
// round-to-odd emulation branches internally. Both widths carry the
// //mf:fpan proof annotation: every naked accumulation block is one
// flattened core.MulAcc{n} gate network, and mfprove checks each block
// hashes to that reference and is covered by its exhaustive proof
// (FMA32's fixup is a rounding detail below the network's gate level).
func annots(c cfg) string {
	fpan := fmt.Sprintf("//mf:fpan blocks=mulacc%d", c.n)
	if c.typ == "float64" {
		return "//mf:branchfree\n" + fpan + "\n//mf:hotpath"
	}
	return "// (Not //mf:branchfree: eft.FMA32's round-to-odd fixup branches.)\n//\n" + fpan + "\n//mf:hotpath"
}

// gemmMicroConcrete emits the mr×nr register-tiled GEMM micro-kernel for
// one width × base-type combination. ap/bp are one micro-panel strip in
// SoA layout: n contiguous component planes of kc·mr (resp. kc·nr) base
// values, so every load in the k loop is unit-stride within its plane.
func gemmMicroConcrete(b *bytes.Buffer, c cfg, mr, nr int) {
	n := c.n
	fmt.Fprintf(b, `
// gemmMicroF%d%s computes a %d×%d C tile on %s from strip-major SoA
// packed panels (%d component planes of kc·%d / kc·%d elements each):
// C[0:m, 0:nn] += Σ_k ap[k]·bp[k], %d independent flattened %d-term
// FPAN chains.
//
%s
func gemmMicroF%d%s(ap, bp []%s, kc int, c []mf.F%d[%s], ldc, m, nn int) {
var (
`, n, c.sfx, mr, nr, c.typ, n, mr, nr, mr*nr, n, annots(c), n, c.sfx, c.typ, n, c.typ)
	for r := 0; r < mr; r++ {
		for j := 0; j < nr; j++ {
			for i := 0; i < n; i++ {
				fmt.Fprintf(b, "s%d%d_%d,\n", r, j, i)
			}
		}
	}
	fmt.Fprintf(b, "_ %s\n)\n", c.typ)
	for i := 0; i < n; i++ {
		fmt.Fprintf(b, "ap%d := ap[%d*kc*%d : %d*kc*%d]\n", i, i, mr, i+1, mr)
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(b, "bp%d := bp[%d*kc*%d : %d*kc*%d]\n", i, i, nr, i+1, nr)
	}
	fmt.Fprintf(b, "for k := 0; k < kc; k++ {\n")
	for j := 0; j < nr; j++ {
		for i := 0; i < n; i++ {
			fmt.Fprintf(b, "b%d_%d := bp%d[k*%d+%d]\n", j, i, i, nr, j)
		}
	}
	for r := 0; r < mr; r++ {
		for i := 0; i < n; i++ {
			fmt.Fprintf(b, "a%d_%d := ap%d[k*%d+%d]\n", r, i, i, mr, r)
		}
	}
	for r := 0; r < mr; r++ {
		for j := 0; j < nr; j++ {
			mulAcc(b, c, comps(n, fmt.Sprintf("s%d%d_%%d", r, j)), comps(n, fmt.Sprintf("a%d_%%d", r)), comps(n, fmt.Sprintf("b%d_%%d", j)))
		}
	}
	fmt.Fprintf(b, "}\n")
	// Write-back through a local tile so partial edge tiles share the path.
	fmt.Fprintf(b, "acc := [%d][%d]mf.F%d[%s]{\n", mr, nr, n, c.typ)
	for r := 0; r < mr; r++ {
		fmt.Fprintf(b, "{")
		for j := 0; j < nr; j++ {
			fmt.Fprintf(b, "{")
			for i := 0; i < n; i++ {
				fmt.Fprintf(b, "s%d%d_%d, ", r, j, i)
			}
			fmt.Fprintf(b, "}, ")
		}
		fmt.Fprintf(b, "},\n")
	}
	fmt.Fprintf(b, `}
for r := 0; r < m; r++ {
row := c[r*ldc:]
for j := 0; j < nn; j++ {
row[j] = row[j].Add(acc[r][j])
}
}
}
`)
}

// gemmMicroDispatch emits the generic front door. The Sizeof test is a
// constant per instantiation, so each instantiation compiles to a direct
// call of the matching concrete kernel; the slice reinterpretations are
// layout-safe because T is constrained to exactly float32 | float64.
func gemmMicroDispatch(b *bytes.Buffer, n int) {
	fmt.Fprintf(b, `
// gemmMicroF%d dispatches to the concrete kernel for T's width.
// (The unsafe.Sizeof test folds per instantiation; not //mf:branchfree
// because the float32 arm calls the FMA32-emulating kernel.)
//
//mf:hotpath
func gemmMicroF%d[T eft.Float](ap, bp []T, kc int, c []mf.F%d[T], ldc, m, nn int) {
var t T
if unsafe.Sizeof(t) == 8 {
gemmMicroF%dd(
*(*[]float64)(unsafe.Pointer(&ap)),
*(*[]float64)(unsafe.Pointer(&bp)),
kc,
*(*[]mf.F%d[float64])(unsafe.Pointer(&c)),
ldc, m, nn)
return
}
gemmMicroF%ds(
*(*[]float32)(unsafe.Pointer(&ap)),
*(*[]float32)(unsafe.Pointer(&bp)),
kc,
*(*[]mf.F%d[float32])(unsafe.Pointer(&c)),
ldc, m, nn)
}
`, n, n, n, n, n, n, n)
}

// gemvTileConcrete emits the 4-row GEMV tile kernel: four independent row
// dot products sharing each x element, accumulated in the exact
// left-to-right order of DotF{n} (bit-identical results).
func gemvTileConcrete(b *bytes.Buffer, c cfg) {
	n := c.n
	fmt.Fprintf(b, `
// gemvTile4F%d%s computes four rows of y = A·x on %s with flattened
// fused %d-term MulAcc chains (left-to-right per row, like DotF%d).
//
%s
func gemvTile4F%d%s(r0, r1, r2, r3, x []mf.F%d[%s]) (y0, y1, y2, y3 mf.F%d[%s]) {
var (
`, n, c.sfx, c.typ, n, n, annots(c), n, c.sfx, n, c.typ, n, c.typ)
	for r := 0; r < 4; r++ {
		for i := 0; i < n; i++ {
			fmt.Fprintf(b, "s%d0_%d,\n", r, i)
		}
	}
	fmt.Fprintf(b, `_ %s
)
r0 = r0[:len(x)]
r1 = r1[:len(x)]
r2 = r2[:len(x)]
r3 = r3[:len(x)]
for j := range x {
xj := x[j]
`, c.typ)
	for r := 0; r < 4; r++ {
		mulAcc(b, c, comps(n, fmt.Sprintf("s%d0_%%d", r)), comps(n, fmt.Sprintf("r%d[j][%%d]", r)), comps(n, "xj[%d]"))
	}
	fmt.Fprintf(b, "}\n")
	for r := 0; r < 4; r++ {
		fmt.Fprintf(b, "y%d = mf.F%d[%s]{", r, n, c.typ)
		for i := 0; i < n; i++ {
			fmt.Fprintf(b, "s%d0_%d, ", r, i)
		}
		fmt.Fprintf(b, "}\n")
	}
	fmt.Fprintf(b, "return\n}\n")
}

// gemvTileDispatch emits the generic front door for the GEMV tile.
func gemvTileDispatch(b *bytes.Buffer, n int) {
	fmt.Fprintf(b, `
// gemvTile4F%d dispatches to the concrete kernel for T's width.
// (The unsafe.Sizeof test folds per instantiation; not //mf:branchfree
// because the float32 arm calls the FMA32-emulating kernel.)
//
//mf:hotpath
func gemvTile4F%d[T eft.Float](r0, r1, r2, r3, x []mf.F%d[T]) (mf.F%d[T], mf.F%d[T], mf.F%d[T], mf.F%d[T]) {
var t T
if unsafe.Sizeof(t) == 8 {
a, b, c, d := gemvTile4F%dd(
*(*[]mf.F%d[float64])(unsafe.Pointer(&r0)),
*(*[]mf.F%d[float64])(unsafe.Pointer(&r1)),
*(*[]mf.F%d[float64])(unsafe.Pointer(&r2)),
*(*[]mf.F%d[float64])(unsafe.Pointer(&r3)),
*(*[]mf.F%d[float64])(unsafe.Pointer(&x)))
return *(*mf.F%d[T])(unsafe.Pointer(&a)), *(*mf.F%d[T])(unsafe.Pointer(&b)), *(*mf.F%d[T])(unsafe.Pointer(&c)), *(*mf.F%d[T])(unsafe.Pointer(&d))
}
a, b, c, d := gemvTile4F%ds(
*(*[]mf.F%d[float32])(unsafe.Pointer(&r0)),
*(*[]mf.F%d[float32])(unsafe.Pointer(&r1)),
*(*[]mf.F%d[float32])(unsafe.Pointer(&r2)),
*(*[]mf.F%d[float32])(unsafe.Pointer(&r3)),
*(*[]mf.F%d[float32])(unsafe.Pointer(&x)))
return *(*mf.F%d[T])(unsafe.Pointer(&a)), *(*mf.F%d[T])(unsafe.Pointer(&b)), *(*mf.F%d[T])(unsafe.Pointer(&c)), *(*mf.F%d[T])(unsafe.Pointer(&d))
}
`, n, n, n, n, n, n, n,
		n, n, n, n, n, n, n, n, n, n,
		n, n, n, n, n, n, n, n, n, n)
}

// microMR/microNR are the register-tile shapes per width; they must match
// the blockSizes tables in blocked.go.
var (
	microMR = map[int]int{2: 4, 3: 4, 4: 3}
	microNR = map[int]int{2: 2, 3: 2, 4: 2}
)

func main() {
	out := flag.String("out", "micro_generated.go", "output `file` (the gensync drift gate points this at a scratch path)")
	lanesOut := flag.String("lanes-out", "lanes_generated.go", "lane-kernel output `file` (scratch path under the gensync drift gate)")
	flag.Parse()
	var b bytes.Buffer
	b.WriteString(`// Code generated by genmicro. DO NOT EDIT.
// Regenerate with: go generate ./internal/blas

package blas

import (
	"math"
	"unsafe"

	"multifloats/internal/eft"
	"multifloats/mf"
)
`)
	for _, n := range []int{2, 3, 4} {
		for _, c := range configs(n) {
			gemmMicroConcrete(&b, c, microMR[n], microNR[n])
		}
		gemmMicroDispatch(&b, n)
	}
	for _, n := range []int{2, 3, 4} {
		for _, c := range configs(n) {
			gemvTileConcrete(&b, c)
		}
		gemvTileDispatch(&b, n)
	}
	src, err := format.Source(b.Bytes())
	if err != nil {
		log.Fatalf("generated source does not parse: %v\n%s", err, b.Bytes())
	}
	if err := os.WriteFile(*out, src, 0o644); err != nil {
		log.Fatal(err)
	}
	lanes := emitLanes()
	lsrc, err := format.Source(lanes)
	if err != nil {
		log.Fatalf("generated lane source does not parse: %v\n%s", err, lanes)
	}
	if err := os.WriteFile(*lanesOut, lsrc, 0o644); err != nil {
		log.Fatal(err)
	}
}
