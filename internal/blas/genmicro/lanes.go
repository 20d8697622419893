package main

// Lane-kernel emission: the SoA elementwise batch kernels of
// internal/blas/lanes_generated.go.
//
// The serving tier coalesces scalar requests into slabs; a slab stored as
// per-component planes (SoA) lets one kernel run laneWidth independent
// gate networks per loop step as straight-line FP code — the same ILP
// argument as the GEMM micro-kernels, applied to elementwise batches.
// The add/sub/mul lane bodies are emitted inline from the add and mul
// programs of fpan.KernelProgram, which mfprove checks against the
// internal/core kernels; div and sqrt call the annotated core networks,
// whose Newton iterations are too large to flatten profitably and
// already dominate any call cost. So a slab run through a lane kernel is
// bit-identical to a scalar core.* loop. The equivalence is pinned by
// TestLaneKernelsMatchCore and fuzzed by internal/diffuzz.
//
// Special values: IEEE leaves exactly one result property to the
// implementation — which operand's payload a NaN-producing operation
// propagates, which in practice depends on the operand order the
// compiler emits. Identical gate SOURCE order therefore does not pin
// NaN payload bits across separately compiled copies of a network. The
// flattened kernels are exact on every input whose outputs are finite
// (finite IEEE arithmetic is fully determined); each add/sub/mul
// kernel is paired with a patch wrapper that detects non-finite output
// components (three flops and a never-taken branch per element on
// finite data) and recomputes just those elements through the shared
// core.* functions, restoring bit parity — NaN payloads included —
// with the in-process path.
//
// Only float64 kernels are emitted: the wire protocol's base type is
// float64, and the blocked-GEMM paths keep their own generated
// micro-kernels for both base types.

import (
	"bytes"
	"fmt"
	"strings"
)

// laneWidth is the unroll factor of the emitted kernels: enough
// independent FPAN chains per loop step to cover the TwoSum latency
// chain, small enough that the ~3·width live temporaries per lane stay
// out of heavy spill. EXPERIMENTS.md §E-SoA measured 1, 2, 4 and 8; to
// rerun that sweep, set laneWidth and regenerate.
const laneWidth = 4

// laneOps lists the emitted elementwise ops in wire-dispatch order
// (matching the LaneOp constants in soa.go).
var laneOps = []string{"add", "sub", "mul", "div", "sqrt"}

func opTitle(op string) string {
	switch op {
	case "add":
		return "Add"
	case "sub":
		return "Sub"
	case "mul":
		return "Mul"
	case "div":
		return "Div"
	case "sqrt":
		return "Sqrt"
	}
	panic("bad op")
}

// laneBlock emits one lane: z[idx] = op(x[idx], y[idx]) as a block
// running the op's kernel program (add/sub/mul) or a call to the core
// Newton network (div/sqrt).
func laneBlock(b *bytes.Buffer, c cfg, op, idx string) {
	n := c.n
	x, y, z := comps(n, "xs%d["+idx+"]"), comps(n, "ys%d["+idx+"]"), comps(n, "zs%d["+idx+"]")
	switch op {
	case "add", "sub", "mul":
		p := kernel(op, n)
		if op == "sub" {
			// Sub negates y at load, exactly core.SubN = AddN(x, -y).
			p = kernel("add", n)
			y = comps(n, "-ys%d["+idx+"]")
		}
		block(b, c, p, append(x, y...), z)
	case "div", "sqrt":
		args := x
		if op == "div" {
			args = append(x, y...)
		}
		fmt.Fprintf(b, "%s = core.%s%d(%s)\n", strings.Join(z, ", "), opTitle(op), n, strings.Join(args, ", "))
	default:
		panic("bad op")
	}
}

// laneAnnots returns the mflint contract directives for one lane kernel.
// Every kernel is an allocation-free hot path; the sqrt lanes cannot be
// //mf:branchfree because core.SqrtN branches on a zero leading term
// (the div lanes call core.DivN, which is annotated branch-free).
//
// The add/sub/mul lanes also carry //mf:fpan: each naked unroll block is
// one flattened core.{Add,Mul}{n} gate network, and mfprove checks every
// block hashes to that reference kernel (a sub lane lifts to the add
// network — the negated loads fold into the inputs, which the proof
// quantifies over). The div/sqrt lanes call whole Newton kernels rather
// than inlining gates, so there is no network to lift.
func laneAnnots(c cfg, op string) string {
	switch op {
	case "add", "sub":
		return fmt.Sprintf("//mf:branchfree\n//mf:fpan blocks=add%d\n//mf:hotpath", c.n)
	case "mul":
		return fmt.Sprintf("//mf:branchfree\n//mf:fpan blocks=mul%d\n//mf:hotpath", c.n)
	case "sqrt":
		return "// (Not //mf:branchfree: core.SqrtN branches on a zero leading term.)\n//\n//mf:hotpath"
	}
	return "//mf:branchfree\n//mf:hotpath"
}

func laneDoc(c cfg, op string, name string) string {
	what := fmt.Sprintf("%d core.%s%d Newton networks per unrolled step", laneWidth, opTitle(op), c.n)
	exact := fmt.Sprintf(`results are
// bit-identical to a scalar core.%s%d loop`, opTitle(op), c.n)
	unary := ""
	switch op {
	case "add", "sub", "mul":
		what = fmt.Sprintf("%d independent flattened core.%s%d gate networks per unrolled step",
			laneWidth, opTitle(op), c.n)
		exact = fmt.Sprintf(`results are
// bit-identical to a scalar core.%s%d loop wherever the outputs are
// finite (lane%s%dd patches the non-finite elements; see the package
// comment on NaN payload order)`, opTitle(op), c.n, opTitle(op), c.n)
	case "sqrt":
		unary = " (y is ignored)"
	}
	return fmt.Sprintf(`// %s computes z = %s(x, y) elementwise over width-%d SoA slabs for
// elements [lo, hi)%s: %s,
// scalar tail. The gates are internal/core's, so %s.`,
		name, op, c.n, unary, what, exact)
}

// laneKernelFn emits one SoA lane kernel; the flattened add/sub/mul
// kernels take the Flat suffix, for laneFixFn to wrap.
func laneKernelFn(b *bytes.Buffer, c cfg, op string) {
	n := c.n
	name := fmt.Sprintf("lane%s%d%s", opTitle(op), n, c.sfx)
	if op == "add" || op == "sub" || op == "mul" {
		name += "Flat"
	}
	fmt.Fprintf(b, "\n%s\n//\n%s\nfunc %s(x, y, z *SoA, lo, hi int) {\n",
		laneDoc(c, op, name), laneAnnots(c, op), name)
	for i := 0; i < n; i++ {
		fmt.Fprintf(b, "xs%d := x[%d][lo:hi]\n", i, i)
	}
	if op != "sqrt" {
		for i := 0; i < n; i++ {
			fmt.Fprintf(b, "ys%d := y[%d][lo:hi]\n", i, i)
		}
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(b, "zs%d := z[%d][lo:hi]\n", i, i)
	}
	fmt.Fprintf(b, "n := hi - lo\ni := 0\nfor ; i+%d <= n; i += %d {\n", laneWidth, laneWidth)
	for l := 0; l < laneWidth; l++ {
		idx := "i"
		if l > 0 {
			idx = fmt.Sprintf("i+%d", l)
		}
		laneBlock(b, c, op, idx)
	}
	fmt.Fprintf(b, "}\nfor ; i < n; i++ {\n")
	laneBlock(b, c, op, "i")
	fmt.Fprintf(b, "}\n}\n")
}

// laneFixFn emits the patch wrapper for one flattened add/sub/mul
// kernel: run the branch-free fast path, then recompute any element
// with a non-finite output component through the shared core network,
// so NaN payload bits match the in-process path exactly.
func laneFixFn(b *bytes.Buffer, c cfg, op string) {
	n := c.n
	t := opTitle(op)
	name := fmt.Sprintf("lane%s%dd", t, n)
	fmt.Fprintf(b, `
// %s is the dispatch-table entry for %s at width %d: the flattened
// %sFlat fast path plus the special-value patch. z[i]-z[i] is 0 for
// finite z[i] and NaN otherwise, so d is NaN exactly when some output
// component is non-finite — only those (rare) elements re-run through
// core.%s%d, whose compiled NaN propagation the in-process API shares.
//
// (Not //mf:branchfree: the patch predicate is the point — it is taken
// only on non-finite elements, where the flattened network cannot pin
// NaN payload bits.)
//
//mf:hotpath
func %s(x, y, z *SoA, lo, hi int) {
%sFlat(x, y, z, lo, hi)
`, name, op, n, name, t, n, name, name)
	for i := 0; i < n; i++ {
		fmt.Fprintf(b, "xs%d := x[%d][lo:hi]\n", i, i)
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(b, "ys%d := y[%d][lo:hi]\n", i, i)
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(b, "zs%d := z[%d][lo:hi]\n", i, i)
	}
	fmt.Fprintf(b, "for i := range zs0 {\nd := ")
	for i := 0; i < n; i++ {
		if i > 0 {
			fmt.Fprintf(b, " + ")
		}
		fmt.Fprintf(b, "(zs%d[i] - zs%d[i])", i, i)
	}
	fmt.Fprintf(b, "\nif d != d {\n")
	for i := 0; i < n; i++ {
		if i > 0 {
			fmt.Fprintf(b, ", ")
		}
		fmt.Fprintf(b, "zs%d[i]", i)
	}
	fmt.Fprintf(b, " = core.%s%d(", t, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			fmt.Fprintf(b, ", ")
		}
		fmt.Fprintf(b, "xs%d[i]", i)
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(b, ", ys%d[i]", i)
	}
	fmt.Fprintf(b, ")\n}\n}\n}\n")
}

// emitLanes produces the full lanes_generated.go source (unformatted).
func emitLanes() []byte {
	var b bytes.Buffer
	b.WriteString(fmt.Sprintf(`// Code generated by genmicro. DO NOT EDIT.
// Regenerate with: go generate ./internal/blas

package blas

import (
	"math"

	"multifloats/internal/core"
	"multifloats/internal/eft"
)

// LaneWidth is the unroll factor of the generated SoA lane kernels: each
// unrolled step runs LaneWidth independent gate networks (EXPERIMENTS.md
// §E-SoA sweeps the alternatives by regenerating at other widths).
const LaneWidth = %d
`, laneWidth))
	for _, n := range []int{2, 3, 4} {
		c := configs(n)[0] // float64: the serving tier's wire base type
		for _, op := range laneOps {
			switch op {
			case "add", "sub", "mul":
				laneKernelFn(&b, c, op)
				laneFixFn(&b, c, op)
			default:
				// div/sqrt call the core networks per lane, so they share
				// the in-process compiled code already — no patch needed.
				laneKernelFn(&b, c, op)
			}
		}
	}
	b.WriteString(`
// laneKernels maps (LaneOp, width-2) to the generated kernel. The
// serving tier's executor dispatches through LaneKernel, so adding an
// elementwise op is one generator entry plus a LaneOp constant.
var laneKernels = [numLaneOps][3]LaneFn{
`)
	for _, op := range laneOps {
		t := opTitle(op)
		fmt.Fprintf(&b, "LaneOp%s: {lane%s2d, lane%s3d, lane%s4d},\n", t, t, t, t)
	}
	b.WriteString("}\n")
	return b.Bytes()
}
