// Package branchfree enforces the paper's §3 structural contract on
// functions annotated //mf:branchfree: an FPAN is a fixed sequence of
// rounding gates, so the compiled kernel must contain no data-dependent
// control flow.
//
// Inside an annotated function the analyzer forbids:
//
//   - if / switch / type switch / select statements
//   - short-circuit && and || (each hides a conditional branch)
//   - goto
//   - function literals (their bodies escape the static gate sequence)
//   - calls to anything except: other //mf:branchfree functions of this
//     module, a small allowlist of branch-free intrinsics (math.FMA and
//     the raw bit conversions math.Float{32,64}{bits,frombits}),
//     unsafe.Sizeof/Alignof/Offsetof, the structural builtins len and
//     cap, and type conversions
//   - the builtins min and max (data-dependent selects), append, make,
//     new, panic, and friends
//
// One control-flow idiom is exempt: an if statement whose condition
// contains unsafe.Sizeof. That is this codebase's width-dispatch pattern
// (eft.FMA, the generated micro-kernel front doors); the operand's size
// is a compile-time constant per instantiation, so the branch
// constant-folds away and no conditional survives to machine code.
//
// Counted for/range loops are permitted: the tiled kernels iterate over
// packed panels with loop bounds that are data-independent, and the
// paper's claim concerns data-dependent branching on operand VALUES, not
// loop control. What the analyzer proves is therefore "no data-dependent
// branch in the gate network", not "the object code is literally
// jump-free".
//
// Exceptions must be written as "//mf:allow branchfree -- <why>" on the
// offending line; the justification is mandatory (analysis.Run rejects
// empty ones), so every escape from the contract is reviewable.
package branchfree

import (
	"go/ast"
	"go/token"
	"go/types"

	"multifloats/internal/analysis"
)

// Analyzer is the branchfree pass.
var Analyzer = &analysis.Analyzer{
	Name: "branchfree",
	Doc:  "forbid data-dependent control flow in //mf:branchfree functions",
	Run:  run,
}

// stdlibAllowed are non-module callees that compile to branch-free code.
// math.FMA and math.Sqrt are hardware instructions on every supported
// target; the bit conversions are register moves; bits.Mul64 is a single
// widening multiply (MUL/UMULH-class) and bits.Add64 an add with carry
// (ADD/ADC-class), both with compiler intrinsic support.
var stdlibAllowed = map[string]bool{
	"math.FMA":             true,
	"math.Sqrt":            true,
	"math.Float32bits":     true,
	"math.Float32frombits": true,
	"math.Float64bits":     true,
	"math.Float64frombits": true,
	"bits.Mul64":           true,
	"bits.Add64":           true,
}

// builtinsAllowed are structural builtins with no data-dependent branch.
var builtinsAllowed = map[string]bool{
	"len": true, "cap": true, "real": true, "imag": true, "complex": true,
	// unsafe's pseudo-functions are compile-time constants.
	"Sizeof": true, "Alignof": true, "Offsetof": true,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !pass.Annots.Funcs[fd].BranchFree {
				continue
			}
			checkBody(pass, fd)
		}
	}
	return nil
}

func checkBody(pass *analysis.Pass, fd *ast.FuncDecl) {
	name := fd.Name.Name
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			if condIsWidthDispatch(pass, n.Cond) {
				return true // constant-folds per instantiation
			}
			pass.Reportf(n.Pos(), "if statement in //mf:branchfree function %s (only unsafe.Sizeof width-dispatch conditions fold away)", name)
		case *ast.SwitchStmt:
			pass.Reportf(n.Pos(), "switch statement in //mf:branchfree function %s; use the unsafe.Sizeof width-dispatch idiom or drop the annotation", name)
		case *ast.TypeSwitchStmt:
			pass.Reportf(n.Pos(), "type switch in //mf:branchfree function %s; use the unsafe.Sizeof width-dispatch idiom", name)
		case *ast.SelectStmt:
			pass.Reportf(n.Pos(), "select statement in //mf:branchfree function %s", name)
		case *ast.BinaryExpr:
			if n.Op == token.LAND || n.Op == token.LOR {
				pass.Reportf(n.Pos(), "short-circuit %s in //mf:branchfree function %s hides a conditional branch", n.Op, name)
			}
		case *ast.BranchStmt:
			if n.Tok == token.GOTO {
				pass.Reportf(n.Pos(), "goto in //mf:branchfree function %s", name)
			}
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "function literal in //mf:branchfree function %s escapes the static gate sequence", name)
			return false
		case *ast.CallExpr:
			checkCall(pass, name, n)
		}
		return true
	})
}

func checkCall(pass *analysis.Pass, fname string, call *ast.CallExpr) {
	obj, isConv := pass.Callee(call)
	if isConv {
		return // conversions are rounding barriers, not calls
	}
	switch o := obj.(type) {
	case *types.Builtin:
		if !builtinsAllowed[o.Name()] {
			what := "builtin " + o.Name()
			if o.Name() == "min" || o.Name() == "max" {
				what = "builtin " + o.Name() + " (a data-dependent select)"
			}
			pass.Reportf(call.Pos(), "%s in //mf:branchfree function %s", what, fname)
		}
	case *types.Func:
		pkgPath, key := analysis.FuncKey(o)
		if pkgPath == "" {
			pass.Reportf(call.Pos(), "call to %s in //mf:branchfree function %s cannot be proven branch-free", o.Name(), fname)
			return
		}
		if stdlibAllowed[shortName(pkgPath)+"."+o.Name()] {
			return
		}
		if pass.Index.BranchFree(pkgPath, key) {
			return
		}
		pass.Reportf(call.Pos(), "//mf:branchfree function %s calls %s.%s, which is not marked //mf:branchfree (math.Abs-style call-outs branch on operand values)", fname, shortName(pkgPath), key)
	default:
		pass.Reportf(call.Pos(), "indirect call in //mf:branchfree function %s cannot be proven branch-free", fname)
	}
}

// condIsWidthDispatch reports whether the condition contains an
// unsafe.Sizeof call, i.e. compares sizes that are compile-time constants
// per generic instantiation.
func condIsWidthDispatch(pass *analysis.Pass, cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if obj, _ := pass.Callee(call); obj != nil {
			if b, ok := obj.(*types.Builtin); ok && b.Name() == "Sizeof" {
				found = true
			}
		}
		return true
	})
	return found
}

// shortName maps an import path to its final element ("math", "eft").
func shortName(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}
