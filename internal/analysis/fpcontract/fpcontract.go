// Package fpcontract flags floating-point expressions that the Go
// specification permits the compiler to contract into a fused
// multiply-add.
//
// The spec ("Floating-point operators") says: "An implementation may
// combine multiple floating-point operations into a single fused
// operation, possibly across statements, and produce a result that
// differs from the value obtained by executing and rounding the
// instructions individually." gc exercises this licence on arm64,
// ppc64, and s390x: a product that directly feeds an addition or
// subtraction compiles to FMA, skipping the intermediate rounding.
//
// For ordinary numeric code that is a harmless accuracy improvement. For
// error-free transformations it is silent corruption: TwoProdDekker's
// split products, a compensated summation's `(a + b) - a`, or qd's
// double-double tails are constructed so that each written operation
// rounds exactly once — fuse any of them and the "exact" error term the
// algorithm recovers is the error of a computation that never happened.
// The hazard is invisible on amd64 (gc emits no contractions there) and
// appears only when the same code is built for a fusing target, which is
// why it must be caught at the AST rather than by tests.
//
// The analyzer therefore flags every multiplication of float type that
// appears as a direct operand of +, -, +=, or -=. Two spellings are
// clean, and each states the author's intent in the source:
//
//	math.FMA(x, y, z)       — contraction wanted, unconditionally
//	T(x*y) + z              — contraction forbidden: the spec guarantees
//	                          "an explicit floating-point type conversion
//	                          rounds to the precision of the target type",
//	                          so the conversion is a rounding barrier
//
// The conversion costs nothing on non-fusing targets (the value already
// has type T) and pins identical bit patterns on fusing ones.
//
// The check reads one expression at a time, so it cannot see a product
// bound to a variable and added in a later statement, or returned by an
// inlined call such as eft.TwoProd; gc fuses those too.
// internal/analysis/fusescan checks the arm64 machine code for them.
package fpcontract

import (
	"go/ast"
	"go/token"

	"multifloats/internal/analysis"
)

// Analyzer is the fpcontract pass.
var Analyzer = &analysis.Analyzer{
	Name: "fpcontract",
	Doc:  "flag float a*b±c expressions eligible for spec-sanctioned FMA contraction",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if n.Op == token.ADD || n.Op == token.SUB {
					check(pass, n.Op, n.X)
					check(pass, n.Op, n.Y)
				}
			case *ast.AssignStmt:
				if (n.Tok == token.ADD_ASSIGN || n.Tok == token.SUB_ASSIGN) && len(n.Rhs) == 1 {
					op := token.ADD
					if n.Tok == token.SUB_ASSIGN {
						op = token.SUB
					}
					check(pass, op, n.Rhs[0])
				}
			}
			return true
		})
	}
	return nil
}

// check reports x if it is a bare float multiplication (possibly behind
// parentheses or a unary sign) feeding the surrounding addition.
func check(pass *analysis.Pass, op token.Token, x ast.Expr) {
	e := ast.Unparen(x)
	if u, ok := e.(*ast.UnaryExpr); ok && (u.Op == token.SUB || u.Op == token.ADD) {
		e = ast.Unparen(u.X)
	}
	mul, ok := e.(*ast.BinaryExpr)
	if !ok || mul.Op != token.MUL {
		return
	}
	w := pass.ExprWidths(mul)
	if !w.IsFloat() {
		return
	}
	// Constant-folded products are evaluated exactly by the compiler at
	// arbitrary precision; contraction cannot change them.
	if tv, ok := pass.TypesInfo.Types[mul]; ok && tv.Value != nil {
		return
	}
	name := "float64"
	if tv, ok := pass.TypesInfo.Types[mul]; ok && tv.Type != nil {
		name = analysis.FloatTypeName(tv.Type)
	}
	pass.Reportf(mul.Pos(),
		"float product feeds %q and is eligible for FMA contraction on fusing targets (arm64); make the rounding explicit: math.FMA/eft.FMA if fusing is intended, or wrap the product in a %s(...) conversion barrier",
		op.String(), name)
}
