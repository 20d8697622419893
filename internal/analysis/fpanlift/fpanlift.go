// Package fpanlift statically lifts //mf:fpan-annotated kernels into
// internal/fpan programs.
//
// An annotated function is a claim: "this body is exactly the gate
// network of proof spec S". The lifter symbolically executes the body —
// TwoSum/FastTwoSum/TwoProd calls, FMAs, plain ⊕/⊗, exact doublings —
// into the register IR of fpan.Program, rejecting anything that is not a
// straight-line gate network with a precise source-located finding: a
// stray branch, a gate result that fans out to two consumers
// (re-associated operands), or a temporary that is overwritten before
// any gate reads it. A lifted instance must then hash-match its spec's
// reference kernel (and, where the spec names one, diff cleanly against
// the canonical program fpan.KernelProgram builds from the paper's
// network), so every flattened copy in the generated GEMM/GEMV/lane
// kernels is machine-checked against the one program cmd/mfprove
// verifies exhaustively.
//
// Three lifting modes, selected by the annotation:
//
//	//mf:fpan <spec>         whole function, wire discipline enforced
//	//mf:fpan <eft spec>     whole function, plain-op bodies (the eft
//	                         primitives), verified by EFT identities
//	//mf:fpan blocks=<spec>  every naked inner block lifts independently
//	                         to the named spec (generated kernels whose
//	                         loop/slice scaffolding is not gate code)
//
// In blocks mode, loads of free values (idents declared outside the
// block, index expressions) become program parameters in load order, and
// stores (index-expression writes, assignments to free idents) become
// outputs. A negated load (-ys[i], the subtraction lanes) absorbs the
// sign into the parameter — sound, because the proof quantifies over all
// parameter values — which is what makes the sub lanes hash-equal the
// addition reference kernel.
package fpanlift

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/constant"
	"go/printer"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"

	"multifloats/internal/analysis"
	"multifloats/internal/fpan"
)

// Analyzer reports //mf:fpan annotations whose function does not lift to
// the named proof spec. The exhaustive verification of the lifted
// programs is cmd/mfprove's job; this analyzer is the static half that
// runs under cmd/mflint.
var Analyzer = &analysis.Analyzer{
	Name: "fpanlift",
	Doc:  "checks that every //mf:fpan kernel lifts to its proof spec's reference gate network",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	lifted, diags := liftFiles(pass.Loader, pass.Files, pass.TypesInfo, newRefCache())
	_ = lifted
	for _, d := range diags {
		pass.Reportf(d.Pos, "%s", d.Message)
	}
	return nil
}

// Lifted is one successfully lifted kernel (or generated block).
type Lifted struct {
	Pkg   string // import path
	Func  string // FuncDeclKey, with "#<n>" appended for block n
	Pos   token.Pos
	Spec  *fpan.Spec
	Prog  *fpan.Program
	IsRef bool // this function is Spec.Ref itself
}

// refCache memoizes lifted reference kernels by spec name across the
// packages of one LiftModule / analyzer run.
type refCache map[string]*refEntry

type refEntry struct {
	prog *fpan.Program
	err  error
}

func newRefCache() refCache { return make(refCache) }

// LiftPackage lifts every annotated function of pkg, returning the
// lifted programs and the findings. The loader resolves reference
// kernels declared in other packages.
func LiftPackage(ld *analysis.Loader, pkg *analysis.Package) ([]Lifted, []analysis.Diagnostic) {
	lifted, diags := liftFiles(ld, pkg.Files, pkg.Info, newRefCache())
	for i := range lifted {
		lifted[i].Pkg = pkg.Path
	}
	return lifted, diags
}

// LiftModule lifts every annotated function of every module package.
// Findings come back per package in load order; a package that fails to
// load is an error (the module must type-check for proofs to mean
// anything).
func LiftModule(ld *analysis.Loader) ([]Lifted, []analysis.Diagnostic, error) {
	pkgs, err := ld.LoadAll()
	if err != nil {
		return nil, nil, err
	}
	cache := newRefCache()
	var all []Lifted
	var allDiags []analysis.Diagnostic
	for _, pkg := range pkgs {
		lifted, diags := liftFiles(ld, pkg.Files, pkg.Info, cache)
		for i := range lifted {
			lifted[i].Pkg = pkg.Path
		}
		all = append(all, lifted...)
		allDiags = append(allDiags, diags...)
	}
	return all, allDiags, nil
}

// liftFiles processes the annotated functions of one package's files.
func liftFiles(ld *analysis.Loader, files []*ast.File, info *types.Info, cache refCache) ([]Lifted, []analysis.Diagnostic) {
	var lifted []Lifted
	var diags []analysis.Diagnostic
	report := func(pos token.Pos, format string, args ...any) {
		diags = append(diags, analysis.Diagnostic{
			Pos: pos, Analyzer: "fpanlift", Message: fmt.Sprintf(format, args...),
		})
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			arg := fpanArg(fd)
			if arg == "" {
				continue
			}
			blocksMode := false
			specName := arg
			if rest, ok := strings.CutPrefix(arg, "blocks="); ok {
				blocksMode = true
				specName = rest
			}
			spec := fpan.SpecByName(specName)
			if spec == nil {
				report(fd.Pos(), "//mf:fpan names unknown proof spec %q (known specs are listed in internal/fpan/specs.go)", specName)
				continue
			}
			key := analysis.FuncDeclKey(fd)
			isRef := refMatches(ld, fd, spec)
			if blocksMode {
				lifted = append(lifted, liftBlocksFunc(ld, fd, info, spec, key, cache, report)...)
				continue
			}
			prog, lerr := liftFunc(ld, fd, info, spec)
			if lerr != nil {
				report(lerr.pos, "cannot lift %s to spec %s: %s", key, spec.Name, lerr.msg)
				continue
			}
			if n := spec.NumParams(); prog.NumParams != n {
				report(fd.Pos(), "%s lifts with %d scalar parameters; spec %s expects %d", key, prog.NumParams, spec.Name, n)
				continue
			}
			if isRef {
				if d := canonDiff(prog, spec); d != "" {
					report(fd.Pos(), "%s is spec %s's reference kernel but differs from the canonical %s program: %s", key, spec.Name, spec.Canon, d)
					continue
				}
			} else {
				ref, err := refProgram(ld, spec, cache)
				if err != nil {
					report(fd.Pos(), "cannot resolve reference kernel for spec %s: %v", spec.Name, err)
					continue
				}
				if prog.Hash() != ref.Hash() {
					report(fd.Pos(), "%s does not match spec %s's reference kernel %s: %s", key, spec.Name, spec.Ref, firstLine(prog.Diff(ref)))
					continue
				}
			}
			lifted = append(lifted, Lifted{Func: key, Pos: fd.Pos(), Spec: spec, Prog: prog, IsRef: isRef})
		}
	}
	return lifted, diags
}

// fpanArg returns the //mf:fpan argument of fd, or "".
func fpanArg(fd *ast.FuncDecl) string {
	for _, c := range fd.Doc.List {
		text := strings.TrimSpace(c.Text)
		if rest, ok := strings.CutPrefix(text, "//mf:fpan"); ok && rest != "" && (rest[0] == ' ' || rest[0] == '\t') {
			arg := strings.TrimSpace(rest)
			// Drop a trailing analysistest want clause (fixtures).
			if i := strings.IndexAny(arg, " \t"); i > 0 {
				arg = arg[:i]
			}
			return arg
		}
	}
	return ""
}

// refMatches reports whether fd (under loader ld) is the declaration
// spec.Ref names: the key suffix must match ("DD.Add" of "qd.DD.Add")
// and the declaration must live in the named package directory.
func refMatches(ld *analysis.Loader, fd *ast.FuncDecl, spec *fpan.Spec) bool {
	base, ok := strings.CutSuffix(spec.Ref, "."+analysis.FuncDeclKey(fd))
	if !ok {
		return false
	}
	pos := ld.Fset.Position(fd.Pos())
	return filepath.Base(filepath.Dir(pos.Filename)) == base
}

// refProgram lifts the spec's reference kernel (loading its package if
// necessary) and memoizes the result.
func refProgram(ld *analysis.Loader, spec *fpan.Spec, cache refCache) (*fpan.Program, error) {
	if e, ok := cache[spec.Name]; ok {
		return e.prog, e.err
	}
	prog, err := liftRef(ld, spec)
	cache[spec.Name] = &refEntry{prog: prog, err: err}
	return prog, err
}

func liftRef(ld *analysis.Loader, spec *fpan.Spec) (*fpan.Program, error) {
	key := spec.Ref
	base := ""
	if i := strings.Index(key, "."); i > 0 {
		base, key = spec.Ref[:i], spec.Ref[i+1:]
	}
	if base == "" {
		return nil, fmt.Errorf("malformed reference %q", spec.Ref)
	}
	path := ld.ModulePath() + "/internal/" + base
	pkg, err := ld.LoadDir(path, filepath.Join(ld.Root(), "internal", base))
	if err != nil {
		return nil, fmt.Errorf("loading %s: %w", path, err)
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || analysis.FuncDeclKey(fd) != key {
				continue
			}
			prog, lerr := liftFunc(ld, fd, pkg.Info, spec)
			if lerr != nil {
				pos := ld.Fset.Position(lerr.pos)
				return nil, fmt.Errorf("lifting %s (%s:%d): %s", spec.Ref, filepath.Base(pos.Filename), pos.Line, lerr.msg)
			}
			if n := spec.NumParams(); prog.NumParams != n {
				return nil, fmt.Errorf("%s lifts with %d parameters; spec expects %d", spec.Ref, prog.NumParams, n)
			}
			return prog, nil
		}
	}
	return nil, fmt.Errorf("no declaration %s in %s", key, path)
}

// canonDiff diffs prog against the canonical program of the kernel the
// spec names, built from the production networks alone.
func canonDiff(prog *fpan.Program, spec *fpan.Spec) string {
	if spec.Canon == "" {
		return ""
	}
	ref := fpan.KernelProgram(spec.Canon)
	if ref == nil {
		return fmt.Sprintf("spec names unknown canonical kernel %q", spec.Canon)
	}
	return prog.Diff(ref)
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// ---------------------------------------------------------------------------
// The lifter.

// liftFailure aborts a lift with a located message; recovered at the
// liftFunc/liftBlock boundary.
type liftFailure struct {
	pos token.Pos
	msg string
}

type liftErr struct {
	pos token.Pos
	msg string
}

// regInfo tracks one abstract register during lifting. Registers are
// renumbered params-first when the Program is finalized.
type regInfo struct {
	name      string
	isParam   bool
	inst      int // producing instruction, -1 for params
	uses      int
	discarded bool // assigned to _
	pos       token.Pos
}

type pendingOut struct {
	obj types.Object // free ident whose final value is the output (nil for index stores)
	op  fpan.Operand
	pos token.Pos
}

type lifter struct {
	fset    *token.FileSet
	info    *types.Info
	eftPath string

	prim   bool // eft primitive body: no wire discipline
	blocks bool // block mode: free loads are params, stores are outputs
	blo    token.Pos
	bhi    token.Pos

	regs   []regInfo
	insts  []fpan.Inst
	env    map[types.Object]fpan.Operand
	fields map[types.Object]map[string]fpan.Operand
	outs   []pendingOut
	done   bool // saw the return
}

func (lf *lifter) failf(pos token.Pos, format string, args ...any) {
	panic(liftFailure{pos: pos, msg: fmt.Sprintf(format, args...)})
}

func (lf *lifter) newReg(name string, isParam bool, inst int, pos token.Pos) int {
	r := len(lf.regs)
	lf.regs = append(lf.regs, regInfo{name: name, isParam: isParam, inst: inst, pos: pos})
	return r
}

// use counts one gate consumption of op's register. Parameters are
// exempt (multiplicands fan out to many product gates by design); only
// instruction results carry the one-consumer wire discipline.
func (lf *lifter) use(op fpan.Operand) {
	if !lf.regs[op.Reg].isParam {
		lf.regs[op.Reg].uses++
	}
}

// emit appends an instruction writing ndst fresh registers and returns
// their operands. Operand uses are counted by the caller (TwoProd's
// internal FMA re-read of the product is deliberately not counted).
func (lf *lifter) emit(op fpan.OpKind, a, b, c fpan.Operand, ndst int, name string, pos token.Pos) (fpan.Operand, fpan.Operand) {
	idx := len(lf.insts)
	d0 := lf.newReg(name, false, idx, pos)
	d1 := -1
	if ndst == 2 {
		d1 = lf.newReg(name+"#e", false, idx, pos)
	}
	lf.insts = append(lf.insts, fpan.Inst{Op: op, A: a, B: b, C: c, Dst: [2]int{d0, d1}})
	return fpan.Operand{Reg: d0}, fpan.Operand{Reg: d1}
}

// exprString renders an expression for parameter names and messages.
func (lf *lifter) exprString(e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, lf.fset, e); err != nil {
		return "?"
	}
	return buf.String()
}

// isFloatish reports whether t is a scalar floating-point type in this
// module's sense: float32/float64 or a type parameter (the generic
// kernels' T, constrained to eft.Float).
func isFloatish(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Info()&types.IsFloat != 0
	case *types.Interface:
		// A type parameter's underlying type is its constraint interface.
		return true
	}
	if _, ok := t.(*types.TypeParam); ok {
		return true
	}
	return false
}

// floatStruct returns the ordered float fields of a struct type (the DD
// receiver shape), or nil if t is not a struct of floats.
func floatStruct(t types.Type) *types.Struct {
	st, ok := t.Underlying().(*types.Struct)
	if !ok || st.NumFields() == 0 {
		return nil
	}
	for i := 0; i < st.NumFields(); i++ {
		if !isFloatish(st.Field(i).Type()) {
			return nil
		}
	}
	return st
}

// bindParam introduces the scalar parameters of one declared function
// parameter (or receiver): one register for a float, one per field for a
// float struct.
func (lf *lifter) bindParam(obj types.Object, name string, pos token.Pos) {
	t := obj.Type()
	if st := floatStruct(t); st != nil && !isFloatish(t) {
		m := make(map[string]fpan.Operand, st.NumFields())
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			r := lf.newReg(name+"."+f.Name(), true, -1, pos)
			m[f.Name()] = fpan.Operand{Reg: r}
		}
		lf.fields[obj] = m
		return
	}
	if !isFloatish(t) {
		lf.failf(pos, "parameter %s has non-float type %s", name, t)
	}
	r := lf.newReg(name, true, -1, pos)
	lf.env[obj] = fpan.Operand{Reg: r}
}

// finalize renumbers registers params-first and assembles the Program.
func (lf *lifter) finalize(name string) *fpan.Program {
	remap := make([]int, len(lf.regs))
	next := 0
	var paramNames []string
	for i, r := range lf.regs {
		if r.isParam {
			remap[i] = next
			paramNames = append(paramNames, r.name)
			next++
		}
	}
	numParams := next
	for i := range lf.regs {
		if !lf.regs[i].isParam {
			remap[i] = next
			next++
		}
	}
	mapOp := func(o fpan.Operand) fpan.Operand { return fpan.Operand{Reg: remap[o.Reg], Neg: o.Neg} }
	prog := &fpan.Program{
		Name:       name,
		NumParams:  numParams,
		ParamNames: paramNames,
		NumRegs:    len(lf.regs),
	}
	for _, in := range lf.insts {
		out := fpan.Inst{Op: in.Op, A: mapOp(in.A), Dst: [2]int{remap[in.Dst[0]], -1}}
		if in.NumIn() >= 2 {
			out.B = mapOp(in.B)
		}
		if in.Op == fpan.OpFMA {
			out.C = mapOp(in.C)
		}
		if in.Dst[1] >= 0 {
			out.Dst[1] = remap[in.Dst[1]]
		}
		prog.Insts = append(prog.Insts, out)
	}
	for _, po := range lf.outs {
		prog.Outputs = append(prog.Outputs, remap[po.op.Reg])
	}
	return prog
}

// checkDiscipline enforces the wire rule at end of lift: every
// instruction result feeds at most one consumer. Zero consumers is legal
// — FPANs discard error wires (the canonical networks' [discard] gates)
// — but more than one means the source re-associated a wire into two
// gates, which breaks the network model the proof is about.
func (lf *lifter) checkDiscipline() {
	if lf.prim {
		return
	}
	for _, r := range lf.regs {
		if r.isParam || r.uses <= 1 {
			continue
		}
		lf.failf(r.pos, "the value %s feeds %d gates; an FPAN wire feeds exactly one (re-associated operand)", r.name, r.uses)
	}
}

// liftFunc lifts a whole annotated function body.
func liftFunc(ld *analysis.Loader, fd *ast.FuncDecl, info *types.Info, spec *fpan.Spec) (prog *fpan.Program, lerr *liftErr) {
	lf := &lifter{
		fset:    ld.Fset,
		info:    info,
		eftPath: ld.ModulePath() + "/internal/eft",
		prim:    isEFTSpec(spec),
		env:     make(map[types.Object]fpan.Operand),
		fields:  make(map[types.Object]map[string]fpan.Operand),
	}
	defer func() {
		if r := recover(); r != nil {
			f, ok := r.(liftFailure)
			if !ok {
				panic(r)
			}
			prog, lerr = nil, &liftErr{pos: f.pos, msg: f.msg}
		}
	}()
	if fd.Body == nil {
		lf.failf(fd.Pos(), "no body")
	}
	if fd.Recv != nil {
		for _, field := range fd.Recv.List {
			for _, n := range field.Names {
				if obj := info.Defs[n]; obj != nil {
					lf.bindParam(obj, n.Name, n.Pos())
				}
			}
		}
	}
	for _, field := range fd.Type.Params.List {
		for _, n := range field.Names {
			if obj := info.Defs[n]; obj != nil {
				lf.bindParam(obj, n.Name, n.Pos())
			}
		}
	}
	lf.stmts(fd.Body.List)
	if len(lf.outs) == 0 {
		lf.failf(fd.End(), "no outputs: the function never returns a lifted value")
	}
	for _, po := range lf.outs {
		if po.op.Neg {
			lf.failf(po.pos, "output %s is negated; outputs must be plain wire values", lf.regs[po.op.Reg].name)
		}
		lf.use(po.op)
	}
	lf.checkDiscipline()
	p := lf.finalize(spec.Name)
	if err := p.Validate(); err != nil {
		lf.failf(fd.Pos(), "lifted program invalid: %v", err)
	}
	return p, nil
}

func isEFTSpec(spec *fpan.Spec) bool {
	switch spec.Val {
	case fpan.ValEFTSum, fpan.ValEFTFastSum, fpan.ValEFTProd:
		return true
	}
	return false
}

// liftBlocksFunc lifts every naked inner block of a generated kernel to
// the spec's reference program.
func liftBlocksFunc(ld *analysis.Loader, fd *ast.FuncDecl, info *types.Info, spec *fpan.Spec, key string, cache refCache, report func(token.Pos, string, ...any)) []Lifted {
	ref, err := refProgram(ld, spec, cache)
	if err != nil {
		report(fd.Pos(), "cannot resolve reference kernel for spec %s: %v", spec.Name, err)
		return nil
	}
	blocks := nakedBlocks(fd.Body)
	if len(blocks) == 0 {
		report(fd.Pos(), "%s is annotated blocks=%s but contains no naked inner blocks", key, spec.Name)
		return nil
	}
	var lifted []Lifted
	for i, blk := range blocks {
		prog, lerr := liftBlock(ld, blk, info, spec)
		if lerr != nil {
			report(lerr.pos, "cannot lift block %d of %s to spec %s: %s", i, key, spec.Name, lerr.msg)
			continue
		}
		if n := spec.NumParams(); prog.NumParams != n {
			report(blk.Pos(), "block %d of %s lifts with %d scalar parameters; spec %s expects %d", i, key, prog.NumParams, spec.Name, n)
			continue
		}
		if prog.Hash() != ref.Hash() {
			report(blk.Pos(), "block %d of %s does not match spec %s's reference kernel %s: %s", i, key, spec.Name, spec.Ref, firstLine(prog.Diff(ref)))
			continue
		}
		lifted = append(lifted, Lifted{
			Func: fmt.Sprintf("%s#%d", key, i), Pos: blk.Pos(), Spec: spec, Prog: prog,
		})
	}
	return lifted
}

// nakedBlocks collects the bare { ... } statements of a generated kernel
// body, looking inside loop bodies (the unrolled fast path and the
// scalar tail) but not into conditional arms — a block behind a branch
// is scaffolding, not an unconditional gate network.
func nakedBlocks(body *ast.BlockStmt) []*ast.BlockStmt {
	var out []*ast.BlockStmt
	var walk func(list []ast.Stmt)
	walk = func(list []ast.Stmt) {
		for _, s := range list {
			switch s := s.(type) {
			case *ast.BlockStmt:
				out = append(out, s)
			case *ast.ForStmt:
				walk(s.Body.List)
			case *ast.RangeStmt:
				walk(s.Body.List)
			}
		}
	}
	if body != nil {
		walk(body.List)
	}
	return out
}

// liftBlock lifts one naked generated block.
func liftBlock(ld *analysis.Loader, blk *ast.BlockStmt, info *types.Info, spec *fpan.Spec) (prog *fpan.Program, lerr *liftErr) {
	lf := &lifter{
		fset:    ld.Fset,
		info:    info,
		eftPath: ld.ModulePath() + "/internal/eft",
		blocks:  true,
		blo:     blk.Pos(),
		bhi:     blk.End(),
		env:     make(map[types.Object]fpan.Operand),
		fields:  make(map[types.Object]map[string]fpan.Operand),
	}
	defer func() {
		if r := recover(); r != nil {
			f, ok := r.(liftFailure)
			if !ok {
				panic(r)
			}
			prog, lerr = nil, &liftErr{pos: f.pos, msg: f.msg}
		}
	}()
	lf.stmts(blk.List)
	// Free idents assigned in the block yield their final values.
	for i := range lf.outs {
		if obj := lf.outs[i].obj; obj != nil {
			lf.outs[i].op = lf.env[obj]
		}
	}
	if len(lf.outs) == 0 {
		lf.failf(blk.End(), "no outputs: the block stores no lifted value")
	}
	for _, po := range lf.outs {
		if po.op.Neg {
			lf.failf(po.pos, "output %s is negated; outputs must be plain wire values", lf.regs[po.op.Reg].name)
		}
		lf.use(po.op)
	}
	lf.checkDiscipline()
	p := lf.finalize(spec.Name)
	if err := p.Validate(); err != nil {
		lf.failf(blk.Pos(), "lifted program invalid: %v", err)
	}
	return p, nil
}

// ---------------------------------------------------------------------------
// Statements.

func (lf *lifter) stmts(list []ast.Stmt) {
	for _, s := range list {
		if lf.done {
			lf.failf(s.Pos(), "statement after return")
		}
		lf.stmt(s)
	}
}

func (lf *lifter) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		lf.assign(s)
	case *ast.ReturnStmt:
		lf.ret(s)
	case *ast.BlockStmt:
		lf.stmts(s.List)
	case *ast.IfStmt:
		lf.failf(s.Pos(), "stray branch (if): an FPAN is straight-line gate code")
	case *ast.ForStmt, *ast.RangeStmt:
		lf.failf(s.Pos(), "stray branch (loop): an FPAN is straight-line gate code")
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		lf.failf(s.Pos(), "stray branch (switch): an FPAN is straight-line gate code")
	case *ast.EmptyStmt:
	default:
		lf.failf(s.Pos(), "unsupported statement (%T)", s)
	}
}

func (lf *lifter) assign(s *ast.AssignStmt) {
	switch s.Tok {
	case token.DEFINE, token.ASSIGN:
	case token.ADD_ASSIGN, token.SUB_ASSIGN:
		if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
			lf.failf(s.Pos(), "unsupported compound assignment shape")
		}
		id, ok := s.Lhs[0].(*ast.Ident)
		if !ok {
			lf.failf(s.Pos(), "compound assignment to non-identifier")
		}
		cur := lf.lowerIdent(id)
		rhs := lf.lower(s.Rhs[0])
		if s.Tok == token.SUB_ASSIGN {
			rhs.Neg = !rhs.Neg
		}
		lf.use(cur)
		lf.use(rhs)
		d0, _ := lf.emit(fpan.OpAdd, cur, rhs, fpan.Operand{}, 1, id.Name, s.Pos())
		lf.bind(s.Lhs[0], d0, s.Pos())
		return
	default:
		lf.failf(s.Pos(), "unsupported assignment operator %s", s.Tok)
	}

	// Two results from one gate call: s, e := TwoSum(a, b).
	if len(s.Rhs) == 1 && len(s.Lhs) == 2 {
		call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr)
		if !ok {
			lf.failf(s.Pos(), "two-value assignment from a non-call")
		}
		d0, d1 := lf.lowerPair(call)
		lf.bind(s.Lhs[0], d0, s.Pos())
		lf.bind(s.Lhs[1], d1, s.Pos())
		return
	}
	if len(s.Lhs) != len(s.Rhs) {
		lf.failf(s.Pos(), "unsupported assignment shape (%d = %d)", len(s.Lhs), len(s.Rhs))
	}
	// Parallel assignment: evaluate every right side before binding
	// (w0, w1 = w1, w0 must lift as the swap it is).
	ops := make([]fpan.Operand, len(s.Rhs))
	for i, e := range s.Rhs {
		ops[i] = lf.lower(e)
	}
	for i, l := range s.Lhs {
		lf.bind(l, ops[i], s.Pos())
	}
}

// bind records that lhs now holds op.
func (lf *lifter) bind(lhs ast.Expr, op fpan.Operand, pos token.Pos) {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if l.Name == "_" {
			if op.Reg >= 0 && !lf.regs[op.Reg].isParam {
				lf.regs[op.Reg].discarded = true
			}
			return
		}
		obj := lf.info.Defs[l]
		if obj == nil {
			obj = lf.info.Uses[l]
		}
		if obj == nil {
			lf.failf(l.Pos(), "cannot resolve %s", l.Name)
		}
		if old, ok := lf.env[obj]; ok && !lf.prim {
			r := lf.regs[old.Reg]
			if !r.isParam && r.uses == 0 && !r.discarded {
				lf.failf(pos, "%s overwrites the unconsumed result of the %s at %s (clobbered temporary)",
					l.Name, lf.insts[r.inst].Op, lf.fset.Position(r.pos))
			}
		}
		if lf.blocks && lf.freeObj(obj) {
			lf.noteFreeStore(obj, op, pos)
		}
		lf.env[obj] = op
	case *ast.IndexExpr:
		if !lf.blocks {
			lf.failf(pos, "store through %s: only generated blocks store to memory", lf.exprString(l))
		}
		lf.outs = append(lf.outs, pendingOut{op: op, pos: pos})
	default:
		lf.failf(pos, "unsupported assignment target %s", lf.exprString(lhs))
	}
}

// freeObj reports whether obj is declared outside the current block.
func (lf *lifter) freeObj(obj types.Object) bool {
	return obj.Pos() < lf.blo || obj.Pos() >= lf.bhi
}

// noteFreeStore registers (or refreshes) a free ident as a pending
// output; its final value is taken when the block ends.
func (lf *lifter) noteFreeStore(obj types.Object, op fpan.Operand, pos token.Pos) {
	for i := range lf.outs {
		if lf.outs[i].obj == obj {
			return // slot exists; final value resolved at block end
		}
	}
	lf.outs = append(lf.outs, pendingOut{obj: obj, op: op, pos: pos})
}

func (lf *lifter) ret(s *ast.ReturnStmt) {
	if lf.blocks {
		lf.failf(s.Pos(), "return inside a generated block")
	}
	if len(s.Results) == 0 {
		lf.failf(s.Pos(), "naked return is not liftable")
	}
	for _, e := range s.Results {
		e = ast.Unparen(e)
		if call, ok := e.(*ast.CallExpr); ok && lf.pairCall(call) != opNotPair {
			d0, d1 := lf.lowerPair(call)
			lf.outs = append(lf.outs, pendingOut{op: d0, pos: e.Pos()}, pendingOut{op: d1, pos: e.Pos()})
			continue
		}
		if cl, ok := e.(*ast.CompositeLit); ok {
			for _, elt := range cl.Elts {
				if _, ok := elt.(*ast.KeyValueExpr); ok {
					lf.failf(elt.Pos(), "keyed composite literal is not liftable")
				}
				lf.outs = append(lf.outs, pendingOut{op: lf.lower(elt), pos: elt.Pos()})
			}
			continue
		}
		lf.outs = append(lf.outs, pendingOut{op: lf.lower(e), pos: e.Pos()})
	}
	lf.done = true
}

// ---------------------------------------------------------------------------
// Expressions.

// lower reduces a single-valued expression to an operand, emitting
// instructions as needed.
func (lf *lifter) lower(e ast.Expr) fpan.Operand {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.Ident:
		return lf.lowerIdent(e)
	case *ast.UnaryExpr:
		if e.Op != token.SUB {
			lf.failf(e.Pos(), "unsupported unary operator %s", e.Op)
		}
		// A negated free load absorbs the sign into the parameter: the
		// proof quantifies over all parameter values, and absorption is
		// what makes the subtraction lanes hash-equal the addition
		// reference network.
		if lf.blocks {
			if inner := ast.Unparen(e.X); lf.isFreeLoad(inner) {
				return lf.loadParam(inner)
			}
		}
		op := lf.lower(e.X)
		op.Neg = !op.Neg
		return op
	case *ast.BinaryExpr:
		return lf.lowerBinary(e)
	case *ast.CallExpr:
		return lf.lowerCall(e)
	case *ast.IndexExpr, *ast.SelectorExpr:
		return lf.lowerLoad(e)
	}
	lf.failf(e.Pos(), "unsupported expression %s", lf.exprString(e))
	panic("unreachable")
}

func (lf *lifter) lowerIdent(id *ast.Ident) fpan.Operand {
	obj := lf.info.Uses[id]
	if obj == nil {
		obj = lf.info.Defs[id]
	}
	if obj == nil {
		lf.failf(id.Pos(), "cannot resolve %s", id.Name)
	}
	if op, ok := lf.env[obj]; ok {
		return op
	}
	if lf.blocks && lf.freeObj(obj) && isFloatish(obj.Type()) {
		return lf.loadParamObj(obj, id.Name, id.Pos())
	}
	lf.failf(id.Pos(), "%s is not a lifted value", id.Name)
	panic("unreachable")
}

// isFreeLoad reports whether e is a block-mode load source: an index or
// selector expression, or a free float ident.
func (lf *lifter) isFreeLoad(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.IndexExpr, *ast.SelectorExpr:
		tv, ok := lf.info.Types[e]
		return ok && tv.Type != nil && isFloatish(tv.Type)
	case *ast.Ident:
		obj := lf.info.Uses[e]
		if obj == nil {
			return false
		}
		_, bound := lf.env[obj]
		return !bound && lf.freeObj(obj) && isFloatish(obj.Type())
	}
	return false
}

// loadParam introduces a fresh parameter for a load expression.
func (lf *lifter) loadParam(e ast.Expr) fpan.Operand {
	r := lf.newReg(lf.exprString(e), true, -1, e.Pos())
	return fpan.Operand{Reg: r}
}

func (lf *lifter) loadParamObj(obj types.Object, name string, pos token.Pos) fpan.Operand {
	r := lf.newReg(name, true, -1, pos)
	op := fpan.Operand{Reg: r}
	lf.env[obj] = op
	return op
}

// lowerLoad handles index and selector reads: DD receiver fields in
// function mode, free memory loads in blocks mode.
func (lf *lifter) lowerLoad(e ast.Expr) fpan.Operand {
	if sel, ok := e.(*ast.SelectorExpr); ok {
		if x, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
			if obj := lf.info.Uses[x]; obj != nil {
				if m, ok := lf.fields[obj]; ok {
					op, ok := m[sel.Sel.Name]
					if !ok {
						lf.failf(e.Pos(), "no lifted field %s", lf.exprString(e))
					}
					return op
				}
			}
		}
	}
	if lf.blocks {
		t := lf.info.Types[e].Type
		if t == nil || !isFloatish(t) {
			lf.failf(e.Pos(), "load %s has non-float type", lf.exprString(e))
		}
		return lf.loadParam(e)
	}
	lf.failf(e.Pos(), "unsupported load %s", lf.exprString(e))
	panic("unreachable")
}

func (lf *lifter) lowerBinary(e *ast.BinaryExpr) fpan.Operand {
	name := lf.exprString(e)
	switch e.Op {
	case token.ADD, token.SUB:
		a := lf.lower(e.X)
		b := lf.lower(e.Y)
		if e.Op == token.SUB {
			b.Neg = !b.Neg
		}
		lf.use(a)
		lf.use(b)
		d0, _ := lf.emit(fpan.OpAdd, a, b, fpan.Operand{}, 1, name, e.Pos())
		return d0
	case token.MUL:
		// 2*x (and x*2) is the exact doubling of the squaring kernels.
		if lf.isConstTwo(e.X) {
			op := lf.lower(e.Y)
			lf.use(op)
			d0, _ := lf.emit(fpan.OpScale2, op, fpan.Operand{}, fpan.Operand{}, 1, name, e.Pos())
			return d0
		}
		if lf.isConstTwo(e.Y) {
			op := lf.lower(e.X)
			lf.use(op)
			d0, _ := lf.emit(fpan.OpScale2, op, fpan.Operand{}, fpan.Operand{}, 1, name, e.Pos())
			return d0
		}
		lf.rejectConst(e.X)
		lf.rejectConst(e.Y)
		a := lf.lower(e.X)
		b := lf.lower(e.Y)
		lf.use(a)
		lf.use(b)
		d0, _ := lf.emit(fpan.OpProd, a, b, fpan.Operand{}, 1, name, e.Pos())
		return d0
	}
	lf.failf(e.Pos(), "unsupported operator %s", e.Op)
	panic("unreachable")
}

func (lf *lifter) isConstTwo(e ast.Expr) bool {
	tv, ok := lf.info.Types[ast.Unparen(e)]
	if !ok || tv.Value == nil {
		return false
	}
	f, _ := constant.Float64Val(tv.Value)
	return f == 2
}

func (lf *lifter) rejectConst(e ast.Expr) {
	if tv, ok := lf.info.Types[ast.Unparen(e)]; ok && tv.Value != nil {
		lf.failf(e.Pos(), "constant operand %s is not liftable (only the exact doubling 2*x)", lf.exprString(e))
	}
}

// gate classification for calls.
type callKind int

const (
	opNotPair callKind = iota
	opPairTwoSum
	opPairFastTwoSum
	opPairTwoProd
)

// callee resolves the called function object.
func (lf *lifter) callee(call *ast.CallExpr) types.Object {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return lf.info.Uses[f]
	case *ast.SelectorExpr:
		return lf.info.Uses[f.Sel]
	}
	return nil
}

// pairCall classifies two-result gate calls.
func (lf *lifter) pairCall(call *ast.CallExpr) callKind {
	obj := lf.callee(call)
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != lf.eftPath {
		return opNotPair
	}
	switch fn.Name() {
	case "TwoSum":
		return opPairTwoSum
	case "FastTwoSum":
		return opPairFastTwoSum
	case "TwoProd":
		return opPairTwoProd
	}
	return opNotPair
}

// lowerPair emits a two-result gate call.
func (lf *lifter) lowerPair(call *ast.CallExpr) (fpan.Operand, fpan.Operand) {
	kind := lf.pairCall(call)
	if kind == opNotPair {
		lf.failf(call.Pos(), "call %s is not a recognized gate", lf.exprString(call.Fun))
	}
	if len(call.Args) != 2 {
		lf.failf(call.Pos(), "gate call with %d arguments", len(call.Args))
	}
	a := lf.lower(call.Args[0])
	b := lf.lower(call.Args[1])
	lf.use(a)
	lf.use(b)
	name := lf.exprString(call)
	switch kind {
	case opPairTwoSum:
		return lf.emit(fpan.OpTwoSum, a, b, fpan.Operand{}, 2, name, call.Pos())
	case opPairFastTwoSum:
		return lf.emit(fpan.OpFastTwoSum, a, b, fpan.Operand{}, 2, name, call.Pos())
	}
	// TwoProd lowers to the OpProd + OpFMA pair; the FMA's re-read of the
	// product is the pattern's exempt consumer and is not use-counted.
	p, _ := lf.emit(fpan.OpProd, a, b, fpan.Operand{}, 1, name, call.Pos())
	e, _ := lf.emit(fpan.OpFMA, a, b, fpan.Operand{Reg: p.Reg, Neg: true}, 1, name+"#e", call.Pos())
	return p, e
}

// lowerCall handles single-valued calls: conversions, FMA.
func (lf *lifter) lowerCall(call *ast.CallExpr) fpan.Operand {
	// Type conversions (T(x), float64(x)) only pick the rounding mode the
	// source already has; in the IR every product is rounded, so they are
	// transparent.
	if tv, ok := lf.info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) != 1 {
			lf.failf(call.Pos(), "unsupported conversion")
		}
		return lf.lower(call.Args[0])
	}
	obj := lf.callee(call)
	fn, ok := obj.(*types.Func)
	if !ok {
		lf.failf(call.Pos(), "call %s is not a recognized gate", lf.exprString(call.Fun))
	}
	pkgPath := ""
	if fn.Pkg() != nil {
		pkgPath = fn.Pkg().Path()
	}
	isFMA := (pkgPath == "math" && fn.Name() == "FMA") ||
		(pkgPath == lf.eftPath && (fn.Name() == "FMA" || fn.Name() == "FMA32"))
	if !isFMA {
		lf.failf(call.Pos(), "call %s.%s is not a recognized gate", pkgPath, fn.Name())
	}
	if len(call.Args) != 3 {
		lf.failf(call.Pos(), "FMA with %d arguments", len(call.Args))
	}
	a := lf.lower(call.Args[0])
	b := lf.lower(call.Args[1])
	c := lf.lower(call.Args[2])
	lf.use(a)
	lf.use(b)
	// The TwoProd pattern: FMA(a, b, -p) directly after p = a*b recovers
	// the product's rounding error; that re-read of p is part of the
	// virtual TwoProd gate, not a second consumer of the wire.
	if !lf.isTwoProdPattern(a, b, c) {
		lf.use(c)
	}
	d0, _ := lf.emit(fpan.OpFMA, a, b, c, 1, lf.exprString(call), call.Pos())
	return d0
}

func (lf *lifter) isTwoProdPattern(a, b, c fpan.Operand) bool {
	if !c.Neg {
		return false
	}
	r := lf.regs[c.Reg]
	if r.isParam {
		return false
	}
	in := lf.insts[r.inst]
	return in.Op == fpan.OpProd && in.A == a && in.B == b
}
