// Package analysis is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis vocabulary, sized for this repository's
// domain checkers (cmd/mflint).
//
// Why not x/tools: the module is deliberately dependency-free (go.mod has
// no requirements), and the four mflint analyzers need only a small slice
// of the upstream surface — an Analyzer descriptor, a per-package Pass
// with type information, and diagnostics. What x/tools calls "facts"
// (cross-package knowledge, here: which functions carry //mf:branchfree)
// is served instead by the Loader, which type-checks the whole module in
// one process and exposes an annotation Index over every loaded package.
//
// The package also owns the two comment-directive grammars the analyzers
// share:
//
//	//mf:branchfree   (func doc)  the function must compile to straight-line
//	                              FP code: no data-dependent control flow
//	//mf:hotpath      (func doc)  the function must not allocate
//	//mf:allow <analyzer> -- <why> (line) suppress findings on this or the
//	                              next source line; the justification is
//	                              mandatory and machine-checked
//
// See DESIGN.md "Machine-checked contracts" for the contract each
// analyzer enforces and its limits.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// KernelPkgs are the import-path suffixes (relative to the module path)
// of the packages whose numerics depend on "each written operation
// rounds exactly once": cmd/mflint scopes fpcontract and exactconst to
// them, and internal/analysis/fusescan scans their arm64 machine code.
var KernelPkgs = []string{
	"internal/eft",
	"internal/core",
	"internal/blas",
	"internal/fpan",
	"internal/qd",
	"internal/campary",
	"mf",
}

// Analyzer describes one static check. Name doubles as the key used by
// //mf:allow suppressions and by cmd/mflint's per-package scoping table.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Diagnostic is one finding, positioned inside the analyzed package.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Pass carries everything an Analyzer.Run invocation may inspect for a
// single package: syntax, types, and the module-wide annotation index.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Annots are the parsed //mf: directives of this package.
	Annots *Annotations
	// Index resolves //mf:branchfree / //mf:hotpath annotations across
	// every package the loader has seen (the facts mechanism).
	Index *Index
	// Loader gives analyzers that need more than the annotation index —
	// fpanlift resolves //mf:fpan reference kernels in other packages —
	// access to the module-wide loader.
	Loader *Loader

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run executes a over pkg and returns its findings with the package's
// //mf:allow suppressions applied:
//
//   - a finding on the same line as (or the line directly below) a
//     justified "//mf:allow <analyzer> -- <why>" directive is dropped;
//   - a matching directive with an empty justification suppresses nothing
//     and additionally yields a finding of its own, so a suppression can
//     never land without a reviewable reason;
//   - a justified directive that matches no finding yields a "suppresses
//     nothing" finding, so stale allows cannot accumulate.
//
// Findings are returned in file/position order.
func Run(a *Analyzer, pkg *Package, ld *Loader) ([]Diagnostic, error) {
	pass := &Pass{
		Analyzer:  a,
		Fset:      ld.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
		Annots:    pkg.Annots,
		Index:     ld.Index(),
		Loader:    ld,
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
	}
	diags := applyAllows(a.Name, pass.diags, pkg, ld.Fset)
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}

// applyAllows filters diags through the package's //mf:allow directives
// for the named analyzer.
func applyAllows(name string, diags []Diagnostic, pkg *Package, fset *token.FileSet) []Diagnostic {
	allows := make([]*Allow, 0, 4)
	for i := range pkg.Annots.Allows {
		if al := &pkg.Annots.Allows[i]; al.Analyzer == name {
			allows = append(allows, al)
		}
	}
	if len(allows) == 0 {
		return diags
	}
	var out []Diagnostic
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		var match *Allow
		// A directive on the finding's own line wins over one on the line
		// above, so adjacent directives never capture each other's findings.
		for _, al := range allows {
			if al.File == pos.Filename && al.Line == pos.Line {
				match = al
				break
			}
		}
		if match == nil {
			for _, al := range allows {
				if al.File == pos.Filename && al.Line == pos.Line-1 {
					match = al
					break
				}
			}
		}
		if match == nil {
			out = append(out, d)
			continue
		}
		match.matched = true
		if match.Reason == "" {
			// Keep the finding: an unjustified allow is not a suppression.
			out = append(out, d)
			continue
		}
		// Suppressed by a justified directive.
	}
	for _, al := range allows {
		switch {
		case al.Reason == "":
			out = append(out, Diagnostic{
				Pos:      al.Pos,
				Analyzer: name,
				Message:  fmt.Sprintf("//mf:allow %s requires a justification: write \"//mf:allow %s -- <why>\"", name, name),
			})
		case !al.matched && al.Reason != "":
			out = append(out, Diagnostic{
				Pos:      al.Pos,
				Analyzer: name,
				Message:  fmt.Sprintf("//mf:allow %s suppresses nothing on this line; delete the stale directive", name),
			})
		}
	}
	return out
}
