// Command mflint is the repository's domain-aware static analyzer: it
// machine-checks the floating-point contracts that the Go compiler
// cannot see and the test suite can only probe pointwise.
//
// Five analyzers run over the module (see each package's doc comment for
// the precise contract and its limits):
//
//	fpcontract  kernel packages   no float a*b±c expression eligible for FMA contraction
//	exactconst  kernel packages   every float constant is exactly representable
//	branchfree  whole module      //mf:branchfree functions have no data-dependent branches
//	hotalloc    whole module      //mf:hotpath functions have no allocation sites
//	fpanlift    whole module      //mf:fpan functions lift to their proof spec's gate network
//
// plus a directive hygiene check (unknown //mf: comments, stray
// annotations) so a typo cannot silently disable a contract.
//
// fpcontract and exactconst are scoped to the packages that implement
// expansion arithmetic — the EFT gates, the FPAN kernels, the BLAS tier,
// and the QD/CAMPARY comparison baselines — because that is where "one
// rounding per written operation" is a correctness contract rather than
// a preference. branchfree and hotalloc are annotation-driven and
// therefore run everywhere.
//
// Suppressions: a finding may be silenced only by an inline
// "//mf:allow <analyzer> -- <justification>" on the offending line (or
// the line above); directives with no justification, and justified
// directives that suppress nothing, are themselves findings.
//
// Usage:
//
//	mflint [-C dir] [package-dir ...]
//
// With no arguments the whole module is analyzed. Exit status is 1 if
// any finding is reported, 2 on operational errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"multifloats/internal/analysis"
	"multifloats/internal/analysis/branchfree"
	"multifloats/internal/analysis/exactconst"
	"multifloats/internal/analysis/fpanlift"
	"multifloats/internal/analysis/fpcontract"
	"multifloats/internal/analysis/hotalloc"
)

var analyzers = []struct {
	a      *analysis.Analyzer
	scoped bool // true: analysis.KernelPkgs only; false: whole module
}{
	{fpcontract.Analyzer, true},
	{exactconst.Analyzer, true},
	{branchfree.Analyzer, false},
	{hotalloc.Analyzer, false},
	// fpanlift is the static half of the proof gate: //mf:fpan kernels
	// must lift to their spec's reference network (cmd/mfprove re-checks
	// this and adds the exhaustive verification).
	{fpanlift.Analyzer, false},
}

func main() {
	chdir := flag.String("C", ".", "analyze the module containing `dir`")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: mflint [-C dir] [package-dir ...]\n\nAnalyzes the whole module when no package dirs are given.\n")
	}
	flag.Parse()

	ld, err := analysis.NewLoader(*chdir)
	if err != nil {
		fatal(err)
	}

	var pkgs []*analysis.Package
	if flag.NArg() == 0 {
		pkgs, err = ld.LoadAll()
		if err != nil {
			fatal(err)
		}
	} else {
		for _, arg := range flag.Args() {
			dir, err := filepath.Abs(arg)
			if err != nil {
				fatal(err)
			}
			rel, err := filepath.Rel(ld.Root(), dir)
			if err != nil || strings.HasPrefix(rel, "..") {
				fatal(fmt.Errorf("mflint: %s is outside the module at %s", arg, ld.Root()))
			}
			path := ld.ModulePath()
			if rel != "." {
				path = ld.ModulePath() + "/" + filepath.ToSlash(rel)
			}
			pkg, err := ld.LoadDir(path, dir)
			if err != nil {
				fatal(err)
			}
			pkgs = append(pkgs, pkg)
		}
	}

	findings := 0
	report := func(d analysis.Diagnostic) {
		pos := ld.Fset.Position(d.Pos)
		name := pos.Filename
		if rel, err := filepath.Rel(ld.Root(), name); err == nil && !strings.HasPrefix(rel, "..") {
			name = rel
		}
		fmt.Printf("%s:%d:%d: [%s] %s\n", name, pos.Line, pos.Column, d.Analyzer, d.Message)
		findings++
	}

	for _, pkg := range pkgs {
		// Directive hygiene first: unknown //mf: comments and stray
		// annotations are findings regardless of analyzer scope.
		for _, d := range pkg.Annots.Unknown {
			report(d)
		}
		for _, entry := range analyzers {
			if entry.scoped && !inKernelScope(ld.ModulePath(), pkg.Path) {
				continue
			}
			diags, err := analysis.Run(entry.a, pkg, ld)
			if err != nil {
				fatal(err)
			}
			for _, d := range diags {
				report(d)
			}
		}
	}

	if findings > 0 {
		fmt.Fprintf(os.Stderr, "mflint: %d finding(s)\n", findings)
		os.Exit(1)
	}
}

func inKernelScope(modPath, pkgPath string) bool {
	for _, suffix := range analysis.KernelPkgs {
		if pkgPath == modPath+"/"+suffix {
			return true
		}
	}
	return false
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mflint:", err)
	os.Exit(2)
}
