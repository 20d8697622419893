package fpanlift_test

import (
	"path/filepath"
	"strings"
	"testing"

	"multifloats/internal/analysis"
	"multifloats/internal/analysis/analysistest"
	"multifloats/internal/analysis/fpanlift"
	"multifloats/internal/fpan"
)

// TestFixtures runs the analyzer over the rejection fixture: every
// unliftable or mismatched kernel must produce exactly the findings its
// want comments state, and the clean kernel must produce none.
func TestFixtures(t *testing.T) {
	analysistest.Run(t, fpanlift.Analyzer, "fpanbad")
}

// TestLiftModule lifts the real module and pins the coverage the proof
// gate depends on: zero findings, every spec witnessed by its reference
// kernel, one hash per spec, and generated blas blocks present for both
// genmicro-generated files.
func TestLiftModule(t *testing.T) {
	ld, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	lifted, diags, err := fpanlift.LiftModule(ld)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("unexpected finding: %s: %s", ld.Fset.Position(d.Pos), d.Message)
	}

	hashes := make(map[string]string) // spec -> hash
	refs := make(map[string]bool)     // specs witnessed by their reference kernel
	pkgs := make(map[string]bool)
	var micro, lanes bool
	for _, l := range lifted {
		if prev, ok := hashes[l.Spec.Name]; ok && prev != l.Prog.Hash() {
			t.Errorf("spec %s lifted with two hashes: %s vs %s (%s)", l.Spec.Name, prev, l.Prog.Hash(), l.Func)
		}
		hashes[l.Spec.Name] = l.Prog.Hash()
		if l.IsRef {
			refs[l.Spec.Name] = true
		}
		pkgs[l.Pkg] = true
		if strings.HasPrefix(l.Func, "gemmMicro") || strings.HasPrefix(l.Func, "gemvTile") {
			micro = true
		}
		if strings.HasPrefix(l.Func, "lane") {
			lanes = true
		}
	}
	for _, spec := range []string{"twosum", "fasttwosum", "twoprod", "add2", "add3", "add4", "mul2", "mul3", "mul4", "mulacc2", "ddadd"} {
		if hashes[spec] == "" {
			t.Errorf("spec %s has no lifted kernel", spec)
		}
		if !refs[spec] {
			t.Errorf("spec %s's reference kernel did not lift as the ref", spec)
		}
	}
	for _, pkg := range []string{"multifloats/internal/eft", "multifloats/internal/core", "multifloats/internal/qd", "multifloats/internal/blas"} {
		if !pkgs[pkg] {
			t.Errorf("no kernels lifted from %s", pkg)
		}
	}
	if !micro {
		t.Error("no gemm/gemv blocks lifted from micro_generated.go")
	}
	if !lanes {
		t.Error("no lane blocks lifted from lanes_generated.go")
	}
	if len(lifted) < 100 {
		t.Errorf("only %d lifted kernels; the generated files alone contribute >150", len(lifted))
	}
}

// TestRefsMatchKernelPrograms diffs every add/mul/mulacc reference
// kernel in internal/core against the program fpan.KernelProgram builds
// from the production networks. Only the add and mul specs name a
// Canon, so this is the one direct check of the mulacc programs that
// genmicro emits the GEMM/GEMV blocks from.
func TestRefsMatchKernelPrograms(t *testing.T) {
	ld, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := ld.LoadDir(ld.ModulePath()+"/internal/core", filepath.Join(ld.Root(), "internal", "core"))
	if err != nil {
		t.Fatal(err)
	}
	lifted, diags := fpanlift.LiftPackage(ld, pkg)
	for _, d := range diags {
		t.Errorf("unexpected finding: %s: %s", ld.Fset.Position(d.Pos), d.Message)
	}
	refs := make(map[string]*fpan.Program)
	for _, l := range lifted {
		if l.IsRef {
			refs[l.Spec.Name] = l.Prog
		}
	}
	for _, op := range []string{"add", "mul", "mulacc"} {
		for n := 2; n <= 4; n++ {
			name := op + string(rune('0'+n))
			ref, want := refs[name], fpan.KernelProgram(name)
			if ref == nil || want == nil {
				t.Errorf("%s: lifted reference %v, KernelProgram %v", name, ref != nil, want != nil)
				continue
			}
			if d := ref.Diff(want); d != "" {
				t.Errorf("%s: core reference differs from KernelProgram: %s", name, d)
			}
		}
	}
}
