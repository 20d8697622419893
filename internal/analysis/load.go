package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Loader type-checks packages of the current module without shelling out
// to the go tool and without third-party machinery. Module packages are
// parsed from source and checked with a types.Config whose importer
// resolves module-internal import paths back through the loader itself;
// standard-library imports fall through to the compiler's source importer
// (which compiles the stdlib from GOROOT source, so the loader works in
// offline sandboxes with no export data and no module cache).
type Loader struct {
	Fset *token.FileSet

	root    string // module root directory (contains go.mod)
	modPath string // module path from go.mod
	std     types.ImporterFrom
	pkgs    map[string]*Package // by import path
	index   *Index
}

// Package is one loaded, type-checked package.
type Package struct {
	Path   string // import path ("multifloats/internal/eft", or fixture name)
	Dir    string
	Files  []*ast.File
	Types  *types.Package
	Info   *types.Info
	Annots *Annotations
}

// Index resolves contract annotations across every package the loader
// has type-checked (the cross-package facts store).
type Index struct {
	loader *Loader
}

// flags returns the annotation flags of pkgPath's function key.
func (ix *Index) flags(pkgPath, key string) Flags {
	if pkg, ok := ix.loader.pkgs[pkgPath]; ok && pkg.Annots != nil {
		return pkg.Annots.Keys[key]
	}
	return Flags{}
}

// BranchFree reports whether the function key in pkgPath carries
// //mf:branchfree.
func (ix *Index) BranchFree(pkgPath, key string) bool {
	return ix.flags(pkgPath, key).BranchFree
}

// NewLoader returns a loader rooted at the module containing dir (dir or
// an ancestor must hold go.mod).
func NewLoader(dir string) (*Loader, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("analysis: source importer does not implement ImporterFrom")
	}
	l := &Loader{
		Fset:    fset,
		root:    root,
		modPath: modPath,
		std:     std,
		pkgs:    make(map[string]*Package),
	}
	l.index = &Index{loader: l}
	return l, nil
}

// Root returns the module root directory.
func (l *Loader) Root() string { return l.root }

// ModulePath returns the module path from go.mod.
func (l *Loader) ModulePath() string { return l.modPath }

// Index returns the cross-package annotation index.
func (l *Loader) Index() *Index { return l.index }

// findModule walks up from dir to the enclosing go.mod.
func findModule(dir string) (root, modPath string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module directive", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		d = parent
	}
}

// LoadAll loads every package of the module (skipping testdata and hidden
// directories), in deterministic path order.
func (l *Loader) LoadAll() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	pkgs := make([]*Package, 0, len(dirs))
	for _, dir := range dirs {
		rel, err := filepath.Rel(l.root, dir)
		if err != nil {
			return nil, err
		}
		path := l.modPath
		if rel != "." {
			path = l.modPath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.load(path, dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// LoadDir type-checks the single package rooted at dir under the given
// import path (used by analysistest for fixture packages that live
// outside the module's package tree).
func (l *Loader) LoadDir(path, dir string) (*Package, error) {
	return l.load(path, dir)
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

// load parses and type-checks one package directory.
func (l *Loader) load(path, dir string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		// Honor build constraints (//go:build lines, _GOOS/_GOARCH
		// suffixes) the way the go tool would.
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no buildable Go files in %s", dir)
	}
	pkg := &Package{Path: path, Dir: dir, Files: files}
	// Register before checking so import cycles surface as type errors
	// rather than infinite recursion, and so the annotation index can see
	// the package while its dependents check.
	pkg.Annots = ParseAnnotations(l.Fset, files)
	l.pkgs[path] = pkg

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: (*loaderImporter)(l),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(path, l.Fset, files, info)
	if len(typeErrs) > 0 {
		delete(l.pkgs, path)
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, typeErrs[0])
	}
	pkg.Types = tpkg
	pkg.Info = info
	return pkg, nil
}

// loaderImporter routes module-internal imports back through the loader
// and everything else to the stdlib source importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	return li.ImportFrom(path, "", 0)
}

func (li *loaderImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	l := (*Loader)(li)
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")
		pkg, err := l.load(path, filepath.Join(l.root, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		if pkg.Types == nil {
			return nil, fmt.Errorf("analysis: import cycle through %s", path)
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}
