package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one loaded, type-checked package ready for analysis.
// Test files (*_test.go) are not loaded: every analyzer's scope is
// non-test code, and fixtures prove the behavior instead.
type Package struct {
	Path  string // import path (module-relative for repo packages)
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// A Loader parses and type-checks packages inside one module without
// golang.org/x/tools: repo-internal import paths are resolved against
// the module root, everything else (the standard library) through the
// stdlib source importer, which reads $GOROOT/src.
type Loader struct {
	Root   string // module root directory (holds go.mod)
	Module string // module path declared in go.mod

	fset   *token.FileSet
	stdlib types.Importer
	byDir  map[string]*Package
	inFlit map[string]bool // dirs currently being loaded (cycle guard)
}

// NewLoader builds a loader for the module rooted at root. The module
// path is read from root/go.mod.
func NewLoader(root string) (*Loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	mod, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Root:   abs,
		Module: mod,
		fset:   fset,
		stdlib: importer.ForCompiler(fset, "source", nil),
		byDir:  make(map[string]*Package),
		inFlit: make(map[string]bool),
	}, nil
}

// modulePath extracts the module declaration from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s: no module declaration", gomod)
}

// FindModuleRoot walks upward from dir to the nearest directory
// containing go.mod.
func FindModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(abs, "go.mod")); err == nil {
			return abs, nil
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		abs = parent
	}
}

// Load expands package patterns ("./...", "./internal/stats", "dir")
// relative to the module root and returns the matching packages in
// deterministic (path) order. Directories named testdata or vendor and
// hidden directories are skipped by pattern expansion, as the go tool
// does.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	dirs, err := l.expand(patterns)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

func (l *Loader) expand(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if pat == "..." || pat == "./..." {
			pat, recursive = ".", true
		} else if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			pat, recursive = rest, true
		}
		base := pat
		if !filepath.IsAbs(base) {
			base = filepath.Join(l.Root, base)
		}
		if !recursive {
			add(base)
			continue
		}
		err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			add(path)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return dirs, nil
}

// LoadDir parses and type-checks the package in dir (non-test files
// only). It returns (nil, nil) when the directory holds no Go files.
// Results are cached, so a package reached both by pattern and by
// import is loaded once.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	if pkg, ok := l.byDir[abs]; ok {
		return pkg, nil
	}
	if l.inFlit[abs] {
		return nil, fmt.Errorf("import cycle through %s", abs)
	}
	l.inFlit[abs] = true
	defer delete(l.inFlit, abs)

	ents, err := os.ReadDir(abs)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(abs, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}

	pkg := &Package{
		Path:  l.importPath(abs),
		Dir:   abs,
		Fset:  l.fset,
		Files: files,
		Info: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		},
	}
	// A type error fails the load: floateq, errcheck, lockguard and
	// maprange skip nodes without type information, so a package that
	// does not type-check would otherwise pass them unexamined.
	conf := types.Config{Importer: l}
	pkg.Types, err = conf.Check(pkg.Path, l.fset, files, pkg.Info)
	if err != nil {
		return nil, err
	}
	l.byDir[abs] = pkg
	return pkg, nil
}

// importPath derives the import path for a directory inside the module.
func (l *Loader) importPath(dir string) string {
	rel, err := filepath.Rel(l.Root, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(dir)
	}
	if rel == "." {
		return l.Module
	}
	return l.Module + "/" + filepath.ToSlash(rel)
}

// Import implements types.Importer: module-internal paths load from the
// repo source tree; everything else falls through to the stdlib source
// importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.Module || strings.HasPrefix(path, l.Module+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.Module), "/")
		pkg, err := l.LoadDir(filepath.Join(l.Root, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("no Go package at %s", path)
		}
		return pkg.Types, nil
	}
	return l.stdlib.Import(path)
}

// isTestFile reports whether pos sits in a _test.go file. The loader
// never parses those, but analyzers guard anyway so they stay correct
// if fixtures or future loaders include them.
func isTestFile(pkg *Package, pos token.Pos) bool {
	return strings.HasSuffix(pkg.Fset.Position(pos).Filename, "_test.go")
}
