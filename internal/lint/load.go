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

// Package is one parsed and type-checked package: all non-test .go files
// of a single directory. Test files are deliberately excluded — the rules
// guard production code, and loading external test packages (package
// foo_test) would complicate type-checking for no gain.
type Package struct {
	Path  string // import path, or a synthetic path for testdata fixtures
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages of one module using only the
// standard library. Module-internal imports are resolved recursively from
// source; everything else (the standard library) is resolved by go/importer's
// source importer, so the loader works offline with no build cache.
type Loader struct {
	Fset *token.FileSet

	moduleDir  string
	modulePath string
	std        types.Importer

	byDir  map[string]*Package // memoized packages keyed by absolute dir
	active map[string]bool     // import cycle detection
}

// NewLoader builds a Loader for the module containing dir, located by
// walking up to the nearest go.mod.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root, modPath, err := findModule(abs)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		moduleDir:  root,
		modulePath: modPath,
		std:        importer.ForCompiler(fset, "source", nil),
		byDir:      make(map[string]*Package),
		active:     make(map[string]bool),
	}, nil
}

// ModuleDir returns the root directory of the loader's module.
func (l *Loader) ModuleDir() string { return l.moduleDir }

// findModule walks up from dir looking for go.mod and returns the module
// root directory and module path.
func findModule(dir string) (root, path string, err error) {
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: no module line in %s", filepath.Join(d, "go.mod"))
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		d = parent
	}
}

// Import implements types.Importer. Module-internal paths are loaded from
// source through the loader itself; all other paths fall through to the
// standard library's source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modulePath), "/")
		pkg, err := l.load(filepath.Join(l.moduleDir, filepath.FromSlash(rel)), path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// LoadDir loads the single package in dir. The import path is derived
// from the module when dir is inside it (including testdata directories,
// which get a synthetic but unambiguous path).
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	return l.load(abs, l.importPathFor(abs))
}

// LoadSubtree loads every package under root (inclusive), skipping
// testdata, hidden and underscore-prefixed directories, exactly like the
// go tool's "./..." pattern. Directories without non-test .go files are
// ignored.
func (l *Loader) LoadSubtree(root string) ([]*Package, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	walk := func(dir string) error { return nil }
	walk = func(dir string) error {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		hasGo := false
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() {
				if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
					continue
				}
				if err := walk(filepath.Join(dir, name)); err != nil {
					return err
				}
				continue
			}
			if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
				hasGo = true
			}
		}
		if hasGo {
			pkg, err := l.load(dir, l.importPathFor(dir))
			if err != nil {
				return err
			}
			pkgs = append(pkgs, pkg)
		}
		return nil
	}
	if err := walk(abs); err != nil {
		return nil, err
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// LoadModule loads every package in the loader's module.
func (l *Loader) LoadModule() ([]*Package, error) {
	return l.LoadSubtree(l.moduleDir)
}

// importPathFor derives the import path for an absolute directory. For
// directories outside the module the base name serves as a synthetic path.
func (l *Loader) importPathFor(abs string) string {
	rel, err := filepath.Rel(l.moduleDir, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return filepath.Base(abs)
	}
	if rel == "." {
		return l.modulePath
	}
	return l.modulePath + "/" + filepath.ToSlash(rel)
}

// load parses and type-checks the package in dir, memoized by directory.
func (l *Loader) load(dir, importPath string) (*Package, error) {
	if pkg, ok := l.byDir[dir]; ok {
		return pkg, nil
	}
	if l.active[dir] {
		return nil, fmt.Errorf("lint: import cycle through %s", importPath)
	}
	l.active[dir] = true
	defer delete(l.active, dir)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no non-test .go files in %s", dir)
	}

	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: l, FakeImportC: true}
	tpkg, err := conf.Check(importPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", importPath, err)
	}

	pkg := &Package{
		Path:  importPath,
		Fset:  l.Fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}
	l.byDir[dir] = pkg
	return pkg, nil
}
