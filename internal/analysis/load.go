package analysis

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

// Package is one loaded, type-checked package: the syntax trees of its
// non-test files plus full go/types information. Test files are
// excluded by design — the contracts flashvet enforces bind production
// code; tests may fake clocks and iterate maps freely.
type Package struct {
	// Path is the package's import path ("repro/internal/pcn"), or the
	// bare directory name for fixture packages.
	Path string
	// Name is the package name from the package clauses.
	Name string
	// Files are the parsed non-test source files.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info carries the type-checker's expression/object tables.
	Info *types.Info
	// Fset positions all files of the load (shared across packages).
	Fset *token.FileSet
}

// Loader parses and type-checks packages inside one module, resolving
// module-internal imports from source and everything else (the
// standard library — this repository has no external dependencies)
// through go/importer's source importer. It caches by import path, so
// shared dependencies type-check once.
type Loader struct {
	// Fset positions every file the loader touches.
	Fset *token.FileSet

	root   string // module root directory (fixture group root for fixtures)
	module string // module path from go.mod ("" for fixture loads)
	std    types.ImporterFrom
	cache  map[string]*loadEntry
}

// loadEntry memoizes one package load, including its failure.
type loadEntry struct {
	pkg *Package
	err error
}

// NewLoader returns a loader rooted at the module directory containing
// go.mod. Pass the directory itself or any directory below it.
func NewLoader(dir string) (*Loader, error) {
	root, module, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	return newLoader(root, module), nil
}

// newLoader returns a loader over the tree at root. With module "" the
// tree is a fixture group (testdata/src/<group>): a package's import
// path is its directory relative to root, so fixtures import fake
// sibling packages ("pcn") alongside the standard library.
func newLoader(root, module string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset:   fset,
		root:   root,
		module: module,
		std:    importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		cache:  map[string]*loadEntry{},
	}
}

// findModule walks up from dir to the go.mod and returns the module
// root directory and module path.
func findModule(dir string) (root, module string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, rerr := os.ReadFile(filepath.Join(dir, "go.mod"))
		if rerr == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module line", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("analysis: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// Load type-checks the package in the given directory (absolute, or
// relative to the module root).
func (l *Loader) Load(dir string) (*Package, error) {
	if !filepath.IsAbs(dir) {
		dir = filepath.Join(l.root, dir)
	}
	path, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	return l.load(path, dir)
}

// LoadAll walks the module tree and type-checks every package —
// flashvet's "./..." expansion, the whole program. testdata and hidden
// directories are skipped. The walk reads benchmark/ too: its module
// path is its directory's (repro/benchmark) and it imports this module.
func (l *Loader) LoadAll() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != l.root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		if hasGoFiles(p) {
			dirs = append(dirs, p)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	pkgs := make([]*Package, 0, len(dirs))
	for _, dir := range dirs {
		pkg, err := l.Load(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// importPathFor maps a module directory to its import path.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.root, dir)
	if err != nil {
		return "", err
	}
	rel = filepath.ToSlash(rel)
	switch {
	case l.module == "":
		return rel, nil // fixture group: path is the directory name
	case rel == ".":
		return l.module, nil
	default:
		return l.module + "/" + rel, nil
	}
}

// hasGoFiles reports whether dir holds at least one non-test .go file.
func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if isSourceFile(e) {
			return true
		}
	}
	return false
}

// isSourceFile reports whether the entry is a non-test Go source file.
func isSourceFile(e os.DirEntry) bool {
	name := e.Name()
	return !e.IsDir() && strings.HasSuffix(name, ".go") &&
		!strings.HasSuffix(name, "_test.go") && !strings.HasPrefix(name, ".")
}

// load parses and type-checks one package, memoized by import path.
func (l *Loader) load(path, dir string) (*Package, error) {
	if e, ok := l.cache[path]; ok {
		if e == nil {
			return nil, fmt.Errorf("analysis: import cycle through %s", path)
		}
		return e.pkg, e.err
	}
	l.cache[path] = nil // cycle marker
	pkg, err := l.parseAndCheck(path, dir)
	l.cache[path] = &loadEntry{pkg: pkg, err: err}
	return pkg, err
}

// parseAndCheck does the actual parse + type-check for load.
func (l *Loader) parseAndCheck(path, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	var names []string
	for _, e := range entries {
		if !isSourceFile(e) {
			continue
		}
		names = append(names, filepath.Join(dir, e.Name()))
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: importerFunc{l}}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	return &Package{
		Path:  path,
		Name:  tpkg.Name(),
		Files: files,
		Types: tpkg,
		Info:  info,
		Fset:  l.Fset,
	}, nil
}

// importerFunc adapts the loader to types.ImporterFrom: module-internal
// (or fixture-sibling) imports resolve through the loader itself,
// everything else through the standard-library source importer.
type importerFunc struct{ l *Loader }

// Import resolves path relative to the module root.
func (f importerFunc) Import(path string) (*types.Package, error) {
	return f.ImportFrom(path, f.l.root, 0)
}

// ImportFrom implements types.ImporterFrom.
func (f importerFunc) ImportFrom(path, _ string, _ types.ImportMode) (*types.Package, error) {
	l := f.l
	switch {
	case path == "unsafe":
		return types.Unsafe, nil
	case l.module != "" && (path == l.module || strings.HasPrefix(path, l.module+"/")):
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.module), "/")
		dir := filepath.Join(l.root, filepath.FromSlash(rel))
		pkg, err := l.load(path, dir)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	case l.module == "" && dirExists(filepath.Join(l.root, path)):
		pkg, err := l.load(path, filepath.Join(l.root, path))
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	default:
		return l.std.ImportFrom(path, l.root, 0)
	}
}

// dirExists reports whether p is an existing directory.
func dirExists(p string) bool {
	fi, err := os.Stat(p)
	return err == nil && fi.IsDir()
}
