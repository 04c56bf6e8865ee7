package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// RuleTestOnly flags an exported function or method that no non-test
// file of the program references.
const RuleTestOnly = "testonly/unused"

// TestOnlyAnalyzer keeps the internal API to what the program calls: an
// exported function or method under internal/ needs a reference from a
// non-test file of the run (the loader reads no _test.go file), or, for
// a method, an interface it satisfies that the program names or imports.
var TestOnlyAnalyzer = &Analyzer{
	Name:         "testonly",
	Doc:          "every exported function or method under internal/ must have a non-test reference in the program; delete, unexport or annotate the rest",
	Rules:        []string{RuleTestOnly},
	AppliesTo:    func(p *Package) bool { return strings.Contains("/"+p.Path, "/internal/") },
	WholeProgram: true,
	Run:          runTestOnly,
}

// runTestOnly reports the package's exported functions and methods
// missing from the program's reference set.
func runTestOnly(pass *Pass) error {
	used := pass.Shared(func() any { return referenced(pass.Program) }).(map[*types.Func]bool)
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			if d, ok := decl.(*ast.FuncDecl); ok && d.Name.IsExported() && !used[pass.Pkg.Info.Defs[d.Name].(*types.Func)] {
				pass.Reportf(d.Pos(), RuleTestOnly,
					"exported %s has no non-test reference in the program — delete or unexport it, or annotate why it stays", docFuncName(d))
			}
		}
	}
	return nil
}

// referenced returns every function and method the program names (a
// call, a method value or expression, a promoted selector) or reaches
// through an interface it names (a literal one in a type assertion
// included) or imports (json.Unmarshaler). Generic methods are keyed by
// their declaration (Origin), not by an instance's copy.
func referenced(pkgs []*Package) map[*types.Func]bool {
	used := map[*types.Func]bool{}
	mark := func(obj types.Object) {
		if fn, ok := obj.(*types.Func); ok {
			used[fn.Origin()] = true
		}
	}
	seen := map[types.Type]bool{}
	var ifaces []*types.Interface
	var concrete []*types.Named
	add := func(t types.Type) {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		n, _ := t.(*types.Named)
		switch it, _ := t.Underlying().(*types.Interface); {
		case it != nil:
			ifaces = append(ifaces, it)
		// An uninstantiated generic type cannot be asked what it
		// implements; its instances are.
		case n != nil && (n.TypeParams().Len() == 0 || n.TypeArgs().Len() > 0):
			concrete = append(concrete, n)
		}
	}
	for _, pkg := range pkgs {
		for _, obj := range pkg.Info.Uses {
			mark(obj)
		}
		for _, tv := range pkg.Info.Types {
			add(tv.Type)
		}
		// A type the program declares is in Types wherever it is used;
		// an imported package's interfaces may be used only inside it.
		for _, imp := range pkg.Types.Imports() {
			for _, name := range imp.Scope().Names() {
				if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok {
					add(tn.Type())
				}
			}
		}
	}
	for _, t := range concrete {
		for _, it := range ifaces {
			if it.NumMethods() == 0 || !types.Implements(types.NewPointer(t), it) {
				continue
			}
			for i := range it.NumMethods() {
				m := it.Method(i)
				obj, _, _ := types.LookupFieldOrMethod(t, true, m.Pkg(), m.Name())
				mark(obj)
			}
		}
	}
	return used
}
