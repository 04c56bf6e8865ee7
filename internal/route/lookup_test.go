package route

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// lookupAllowed lists every call to topo.Graph.ChannelIndex that the
// routing layers may make, by package and enclosing function, with the
// reason it is no per-hop lookup on the routing path: each sits where a
// node pair enters from outside, and a found path carries its channels
// from the search to the session.
var lookupAllowed = map[string]string{
	"pcn.Network.dir":          "the node-path entry: Probe, Hold and the per-channel Network setters take node pairs",
	"core.channelIndex.detach": "InvalidateChannel is handed a node pair: one lookup per call",
}

// TestNoChannelLookupOnRoutingPath parses every non-test file of the
// packages between the search and the session and fails on any call of a
// method named ChannelIndex outside lookupAllowed, and on an allowance no
// call uses any more.
func TestNoChannelLookupOnRoutingPath(t *testing.T) {
	fset := token.NewFileSet()
	used := make(map[string]bool)
	for _, pkg := range []string{"core", "graph", "baseline", "pcn", "route"} {
		files, err := filepath.Glob(filepath.Join("..", pkg, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) == 0 {
			t.Fatalf("no Go files in package %s", pkg)
		}
		for _, name := range files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, name, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				where := pkg + "." + funcName(fn)
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "ChannelIndex" {
						if _, ok := lookupAllowed[where]; !ok {
							t.Errorf("%s: %s looks a channel up; carry it in a topo.Path instead, or list the call in lookupAllowed with its reason", fset.Position(call.Pos()), where)
						}
						used[where] = true
					}
					return true
				})
			}
		}
	}
	for where := range lookupAllowed {
		if !used[where] {
			t.Errorf("lookupAllowed lists %s, which no longer calls ChannelIndex", where)
		}
	}
}

// funcName is fn's name, after its receiver's type name for a method.
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	typ := fn.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if ix, ok := typ.(*ast.IndexExpr); ok { // a generic receiver
		typ = ix.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name + "." + fn.Name.Name
	}
	return fn.Name.Name
}
