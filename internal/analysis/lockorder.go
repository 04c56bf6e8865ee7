package analysis

import (
	"go/ast"
	"go/types"
)

// Lock-order rule identifiers.
const (
	// RuleLockLoop flags a mutex Lock inside a for/range loop:
	// looped acquisition is how lock cycles are born.
	RuleLockLoop = "lockorder/loop"
	// RuleLockNested flags a second lock acquisition on the same
	// owner type while one is already held in the same function: two
	// locks of one type held at once need an acquisition order.
	RuleLockNested = "lockorder/nested"
)

// LockOrderAnalyzer keeps the packages that still lock free of lock
// orders: node, whose state its readLoops share, and mem, whose free
// lists independent runs share, each take one lock of a kind at a time,
// so there is no acquisition order to get wrong. pcn, core and baseline
// take none (one goroutine per run). telemetry is left out: its sink's
// run loop locks in a loop with no order involved.
// By-value copies of lock- or atomic-bearing values are go vet's
// copylocks check, which CI runs over the whole module.
var LockOrderAnalyzer = &Analyzer{
	Name:      "lockorder",
	Doc:       "in the packages that lock (node, mem), no lock in a loop and no second lock of one type while one is held",
	Rules:     []string{RuleLockLoop, RuleLockNested},
	AppliesTo: byName(map[string]bool{"node": true, "mem": true}),
	Run:       runLockOrder,
}

// runLockOrder applies the two lock rules to every function.
func runLockOrder(pass *Pass) error {
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				checkLockLoops(pass, fn)
				checkNestedLocks(pass, fn)
			}
		}
	}
	return nil
}

// mutexLockCall decomposes a call of the form recv.Lock()/recv.RLock()
// on a sync mutex, returning the receiver expression, the owning
// struct's type name (e.g. "channel" for n.chans[i].mu), and whether
// the call locks (as opposed to unlocks).
func mutexLockCall(info *types.Info, call *ast.CallExpr) (recv ast.Expr, owner string, lock, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		lock = true
	case "Unlock", "RUnlock":
	default:
		return nil, "", false, false
	}
	t := info.TypeOf(sel.X)
	if t == nil || !isSyncLock(t) {
		return nil, "", false, false
	}
	// The owner is the struct the mutex field lives in: for x.mu the
	// type of x; for a bare local mutex there is no owner.
	if fieldSel, isField := ast.Unparen(sel.X).(*ast.SelectorExpr); isField {
		if ot := info.TypeOf(fieldSel.X); ot != nil {
			owner = namedTypeName(ot)
		}
	}
	return sel.X, owner, lock, true
}

// isSyncLock reports whether t is sync.Mutex or sync.RWMutex (possibly
// behind a pointer).
func isSyncLock(t types.Type) bool {
	if p, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = p.Elem()
	}
	n, isNamed := t.(*types.Named)
	if !isNamed || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == "sync" &&
		(n.Obj().Name() == "Mutex" || n.Obj().Name() == "RWMutex")
}

// namedTypeName unwraps pointers and returns the named type's name, or
// "" for unnamed types.
func namedTypeName(t types.Type) string {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			return tt.Obj().Name()
		default:
			return ""
		}
	}
}

// checkLockLoops flags mutex Locks inside for/range statements.
func checkLockLoops(pass *Pass, fn *ast.FuncDecl) {
	info := pass.Pkg.Info
	var loopDepth int
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			loopDepth++
			ast.Inspect(bodyOf(n), func(m ast.Node) bool { return walk(m) })
			loopDepth--
			return false
		case *ast.CallExpr:
			if _, _, lock, ok := mutexLockCall(info, n); ok && lock && loopDepth > 0 {
				pass.Reportf(n.Pos(), RuleLockLoop,
					"mutex Lock inside a loop — take one lock at a time")
			}
		}
		return true
	}
	ast.Inspect(fn.Body, walk)
}

// bodyOf returns the body block of a for or range statement.
func bodyOf(n ast.Node) *ast.BlockStmt {
	switch n := n.(type) {
	case *ast.ForStmt:
		return n.Body
	case *ast.RangeStmt:
		return n.Body
	}
	return nil
}

// checkNestedLocks walks fn's statements in source order tracking
// which mutexes are held, and flags a second acquisition on the same
// owner type while one is held. The scan is intra-function and textual:
// it cannot see locks held by callers.
func checkNestedLocks(pass *Pass, fn *ast.FuncDecl) {
	info := pass.Pkg.Info
	held := map[string]string{} // receiver expr string → owner type
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			// A deferred Unlock releases at return; the lock stays
			// held for the rest of the scan. Skip so the Unlock is
			// not treated as an immediate release.
			return false
		case *ast.FuncLit:
			return false // closure bodies run elsewhere
		case *ast.CallExpr:
			if recv, owner, lock, ok := mutexLockCall(info, n); ok {
				key := types.ExprString(recv)
				if !lock {
					delete(held, key)
					return true
				}
				if owner != "" {
					for heldKey, heldOwner := range held {
						if heldOwner == owner && heldKey != key {
							pass.Reportf(n.Pos(), RuleLockNested,
								"second %s lock acquired while %s is held — two locks of one type need an acquisition order",
								owner, heldKey)
							break
						}
					}
				}
				held[key] = owner
			}
		}
		return true
	})
}
