// Package lockcheck enforces the repository's mutex discipline with the CFG
// layer: every sync.Mutex/RWMutex Lock must be released on all paths out of
// the function — including early returns — or be explicitly deferred (the
// only panic-safe form); the same lock must not be taken again before its
// release; and a lock must not be held across a blocking operation (a bare
// channel send or receive, a select without a default, or a call in the
// Wait/Sleep/Pop/Submit family).
//
// The runner's doomed-cell path is the historical shape this guards: an early
// return inside SubmitCtx that skips r.mu.Unlock deadlocks every later
// submission. Locks are identified by the written access path (receiver
// field, package var), so r.mu and f.r.mu in different functions are
// different keys while two uses of r.mu in one function are the same.
//
// (*sync.Cond).Wait is exempt from the blocking rule — it releases the mutex
// it wraps while parked; methods whose name starts with Try are exempt by
// contract.
package lockcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"

	"repro/internal/lint/analysis"
	"repro/internal/lint/analysis/cfg"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockcheck",
	Doc: "mutex Locks must be released on every path out (or deferred), never " +
		"re-taken before release, and never held across a blocking operation",
	Run: run,
}

// blockingNames are methods/functions that park the calling goroutine. Names
// starting with Try never block by contract and are not listed.
var blockingNames = map[string]bool{
	"Wait": true, "WaitCtx": true, "Sleep": true, "Pop": true,
	"Submit": true, "SubmitCtx": true,
}

// op is one lock or unlock call found in a function.
type op struct {
	call     *ast.CallExpr
	node     ast.Node // the CFG node containing the call
	key      string   // canonical access path, e.g. "r@1234.mu"
	display  string   // the access path as written, e.g. "r.mu"
	read     bool     // RLock/RUnlock
	unlock   bool
	deferred bool
}

func run(pass *analysis.Pass) error {
	for _, fn := range cfg.All(pass) {
		checkFunc(pass, fn)
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fn *cfg.Func) {
	ops := collect(pass, fn)
	if len(ops) == 0 {
		return
	}
	unlocksAt := map[ast.Node][]*op{}
	var locks []*op
	for _, o := range ops {
		if o.unlock {
			unlocksAt[o.node] = append(unlocksAt[o.node], o)
		} else {
			locks = append(locks, o)
		}
	}
	// A select's comm statements block (or not) as part of the select itself,
	// which is its own CFG node; don't re-flag them as bare channel ops.
	selectComm := map[ast.Node]bool{}
	for _, b := range fn.Blocks {
		for _, n := range b.Nodes {
			sel, ok := n.(*ast.SelectStmt)
			if !ok {
				continue
			}
			for _, c := range sel.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
					selectComm[cc.Comm] = true
				}
			}
		}
	}
	// releases reports whether node n releases (key, read) — directly, or as
	// a defer when deferred releases count.
	releases := func(n ast.Node, key string, read, countDefer bool) bool {
		for _, u := range unlocksAt[n] {
			if u.key == key && u.read == read && (countDefer || !u.deferred) {
				return true
			}
		}
		return false
	}

	for _, l := range locks {
		// Released (or deferred) on every path out of the function.
		gate := func(n ast.Node) bool { return releases(n, l.key, l.read, true) }
		if fn.PathToExit(l.node, gate) {
			pass.Reportf(l.call.Pos(),
				"%s.%s is not released on every path out of %s: unlock it before each return or defer the unlock",
				l.display, lockName(l), fn.Name())
		}

		// Not taken again before release. Two RLocks may overlap; every other
		// combination self-deadlocks on the same goroutine.
		direct := func(n ast.Node) bool { return releases(n, l.key, l.read, false) }
		for _, l2 := range locks {
			if l.key != l2.key || (l.read && l2.read) {
				continue
			}
			if l == l2 {
				// The same Lock reached again around a loop without a release.
				if fn.PathExists(l.node, l.node, direct) {
					pass.Reportf(l.call.Pos(),
						"%s.%s can be reached again before the lock is released (loop path without an unlock)",
						l.display, lockName(l))
				}
				continue
			}
			if l.node == l2.node {
				pass.Reportf(l2.call.Pos(), "%s locked twice in the same statement", l2.display)
				continue
			}
			if fn.PathExists(l.node, l2.node, direct) {
				pass.Reportf(l2.call.Pos(),
					"%s.%s while the lock from line %d may still be held",
					l2.display, lockName(l2), pass.Fset.Position(l.call.Pos()).Line)
			}
		}

		// Not held across a blocking operation.
		for _, b := range fn.Blocks {
			for _, n := range b.Nodes {
				if n == l.node || selectComm[n] {
					continue
				}
				what, blocking := blockingOp(pass, n)
				if !blocking || releases(n, l.key, l.read, false) {
					continue
				}
				if fn.PathExists(l.node, n, direct) {
					pass.Reportf(n.Pos(),
						"%s while %s is held (locked at line %d): release the lock first",
						what, l.display, pass.Fset.Position(l.call.Pos()).Line)
				}
			}
		}
	}
}

func lockName(o *op) string {
	if o.read {
		return "RLock"
	}
	return "Lock"
}

// collect finds every sync mutex Lock/Unlock call in the function.
func collect(pass *analysis.Pass, fn *cfg.Func) []*op {
	var ops []*op
	for _, b := range fn.Blocks {
		for _, n := range b.Nodes {
			node := n
			inspect := cfg.InspectLocal
			if _, ok := n.(*ast.DeferStmt); ok {
				// A deferred unlock may hide in a deferred closure; scan the
				// whole defer including nested literals.
				inspect = func(root ast.Node, visit func(ast.Node) bool) { ast.Inspect(root, visit) }
			}
			inspect(n, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				var read, unlock bool
				switch sel.Sel.Name {
				case "Lock":
				case "RLock":
					read = true
				case "Unlock":
					unlock = true
				case "RUnlock":
					read, unlock = true, true
				default:
					return true
				}
				if !isSyncLocker(pass, sel) {
					return true
				}
				key, display, ok := accessPath(pass, sel.X)
				if !ok {
					return true
				}
				_, isDefer := node.(*ast.DeferStmt)
				ops = append(ops, &op{
					call: call, node: node, key: key, display: display,
					read: read, unlock: unlock, deferred: isDefer,
				})
				return true
			})
		}
	}
	return ops
}

// isSyncLocker reports whether the selected method is declared by
// sync.Mutex/sync.RWMutex (directly or via embedding).
func isSyncLocker(pass *analysis.Pass, sel *ast.SelectorExpr) bool {
	fnObj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fnObj.Pkg() == nil || fnObj.Pkg().Path() != "sync" {
		return false
	}
	sig, ok := fnObj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	name := recvTypeName(sig.Recv().Type())
	return name == "Mutex" || name == "RWMutex"
}

func recvTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// accessPath canonicalizes the lock expression: the root identifier's object
// (position-keyed, so distinct variables never collide) plus the written
// field chain. Expressions it cannot resolve (map/slice elements, call
// results) return ok=false and are skipped.
func accessPath(pass *analysis.Pass, e ast.Expr) (key, display string, ok bool) {
	switch e := e.(type) {
	case *ast.Ident:
		obj := pass.TypesInfo.ObjectOf(e)
		if obj == nil {
			return "", "", false
		}
		return objKey(obj), e.Name, true
	case *ast.SelectorExpr:
		k, d, ok := accessPath(pass, e.X)
		if !ok {
			return "", "", false
		}
		return k + "." + e.Sel.Name, d + "." + e.Sel.Name, true
	case *ast.ParenExpr:
		return accessPath(pass, e.X)
	case *ast.StarExpr:
		return accessPath(pass, e.X)
	case *ast.UnaryExpr:
		return accessPath(pass, e.X)
	}
	return "", "", false
}

// objKey identifies a variable by name and declaration position, so distinct
// variables that share a name never collide.
func objKey(obj types.Object) string {
	return obj.Name() + "@" + strconv.Itoa(int(obj.Pos()))
}

// blockingOp reports whether node n performs an operation that can park the
// goroutine, and names it for the diagnostic.
func blockingOp(pass *analysis.Pass, n ast.Node) (string, bool) {
	if _, ok := n.(*ast.DeferStmt); ok {
		// A deferred call runs at return, when the CFG position of the defer
		// statement says nothing about what is still held.
		return "", false
	}
	if sel, ok := n.(*ast.SelectStmt); ok {
		for _, c := range sel.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				return "", false // default case: never blocks
			}
		}
		return "select without default", true
	}
	what := ""
	cfg.InspectLocal(n, func(m ast.Node) bool {
		if what != "" {
			return false
		}
		switch m := m.(type) {
		case *ast.SendStmt:
			what = "channel send"
		case *ast.UnaryExpr:
			if m.Op == token.ARROW {
				what = "channel receive"
			}
		case *ast.RangeStmt:
			if t := pass.TypesInfo.TypeOf(m.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					what = "range over channel"
				}
			}
		case *ast.CallExpr:
			sel, ok := m.Fun.(*ast.SelectorExpr)
			if !ok || !blockingNames[sel.Sel.Name] {
				return true
			}
			if fnObj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok {
				if sig, ok := fnObj.Type().(*types.Signature); ok && sig.Recv() != nil {
					if fnObj.Pkg() != nil && fnObj.Pkg().Path() == "sync" && recvTypeName(sig.Recv().Type()) == "Cond" {
						return true // Cond.Wait releases its mutex while parked
					}
				}
			}
			what = "call to " + sel.Sel.Name
		}
		return true
	})
	return what, what != ""
}
