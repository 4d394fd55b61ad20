// Package ctxflow enforces the service path's cancellation discipline with
// the CFG layer. In the scoped packages, a function that receives a
// context.Context must actually thread it: every callee that accepts a
// context gets the incoming ctx (or a context derived from it, via
// context.WithCancel/WithTimeout/...), and context.Background()/context.TODO()
// may not re-root the tree inside such a function — re-rooting silently
// detaches the callee from the caller's deadline, which is how a "cancelled"
// job keeps simulating forever.
//
// The third rule is flow-sensitive and guards the historical shape from the
// simulator: a loop that consumes a reference source (a Next method with no
// parameters and a (value, ok) result — the stream driving a simulation)
// must poll ctx on every cycle path. The poll's block has to dominate every
// latch of the loop, so a check hidden behind a conditional does not count.
// Deleting the ctx-poll from sim.drive, the one reference loop behind every
// run, trips this rule.
package ctxflow

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/analysis/cfg"
)

// Scope lists the package prefixes checked; a package matches when its path
// equals an entry or sits below it. Empty means every package (the
// analysistest fixtures rely on that).
var Scope = []string{
	"repro/internal/asapd",
	"repro/internal/runner",
	"repro/internal/sim",
	"repro/internal/exp",
}

var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "ctx-receiving functions must thread ctx to context-accepting callees, " +
		"never re-root via context.Background/TODO, and poll ctx on every cycle " +
		"of a reference-source loop",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !inScope(pass.Pkg.Path()) {
		return nil
	}
	for _, fn := range cfg.All(pass) {
		checkFunc(pass, fn)
	}
	return nil
}

func inScope(path string) bool {
	if len(Scope) == 0 {
		return true
	}
	for _, p := range Scope {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

func checkFunc(pass *analysis.Pass, fn *cfg.Func) {
	info := pass.TypesInfo
	params := ctxParams(info, fn)
	if len(params) == 0 {
		return // nothing to thread: Background/TODO is this function's job
	}
	derived := deriveSet(info, fn, params)

	cfg.InspectLocal(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name, ok := ctxRoot(info, call); ok {
			pass.Reportf(call.Pos(),
				"context.%s re-roots the context inside %s, which already receives a ctx: derive from the incoming ctx instead",
				name, fn.Name())
			return true
		}
		sig, _ := info.TypeOf(call.Fun).(*types.Signature)
		if sig == nil || sig.Params().Len() != len(call.Args) {
			return true // builtin, conversion, or f(g()) forwarding
		}
		for i := 0; i < sig.Params().Len(); i++ {
			if !isContextType(sig.Params().At(i).Type()) {
				continue
			}
			arg := call.Args[i]
			if argCall, ok := arg.(*ast.CallExpr); ok {
				if _, root := ctxRoot(info, argCall); root {
					continue // the inner Background/TODO call reports itself
				}
			}
			if !derivesFrom(info, derived, arg) {
				pass.Reportf(arg.Pos(),
					"call to %s does not receive the incoming ctx: pass ctx or a context derived from it",
					calleeName(call))
			}
		}
		return true
	})

	checkLoops(pass, fn, derived)
}

// checkLoops enforces the reference-source rule: a loop whose body consumes a
// refSource-shaped Next must have a ctx poll whose block dominates every
// latch, so no cycle completes without observing cancellation.
func checkLoops(pass *analysis.Pass, fn *cfg.Func, derived map[types.Object]bool) {
	info := pass.TypesInfo
	var pollBlocks []*cfg.Block
	cfg.InspectLocal(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Err" && sel.Sel.Name != "Done") {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok && derived[info.ObjectOf(id)] {
			if b, ok := fn.BlockOf(call); ok {
				pollBlocks = append(pollBlocks, b)
			}
		}
		return true
	})

	for _, loop := range fn.Loops {
		var latches []*cfg.Block
		for _, l := range loop.Latches {
			if fn.Reachable(l) {
				latches = append(latches, l)
			}
		}
		if len(latches) == 0 {
			continue // no live back edge: the body cannot cycle
		}
		if !consumesRefSource(info, loop.Stmt) {
			continue
		}
		covered := false
		for _, p := range pollBlocks {
			if !fn.Dominates(loop.Head, p) {
				continue // poll outside the loop runs at most once per entry
			}
			all := true
			for _, l := range latches {
				if !fn.Dominates(p, l) {
					all = false
					break
				}
			}
			if all {
				covered = true
				break
			}
		}
		if !covered {
			pass.Reportf(loop.Stmt.Pos(),
				"loop consumes a reference source but can cycle without checking ctx: poll ctx.Err on every iteration path")
		}
	}
}

// consumesRefSource reports whether the loop statement contains a call to a
// refSource-shaped Next: no parameters, two results, the second bool.
func consumesRefSource(info *types.Info, loop ast.Stmt) bool {
	found := false
	cfg.InspectLocal(loop, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if calleeName(call) != "Next" {
			return true
		}
		sig, _ := info.TypeOf(call.Fun).(*types.Signature)
		if sig == nil || sig.Params().Len() != 0 || sig.Results().Len() != 2 {
			return true
		}
		if b, ok := sig.Results().At(1).Type().Underlying().(*types.Basic); ok && b.Kind() == types.Bool {
			found = true
			return false
		}
		return true
	})
	return found
}

// ctxParams returns the objects of the function's context.Context parameters.
func ctxParams(info *types.Info, fn *cfg.Func) []types.Object {
	var ft *ast.FuncType
	switch f := fn.Fn.(type) {
	case *ast.FuncDecl:
		ft = f.Type
	case *ast.FuncLit:
		ft = f.Type
	}
	if ft == nil || ft.Params == nil {
		return nil
	}
	var out []types.Object
	for _, field := range ft.Params.List {
		if !isContextType(info.TypeOf(field.Type)) {
			continue
		}
		for _, name := range field.Names {
			if obj := info.ObjectOf(name); obj != nil {
				out = append(out, obj)
			}
		}
	}
	return out
}

// deriveSet computes the ctx-derived variables by fixpoint: the ctx
// parameters, plus anything assigned from an expression that mentions a
// derived value (cctx, cancel := context.WithTimeout(ctx, d); c := ctx).
func deriveSet(info *types.Info, fn *cfg.Func, params []types.Object) map[types.Object]bool {
	derived := map[types.Object]bool{}
	for _, p := range params {
		derived[p] = true
	}
	for changed := true; changed; {
		changed = false
		cfg.InspectLocal(fn.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Rhs) == 0 {
				return true
			}
			fromDerived := false
			for _, rhs := range as.Rhs {
				if derivesFrom(info, derived, rhs) {
					fromDerived = true
				}
			}
			if !fromDerived {
				return true
			}
			for _, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := info.ObjectOf(id)
				if obj == nil || derived[obj] || !isContextType(obj.Type()) {
					continue
				}
				derived[obj] = true
				changed = true
			}
			return true
		})
	}
	return derived
}

// derivesFrom reports whether expr mentions a derived context variable.
func derivesFrom(info *types.Info, derived map[types.Object]bool, expr ast.Expr) bool {
	found := false
	cfg.InspectLocal(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && derived[info.ObjectOf(id)] {
			found = true
			return false
		}
		return true
	})
	return found
}

// ctxRoot reports whether call is context.Background() or context.TODO().
func ctxRoot(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fnObj, ok := info.ObjectOf(sel.Sel).(*types.Func)
	if !ok || fnObj.Pkg() == nil || fnObj.Pkg().Path() != "context" {
		return "", false
	}
	if name := fnObj.Name(); name == "Background" || name == "TODO" {
		return name, true
	}
	return "", false
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

func calleeName(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return "function"
}
