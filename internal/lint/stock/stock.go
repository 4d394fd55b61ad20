// Package stock reimplements the curated subset of x/tools stock analyzers
// the suite runs alongside the repo-specific ones: nilness and shadow. The
// real passes live in golang.org/x/tools, which this dependency-free
// repository cannot vendor; these are deliberately narrower ports that keep
// the same names, report the same bug classes, and can be swapped for the
// originals wholesale if a dependency on x/tools ever becomes acceptable.
// go vet, which CI runs, has neither pass; it covers copylocks and
// unusedresult at full strength, so the suite carries no port of those.
package stock

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
	"repro/internal/lint/analysis/cfg"
)

// Analyzers returns the curated stock passes in suite order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{Nilness, Shadow}
}

// ---- nilness ----------------------------------------------------------

// Nilness flags nil-deref bugs branch-sensitively over the CFG: when a
// condition proves x nil, the fact holds in every block the nil-carrying
// branch dominates — including the code after an `if x != nil { return x }`
// guard, whose fall-through is the nil branch — until a reassignment of x
// can reach the use.
var Nilness = &analysis.Analyzer{
	Name: "nilness",
	Doc:  "flag dereferences of a variable on paths where a branch just proved it nil",
	Run:  runNilness,
}

func runNilness(pass *analysis.Pass) error {
	for _, fn := range cfg.All(pass) {
		nilnessFunc(pass, fn)
	}
	return nil
}

func nilnessFunc(pass *analysis.Pass, fn *cfg.Func) {
	info := pass.TypesInfo
	reported := map[token.Pos]bool{}
	for ifStmt, br := range fn.IfBranches {
		be, ok := ifStmt.Cond.(*ast.BinaryExpr)
		if !ok {
			continue
		}
		var id *ast.Ident
		if x, ok := be.X.(*ast.Ident); ok && isNilIdent(pass, be.Y) {
			id = x
		} else if y, ok := be.Y.(*ast.Ident); ok && isNilIdent(pass, be.X) {
			id = y
		}
		if id == nil {
			continue
		}
		obj := info.ObjectOf(id)
		if obj == nil || !nilable(obj.Type()) {
			continue
		}
		// The block where "obj is nil" starts to hold: the then-arm of an
		// equality test, the (always-synthesized) else-arm of an inequality.
		var factBlock *cfg.Block
		switch be.Op {
		case token.EQL:
			factBlock = br.Then
		case token.NEQ:
			factBlock = br.Else
		default:
			continue
		}
		if !fn.Reachable(factBlock) {
			continue
		}
		defs := fn.Defs(pass)
		// A definition downstream of the condition may replace the proven-nil
		// value; when such a definition reaches the use, the fact is dead.
		killed := func(use ast.Node) bool {
			for _, d := range defs.Reaching(obj, use) {
				if !d.Param && fn.PathExists(ifStmt.Cond, d.Ident, nil) {
					return true
				}
			}
			return false
		}
		for _, b := range fn.Blocks {
			if !fn.Dominates(factBlock, b) {
				continue
			}
			for _, n := range b.Nodes {
				reportNilUse(pass, info, n, obj, killed, reported)
			}
		}
	}
}

func isNilIdent(pass *analysis.Pass, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := pass.TypesInfo.ObjectOf(id).(*types.Nil)
	return isNil
}

func nilable(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Interface, *types.Map, *types.Slice, *types.Signature, *types.Chan:
		return true
	}
	return false
}

// reportNilUse reports dereferences of obj inside one CFG node, unless a
// reaching reassignment killed the nil fact at that use.
func reportNilUse(pass *analysis.Pass, info *types.Info, node ast.Node, obj types.Object,
	killed func(ast.Node) bool, reported map[token.Pos]bool) {
	isObj := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && info.ObjectOf(id) == obj
	}
	report := func(use ast.Node, verb string) {
		if reported[use.Pos()] || killed(use) {
			return
		}
		reported[use.Pos()] = true
		pass.Reportf(use.Pos(), "%s is nil on this branch; %s it will panic", obj.Name(), verb)
	}
	cfg.InspectLocal(node, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.SelectorExpr:
			// Only a deref for pointer receivers of fields; method values on
			// nil pointers may be legal, so restrict to pointer field access
			// and interface method calls via the nilable check above.
			if isObj(e.X) {
				if _, ok := obj.Type().Underlying().(*types.Pointer); ok {
					report(e, "selecting through")
				}
			}
		case *ast.StarExpr:
			if isObj(e.X) {
				report(e, "dereferencing")
			}
		case *ast.IndexExpr:
			if isObj(e.X) {
				if _, ok := obj.Type().Underlying().(*types.Slice); ok {
					report(e, "indexing")
				}
			}
		case *ast.CallExpr:
			if isObj(e.Fun) {
				report(e, "calling")
			}
		}
		return true
	})
}

// ---- shadow -----------------------------------------------------------

// Shadow flags an inner := redeclaration of a function-local variable of the
// same type when the shadowed outer variable is still read after the inner
// scope closes — the classic lost-err-assignment bug. Three idioms are
// exempt: guard-clause declarations (if err := f(); ... and for/switch init
// clauses), declarations inside a func literal shadowing a variable of the
// enclosing function (closures carry their own err), and cases where the
// first use of the outer variable after the inner scope is itself a plain
// assignment (the shadowed value was dead, so the forced multi-assign
// `x, err := f()` inside a block is fine).
var Shadow = &analysis.Analyzer{
	Name: "shadow",
	Doc:  "flag inner redeclarations that shadow a still-live outer variable of the same type",
	Run:  runShadow,
}

func runShadow(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkShadow(pass, fd)
		}
	}
	return nil
}

func checkShadow(pass *analysis.Pass, fd *ast.FuncDecl) {
	// Init-clause declarations are guard idiom, not shadow bugs.
	initStmts := map[ast.Stmt]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.IfStmt:
			if e.Init != nil {
				initStmts[e.Init] = true
			}
		case *ast.ForStmt:
			if e.Init != nil {
				initStmts[e.Init] = true
			}
		case *ast.SwitchStmt:
			if e.Init != nil {
				initStmts[e.Init] = true
			}
		case *ast.TypeSwitchStmt:
			if e.Init != nil {
				initStmts[e.Init] = true
			}
		}
		return true
	})

	// Plain assignment targets kill the previous value, so a post-scope
	// occurrence that is a write does not make the shadowed variable live.
	writeAt := map[token.Pos]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || (as.Tok != token.ASSIGN && as.Tok != token.DEFINE) {
			return true
		}
		for _, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				writeAt[id.Pos()] = true
			}
		}
		return true
	})

	// Occurrences of each object, for the still-live check. go/types records
	// both reads and reused assignment targets in Uses.
	type occurrence struct {
		pos   token.Pos
		write bool
	}
	usesOf := map[types.Object][]occurrence{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pass.TypesInfo.Uses[id]; obj != nil {
				usesOf[obj] = append(usesOf[obj], occurrence{id.Pos(), writeAt[id.Pos()]})
			}
		}
		return true
	})

	var stack []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE || initStmts[as] {
			return true
		}
		for _, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			inner := pass.TypesInfo.Defs[id]
			if inner == nil {
				continue
			}
			scope := inner.Parent()
			if scope == nil {
				continue
			}
			outer := lookupOuter(scope, id.Name, fd, pass)
			if outer == nil || outer.Pos() >= id.Pos() {
				continue
			}
			if !types.Identical(inner.Type(), outer.Type()) {
				continue
			}
			// Shadowing across a func-literal boundary is the closure carrying
			// its own variable, not a lost assignment to the outer one.
			if crossesFuncLit(stack, outer.Pos()) {
				continue
			}
			var first *occurrence
			for i, occ := range usesOf[outer] {
				if occ.pos > scope.End() && (first == nil || occ.pos < first.pos) {
					first = &usesOf[outer][i]
				}
			}
			if first != nil && !first.write {
				pass.Reportf(id.Pos(),
					"declaration of %q shadows a variable of the same type declared at %s that is still read after this scope ends",
					id.Name, pass.Fset.Position(outer.Pos()))
			}
		}
		return true
	})
}

// crossesFuncLit reports whether the node currently on top of stack sits
// inside a func literal that the variable declared at outerPos does not —
// i.e. the shadow spans a closure boundary.
func crossesFuncLit(stack []ast.Node, outerPos token.Pos) bool {
	for _, n := range stack {
		if lit, ok := n.(*ast.FuncLit); ok && outerPos < lit.Pos() {
			return true
		}
	}
	return false
}

// lookupOuter finds a function-local variable named name in a scope strictly
// enclosing scope, stopping before package scope.
func lookupOuter(scope *types.Scope, name string, fd *ast.FuncDecl, pass *analysis.Pass) types.Object {
	for s := scope.Parent(); s != nil; s = s.Parent() {
		if s == pass.Pkg.Scope() || s == types.Universe {
			return nil
		}
		if obj := s.Lookup(name); obj != nil {
			if v, ok := obj.(*types.Var); ok && v.Pos() >= fd.Pos() && v.Pos() <= fd.End() {
				return v
			}
			return nil
		}
	}
	return nil
}
