package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// stmtscope: MVCC readers see a multi-row statement atomically only
// because every mutation runs inside a Store.BeginStmt/EndStmt
// publication scope (DESIGN.md §10). A scope opened without a guaranteed
// close leaks publication forever (snapshots starve, GC stalls); a
// mutation outside any scope publishes per-row and readers can observe a
// torn statement. The runtime race hammer samples these bugs; this
// analyzer proves their absence:
//
// Rule 1 (every package): each BeginStmt call must guarantee its
// EndStmt — either `defer store.EndStmt()` as the next statement
// (preferred), or a straight-line EndStmt in the same block with only
// simple statements (no returns or branches) in between.
//
// Rule 2 (engine packages — import path suffix "sqldb/engine"): every
// direct call to a storage mutation API (Table.Insert/Update/Delete) must
// execute inside an open scope: lexically within a rule-1-valid scope
// region, inside a function literal passed to a scope wrapper (a local
// function that opens a scope and invokes a func-typed parameter inside
// it, like Session.execWrite), or inside a function whose in-package
// callers are all themselves scoped. Bulk-load paths
// outside the engine auto-publish per mutation by design and are not
// checked; genuinely exempt engine sites take
// //slothvet:allow stmtscope(reason).
var StmtscopeAnalyzer = &Analyzer{
	Name: "stmtscope",
	Doc:  "prove BeginStmt/EndStmt publication scopes close on all paths and engine mutations run inside one",
	Run:  runStmtscope,
}

// storage API recognition --------------------------------------------------

func isStorageMethod(f *types.Func, recv string, names ...string) bool {
	if f == nil || !hasPathSuffix(pkgPathOf(f), "sqldb/storage") || recvTypeName(f) != recv {
		return false
	}
	for _, n := range names {
		if f.Name() == n {
			return true
		}
	}
	return false
}

func isBeginStmt(f *types.Func) bool { return isStorageMethod(f, "Store", "BeginStmt") }
func isEndStmt(f *types.Func) bool   { return isStorageMethod(f, "Store", "EndStmt") }

// isScopedMutation reports whether f is a mutation API that rule 2
// requires inside a publication scope.
func isScopedMutation(f *types.Func) bool {
	return isStorageMethod(f, "Table", "Insert", "Update", "Delete")
}

// analysis state -----------------------------------------------------------

type scopeRange struct{ from, to token.Pos }

// fnNode is one function declaration or literal with its scope regions.
type fnNode struct {
	node   ast.Node // *ast.FuncDecl or *ast.FuncLit
	body   *ast.BlockStmt
	decl   *ast.FuncDecl // the node itself when a declaration
	obj    *types.Func   // declared object (nil for literals)
	scopes []scopeRange
}

type callSite struct {
	pos    token.Pos
	callee *types.Func
}

func runStmtscope(pass *Pass) error {
	st := &scopeState{pass: pass, byObj: make(map[*types.Func]*fnNode)}
	for _, f := range pass.Files {
		st.collectFuncs(f)
	}
	for _, fn := range st.fns {
		st.findScopes(fn)
	}
	st.findWrappers()
	for _, f := range pass.Files {
		st.collectSites(f)
	}
	// Rule 2 applies only to engine packages.
	if hasPathSuffix(pass.Path, "sqldb/engine") {
		st.checkMutations()
	}
	return nil
}

type scopeState struct {
	pass *Pass
	fns  []*fnNode
	// byObj maps a declared function object to its node.
	byObj map[*types.Func]*fnNode
	// wrappers are local functions that open a scope and call a func
	// parameter inside it.
	wrappers map[*types.Func]bool
	// wrapperLits are function literals passed directly as arguments to a
	// wrapper call: their bodies execute inside the wrapper's scope.
	wrapperLits map[*ast.FuncLit]bool
	// callSites collects in-package call sites per local callee.
	callSites map[*types.Func][]token.Pos
	// mutations are rule-2 obligations.
	mutations []callSite
}

func (st *scopeState) collectFuncs(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncDecl:
			if x.Body == nil {
				return true
			}
			fn := &fnNode{node: x, body: x.Body, decl: x}
			if obj, ok := st.pass.Info.Defs[x.Name].(*types.Func); ok {
				fn.obj = obj
				st.byObj[obj] = fn
			}
			st.fns = append(st.fns, fn)
		case *ast.FuncLit:
			st.fns = append(st.fns, &fnNode{node: x, body: x.Body})
		}
		return true
	})
}

// exprCall unwraps a statement to the call expression it evaluates.
func exprCall(s ast.Stmt) *ast.CallExpr {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return nil
	}
	call, ok := ast.Unparen(es.X).(*ast.CallExpr)
	if !ok {
		return nil
	}
	return call
}

// callRecvString renders the receiver expression of a method call
// ("s.db.store" for s.db.store.BeginStmt()).
func callRecvString(call *ast.CallExpr) string {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return exprString(sel.X)
	}
	return "?"
}

// simpleStmt reports whether s cannot transfer control out of the block:
// the statement forms permitted between a straight-line BeginStmt and its
// EndStmt.
func simpleStmt(s ast.Stmt) bool {
	switch s.(type) {
	case *ast.ExprStmt, *ast.AssignStmt, *ast.DeclStmt, *ast.IncDecStmt, *ast.EmptyStmt, *ast.SendStmt:
		return true
	}
	return false
}

// findScopes applies rule 1 to every block of one function, recording the
// valid scope regions and reporting BeginStmt calls whose EndStmt is not
// guaranteed.
func (st *scopeState) findScopes(fn *fnNode) {
	ast.Inspect(fn.body, func(n ast.Node) bool {
		// Skip nested function literals: their blocks belong to their own
		// fnNode.
		if lit, ok := n.(*ast.FuncLit); ok && lit.Body != fn.body {
			return fn.node == lit
		}
		// Statement lists live in blocks and in switch/select clauses.
		var list []ast.Stmt
		switch x := n.(type) {
		case *ast.BlockStmt:
			list = x.List
		case *ast.CaseClause:
			list = x.Body
		case *ast.CommClause:
			list = x.Body
		default:
			return true
		}
		for i, s := range list {
			call := exprCall(s)
			if call == nil || !isBeginStmt(calleeFunc(st.pass.Info, call)) {
				continue
			}
			recv := callRecvString(call)
			// Form 1: defer recv.EndStmt() as the next statement; the scope
			// is open until the enclosing function returns.
			if i+1 < len(list) {
				if d, ok := list[i+1].(*ast.DeferStmt); ok {
					if isEndStmt(calleeFunc(st.pass.Info, d.Call)) && callRecvString(d.Call) == recv {
						fn.scopes = append(fn.scopes, scopeRange{from: s.End(), to: fn.body.End()})
						continue
					}
				}
			}
			// Form 2: straight-line EndStmt in the same block with only
			// simple statements in between.
			closed := false
			for j := i + 1; j < len(list); j++ {
				next := list[j]
				if c := exprCall(next); c != nil && isEndStmt(calleeFunc(st.pass.Info, c)) && callRecvString(c) == recv {
					fn.scopes = append(fn.scopes, scopeRange{from: s.End(), to: next.Pos()})
					closed = true
					break
				}
				if !simpleStmt(next) {
					break
				}
			}
			if !closed {
				st.pass.Reportf(s.Pos(),
					"%s.BeginStmt() without an EndStmt guaranteed on all paths; use `defer %s.EndStmt()` immediately after",
					recv, recv)
			}
		}
		return true
	})
}

// findWrappers marks local functions that establish a scope and invoke a
// func-typed parameter inside it (the execWrite shape).
func (st *scopeState) findWrappers() {
	st.wrappers = make(map[*types.Func]bool)
	for _, fn := range st.fns {
		if fn.decl == nil || fn.obj == nil || len(fn.scopes) == 0 {
			continue
		}
		params := make(map[types.Object]bool)
		for _, field := range fn.decl.Type.Params.List {
			if _, ok := field.Type.(*ast.FuncType); !ok {
				continue
			}
			for _, name := range field.Names {
				if obj := st.pass.Info.Defs[name]; obj != nil {
					params[obj] = true
				}
			}
		}
		if len(params) == 0 {
			continue
		}
		ast.Inspect(fn.body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok || !params[st.pass.Info.Uses[id]] {
				return true
			}
			if fn.inScope(call.Pos()) {
				st.wrappers[fn.obj] = true
			}
			return true
		})
	}
}

func (fn *fnNode) inScope(pos token.Pos) bool {
	for _, sc := range fn.scopes {
		if sc.from <= pos && pos < sc.to {
			return true
		}
	}
	return false
}

// collectSites records mutation obligations, wrapper-argument literals,
// and in-package call sites for the caller-scoped fixpoint.
func (st *scopeState) collectSites(f *ast.File) {
	if st.wrapperLits == nil {
		st.wrapperLits = make(map[*ast.FuncLit]bool)
		st.callSites = make(map[*types.Func][]token.Pos)
	}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeFunc(st.pass.Info, call)
		if callee == nil {
			return true
		}
		if st.wrappers[callee] {
			for _, arg := range call.Args {
				if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
					st.wrapperLits[lit] = true
				}
			}
		}
		if isScopedMutation(callee) {
			st.mutations = append(st.mutations, callSite{pos: call.Pos(), callee: callee})
		}
		if _, local := st.byObj[callee]; local {
			st.callSites[callee] = append(st.callSites[callee], call.Pos())
		}
		return true
	})
}

// enclosing returns the chain of function nodes containing pos, innermost
// last.
func (st *scopeState) enclosing(pos token.Pos) []*fnNode {
	var chain []*fnNode
	for _, fn := range st.fns {
		if fn.node.Pos() <= pos && pos < fn.node.End() {
			chain = append(chain, fn)
		}
	}
	sort.Slice(chain, func(i, j int) bool { return chain[i].node.Pos() < chain[j].node.Pos() })
	return chain
}

// posScoped reports whether code at pos runs inside an open publication
// scope, chasing callers when the enclosing function is itself only
// called from scoped contexts. seen breaks recursion cycles.
func (st *scopeState) posScoped(pos token.Pos, seen map[*types.Func]bool) bool {
	chain := st.enclosing(pos)
	if len(chain) == 0 {
		return false
	}
	inner := chain[len(chain)-1]
	if inner.inScope(pos) {
		return true
	}
	if lit, ok := inner.node.(*ast.FuncLit); ok {
		// A literal passed straight to a scope wrapper executes inside the
		// wrapper's scope. Other literals escape analysis: fall through to
		// the enclosing declaration conservatively only when the literal is
		// a wrapper argument.
		return st.wrapperLits[lit]
	}
	// Named function: scoped iff every in-package caller is scoped.
	obj := inner.obj
	if obj == nil || seen[obj] {
		return false
	}
	seen[obj] = true
	sites := st.callSites[obj]
	if len(sites) == 0 {
		return false
	}
	for _, s := range sites {
		if !st.posScoped(s, seen) {
			return false
		}
	}
	return true
}

func (st *scopeState) checkMutations() {
	for _, m := range st.mutations {
		if st.posScoped(m.pos, make(map[*types.Func]bool)) {
			continue
		}
		st.pass.Reportf(m.pos,
			"storage mutation %s outside a BeginStmt/EndStmt publication scope: a concurrent snapshot can observe a torn statement",
			funcID(m.callee))
	}
}
