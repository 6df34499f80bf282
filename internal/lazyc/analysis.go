package lazyc

import "slices"

// This file implements the Sloth compiler's analysis passes (paper Secs.
// 3.1 and 4): code simplification, the inter-procedural persistence
// analysis behind selective compilation (Fig. 11), the purity analysis that
// decides which calls may be deferred, deferrable-branch labeling (Sec.
// 4.2), and the liveness-driven statement runs used by thunk coalescing
// (Sec. 4.3).

// Simplify canonicalizes loops: while (cond) body becomes
// while (true) { if (cond) body else break } exactly as Sec. 3.1
// prescribes. The transformation is applied in place to a parsed program.
func Simplify(p *Program) {
	for _, fn := range p.Funcs {
		fn.Body = simplifyBlock(fn.Body)
	}
}

func simplifyBlock(stmts []Stmt) []Stmt {
	out := make([]Stmt, len(stmts))
	for i, s := range stmts {
		out[i] = simplifyStmt(s)
	}
	return out
}

func simplifyStmt(s Stmt) Stmt {
	switch st := s.(type) {
	case *If:
		return &If{Cond: st.Cond, Then: simplifyBlock(st.Then), Else: simplifyBlock(st.Else)}
	case *While:
		body := simplifyBlock(st.Body)
		if st.Cond == nil {
			return &While{Body: body}
		}
		return &While{Body: []Stmt{
			&If{Cond: st.Cond, Then: body, Else: []Stmt{&Break{}}},
		}}
	default:
		return s
	}
}

// Analysis holds the results of all static passes over one program.
type Analysis struct {
	// Persistent marks functions that may access the database (issue a
	// query directly or transitively); only these are compiled to lazy
	// semantics under selective compilation.
	Persistent map[string]bool
	// Pure marks functions with no externally visible side effects (no
	// writes, prints, or heap mutations); calls to pure functions may be
	// deferred wholesale.
	Pure map[string]bool
	// DeferrableBranch marks If/While statements whose entire evaluation
	// (condition included) may be wrapped in a thunk block.
	DeferrableBranch map[Stmt]bool
	// BranchOutputs lists the variables a deferrable branch assigns that
	// are consumed outside it.
	BranchOutputs map[Stmt][]string
	// RunStart maps the first statement of a coalescible run to its
	// length and live-out variables.
	RunStart map[Stmt]*RunInfo
}

// RunInfo describes one thunk-coalescing run.
type RunInfo struct {
	Len     int
	Outputs []string
}

// Analyze runs all passes. The program should be simplified first.
func Analyze(p *Program) *Analysis {
	a := &Analysis{
		Persistent:       p.callers(blockHasQuery),
		Pure:             make(map[string]bool),
		DeferrableBranch: make(map[Stmt]bool),
		BranchOutputs:    make(map[Stmt][]string),
		RunStart:         make(map[Stmt]*RunInfo),
	}
	impure := p.callers(blockHasEffect)
	for _, name := range p.Order {
		a.Pure[name] = !impure[name]
		fn := p.Funcs[name]
		uses := map[string]int{}
		countUses(fn.Body, uses)
		a.labelBranches(fn.Body, uses)
		a.findRuns(fn.Body, uses)
	}
	return a
}

// ---------------------------------------------------------------------------
// Persistence (Sec. 4.1) and purity. A function is persistent if it issues a
// query or calls a persistent function; it is impure if it writes the
// database, prints, mutates heap objects, or calls an impure function. Both
// are one closure over the call graph.

// callers marks the functions whose body has the property, then, to a
// fixpoint, every function that calls a marked one. It walks Program.Order,
// so the marking is deterministic.
func (p *Program) callers(has func([]Stmt) bool) map[string]bool {
	marked := make(map[string]bool)
	for _, name := range p.Order {
		if has(p.Funcs[name].Body) {
			marked[name] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, name := range p.Order {
			if marked[name] {
				continue
			}
			for _, callee := range calledFuncs(p.Funcs[name].Body) {
				if marked[callee] {
					marked[name] = true
					changed = true
					break
				}
			}
		}
	}
	return marked
}

func blockHasQuery(stmts []Stmt) bool {
	found := false
	walkStmts(stmts, func(s Stmt) {
		if _, ok := s.(*Write); ok {
			found = true
		}
	}, func(e Expr) {
		if _, ok := e.(*Read); ok {
			found = true
		}
	})
	return found
}

func calledFuncs(stmts []Stmt) []string {
	var out []string
	walkStmts(stmts, nil, func(e Expr) {
		if c, ok := e.(*Call); ok {
			out = append(out, c.Fn)
		}
	})
	return out
}

func blockHasEffect(stmts []Stmt) bool {
	found := false
	walkStmts(stmts, func(s Stmt) {
		switch s.(type) {
		case *Write, *Print, *AssignField, *AssignIndex:
			found = true
		}
	}, nil)
	return found
}

// ---------------------------------------------------------------------------
// Deferrable branches (Sec. 4.2): an If or While may be deferred when its
// condition and every statement in its bodies create no externally visible
// change and trigger no thunk evaluations — no queries, writes, prints,
// heap mutations, or calls to impure/persistent functions.

func (a *Analysis) labelBranches(stmts []Stmt, uses map[string]int) {
	for _, s := range stmts {
		switch st := s.(type) {
		case *If:
			if a.stmtDeferrable(s, false) {
				a.DeferrableBranch[s] = true
				a.BranchOutputs[s] = liveOuts([]Stmt{s}, uses)
			} else {
				a.labelBranches(st.Then, uses)
				a.labelBranches(st.Else, uses)
			}
		case *While:
			if a.stmtDeferrable(s, false) {
				a.DeferrableBranch[s] = true
				a.BranchOutputs[s] = liveOuts([]Stmt{s}, uses)
			} else {
				a.labelBranches(st.Body, uses)
			}
		}
	}
}

// stmtDeferrable reports whether a statement can live inside a thunk block.
// A deferred block's force discards the control outcome of what it runs,
// so break and continue are deferrable only inLoop: inside a While that is
// itself part of the deferred statement.
func (a *Analysis) stmtDeferrable(s Stmt, inLoop bool) bool {
	switch st := s.(type) {
	case *Skip:
		return true
	case *Break, *Continue:
		return inLoop
	case *Let:
		return a.exprDeferrable(st.Init)
	case *AssignVar:
		return a.exprDeferrable(st.E)
	case *If:
		return a.exprDeferrable(st.Cond) && a.blockDeferrable(st.Then, inLoop) && a.blockDeferrable(st.Else, inLoop)
	case *While:
		return (st.Cond == nil || a.exprDeferrable(st.Cond)) && a.blockDeferrable(st.Body, true)
	default:
		return false
	}
}

func (a *Analysis) blockDeferrable(stmts []Stmt, inLoop bool) bool {
	for _, s := range stmts {
		if !a.stmtDeferrable(s, inLoop) {
			return false
		}
	}
	return true
}

// exprDeferrable reports whether evaluating the expression creates no
// externally visible effects and forces nothing: constants, variables,
// arithmetic, and calls to pure non-persistent functions qualify.
func (a *Analysis) exprDeferrable(e Expr) bool {
	switch x := e.(type) {
	case *Const, *Var:
		return true
	case *Binop:
		return a.exprDeferrable(x.L) && a.exprDeferrable(x.R)
	case *Unop:
		return a.exprDeferrable(x.E)
	case *Call:
		if !a.Pure[x.Fn] || a.Persistent[x.Fn] {
			return false
		}
		for _, arg := range x.Args {
			if !a.exprDeferrable(arg) {
				return false
			}
		}
		return true
	default:
		// Field/Index reads force receivers; builtins force arguments;
		// R() registers queries; record/array literals allocate heap.
		return false
	}
}

// liveOuts lists, sorted, the variables stmts assign that are also used
// outside them (conservatively: used anywhere else in the function) — the
// outputs of the thunk block a deferred branch or coalesced run becomes.
func liveOuts(stmts []Stmt, uses map[string]int) []string {
	assigned := map[string]bool{}
	internalUses := map[string]int{}
	walkStmts(stmts, func(inner Stmt) {
		switch st := inner.(type) {
		case *Let:
			assigned[st.Name] = true
		case *AssignVar:
			assigned[st.Name] = true
			internalUses[st.Name]++ // mirror countUses' definition
		}
	}, func(e Expr) {
		if v, ok := e.(*Var); ok {
			internalUses[v.Name]++
		}
	})
	var outs []string
	for v := range assigned {
		if uses[v] > internalUses[v] {
			outs = append(outs, v)
		}
	}
	slices.Sort(outs)
	return outs
}

// ---------------------------------------------------------------------------
// Thunk coalescing (Sec. 4.3): maximal runs of >= 2 consecutive deferrable
// Let/AssignVar statements collapse into one thunk block whose outputs are
// the variables still used outside the run.

func (a *Analysis) findRuns(stmts []Stmt, uses map[string]int) {
	i := 0
	for i < len(stmts) {
		if !a.simpleDeferrableAssign(stmts[i]) {
			// Recurse into compound statements that were not deferred.
			switch st := stmts[i].(type) {
			case *If:
				if !a.DeferrableBranch[stmts[i]] {
					a.findRuns(st.Then, uses)
					a.findRuns(st.Else, uses)
				}
			case *While:
				if !a.DeferrableBranch[stmts[i]] {
					a.findRuns(st.Body, uses)
				}
			}
			i++
			continue
		}
		j := i
		for j < len(stmts) && a.simpleDeferrableAssign(stmts[j]) {
			j++
		}
		if j-i >= 2 {
			run := stmts[i:j]
			outs := liveOuts(run, uses)
			// Only coalesce when it saves allocations: the block costs one
			// thunk plus one per live output, and replaces the thunks the
			// run's expressions would have allocated individually.
			savedAllocs := 0
			for _, s := range run {
				var rhs Expr
				switch st := s.(type) {
				case *Let:
					rhs = st.Init
				case *AssignVar:
					rhs = st.E
				}
				savedAllocs += allocCount(rhs)
			}
			if savedAllocs > 1+len(outs) {
				a.RunStart[stmts[i]] = &RunInfo{Len: j - i, Outputs: outs}
			}
		}
		i = j
	}
}

// allocCount estimates how many thunks lazily evaluating e would allocate.
func allocCount(e Expr) int {
	switch x := e.(type) {
	case *Binop:
		n := allocCount(x.L) + allocCount(x.R)
		if x.Op == "&&" || x.Op == "||" {
			return n // control flow: the walker makes no thunk for it
		}
		return 1 + n
	case *Unop:
		return 1 + allocCount(x.E)
	case *Call:
		n := 1
		for _, a := range x.Args {
			n += allocCount(a)
		}
		return n
	case *Builtin:
		n := 1
		for _, a := range x.Args {
			n += allocCount(a)
		}
		return n
	default:
		return 0
	}
}

func (a *Analysis) simpleDeferrableAssign(s Stmt) bool {
	switch st := s.(type) {
	case *Let:
		return a.exprDeferrable(st.Init)
	case *AssignVar:
		return a.exprDeferrable(st.E)
	default:
		return false
	}
}

// ---------------------------------------------------------------------------
// Walkers.

// walkStmts visits every statement and expression in the block.
func walkStmts(stmts []Stmt, onStmt func(Stmt), onExpr func(Expr)) {
	for _, s := range stmts {
		if onStmt != nil {
			onStmt(s)
		}
		switch st := s.(type) {
		case *Let:
			walkExpr(st.Init, onExpr)
		case *AssignVar:
			walkExpr(st.E, onExpr)
		case *AssignField:
			walkExpr(st.Recv, onExpr)
			walkExpr(st.E, onExpr)
		case *AssignIndex:
			walkExpr(st.Arr, onExpr)
			walkExpr(st.Idx, onExpr)
			walkExpr(st.E, onExpr)
		case *If:
			walkExpr(st.Cond, onExpr)
			walkStmts(st.Then, onStmt, onExpr)
			walkStmts(st.Else, onStmt, onExpr)
		case *While:
			if st.Cond != nil {
				walkExpr(st.Cond, onExpr)
			}
			walkStmts(st.Body, onStmt, onExpr)
		case *Return:
			walkExpr(st.E, onExpr)
		case *Write:
			walkExpr(st.Query, onExpr)
		case *Print:
			walkExpr(st.E, onExpr)
		case *ExprStmt:
			walkExpr(st.E, onExpr)
		}
	}
}

func walkExpr(e Expr, onExpr func(Expr)) {
	if e == nil {
		return
	}
	if onExpr != nil {
		onExpr(e)
	}
	switch x := e.(type) {
	case *Field:
		walkExpr(x.Recv, onExpr)
	case *Index:
		walkExpr(x.Arr, onExpr)
		walkExpr(x.Idx, onExpr)
	case *RecordLit:
		for _, v := range x.Vals {
			walkExpr(v, onExpr)
		}
	case *ArrayLit:
		for _, v := range x.Elems {
			walkExpr(v, onExpr)
		}
	case *Binop:
		walkExpr(x.L, onExpr)
		walkExpr(x.R, onExpr)
	case *Unop:
		walkExpr(x.E, onExpr)
	case *Call:
		for _, v := range x.Args {
			walkExpr(v, onExpr)
		}
	case *Builtin:
		for _, v := range x.Args {
			walkExpr(v, onExpr)
		}
	case *Read:
		walkExpr(x.Query, onExpr)
	}
}

// countUses tallies variable references in a block: reads, plus assignment
// targets — a later `x = e` needs x's binding to exist, so for liveness
// purposes it keeps x alive out of a preceding run or deferred branch.
func countUses(stmts []Stmt, uses map[string]int) {
	walkStmts(stmts, func(s Stmt) {
		if av, ok := s.(*AssignVar); ok {
			uses[av.Name]++
		}
	}, func(e Expr) {
		if v, ok := e.(*Var); ok {
			uses[v.Name]++
		}
	})
}
