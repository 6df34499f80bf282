package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// mapdet: Go map iteration order is deliberately randomized, so a range
// over a map that accumulates into a slice, prints, or builds an error
// from the iteration variables produces run-dependent output unless a
// deterministic sort follows — the exact bug class behind the ThunkAllocs
// bleed fix, and the one most likely to silently corrupt the 150
// byte-identical golden pages. Three patterns are flagged:
//
//  1. appending to a slice declared outside the loop, with no later call
//     in the same function that sorts that slice (sort.Slice(ids, ...)
//     after the loop is the sanctioned shape, and is recognized);
//  2. emitting output (fmt print family, Write/WriteString) directly from
//     the loop body;
//  3. returning an error or value constructed from the iteration
//     variables (which row names the "duplicate value" error then depends
//     on map order);
//  4. invoking a func-typed variable (a callback local, parameter, or
//     struct field such as a shard-router hook) with the iteration
//     variables as arguments — the callback observes map elements in
//     random order, and unlike a named function the analyzer cannot see
//     its body to judge order-sensitivity. Scatter-gather code must
//     collect into a slice and sort before invoking the hook.
//
// Order-insensitive bodies — counters, min/max folds, writes into another
// map — are not flagged. Genuinely order-free exceptions take
// //slothvet:allow mapdet(reason).
var MapdetAnalyzer = &Analyzer{
	Name: "mapdet",
	Doc:  "flag map iteration feeding slices, output, or errors without a deterministic sort",
	Run:  runMapdet,
}

var emitNames = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
}

func runMapdet(pass *Pass) error {
	for _, f := range pass.Files {
		// Walk with enclosing-function context so the sort search is
		// bounded by the function body.
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch x := n.(type) {
			case *ast.FuncDecl:
				body = x.Body
			case *ast.FuncLit:
				body = x.Body
			default:
				return true
			}
			if body != nil {
				checkMapRanges(pass, body)
			}
			return true
		})
	}
	return nil
}

func checkMapRanges(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit.Body != body {
			return false // handled with its own enclosing body
		}
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if t := pass.TypeOf(rng.X); t == nil || !isMapType(t) {
			return true
		}
		checkMapBody(pass, body, rng)
		return true
	})
}

func isMapType(t types.Type) bool {
	_, ok := t.Underlying().(*types.Map)
	return ok
}

func checkMapBody(pass *Pass, fnBody *ast.BlockStmt, rng *ast.RangeStmt) {
	loopVars := make(map[types.Object]bool)
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := pass.Info.Defs[id]; obj != nil {
				loopVars[obj] = true
			}
			if obj := pass.Info.Uses[id]; obj != nil {
				loopVars[obj] = true // range with = instead of :=
			}
		}
	}

	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.RangeStmt:
			if x != rng {
				// Inner loops over slices/maps inherit the outer map's
				// nondeterminism through their own statements; the outer
				// walk still sees them, so just continue.
				return true
			}
		case *ast.AssignStmt:
			// s = append(s, ...) to a variable declared outside the loop.
			for i, lhs := range x.Lhs {
				if i >= len(x.Rhs) {
					break
				}
				call, ok := ast.Unparen(x.Rhs[i]).(*ast.CallExpr)
				if !ok || !isBuiltinAppend(pass.Info, call) {
					continue
				}
				target := ast.Unparen(lhs)
				obj := sliceVarObj(pass.Info, target)
				if obj == nil || declaredWithin(obj, rng) {
					continue
				}
				if !sortedAfter(pass, fnBody, rng, obj) {
					pass.Reportf(x.Pos(),
						"append to %s inside map iteration without a deterministic sort afterwards; order is random per run",
						obj.Name())
				}
			}
		case *ast.CallExpr:
			if name, emits := emitCall(pass.Info, x); emits {
				pass.Reportf(x.Pos(),
					"%s emits output directly from map iteration; order is random per run", name)
			} else if name, isHook := funcValueCall(pass.Info, x); isHook && usesAny(pass.Info, x, loopVars) {
				pass.Reportf(x.Pos(),
					"callback %s invoked with map iteration variables; the callback observes elements in random order — collect and sort first", name)
			}
		case *ast.ReturnStmt:
			for _, res := range x.Results {
				if call, ok := ast.Unparen(res).(*ast.CallExpr); ok && usesAny(pass.Info, call, loopVars) {
					pass.Reportf(x.Pos(),
						"return value built from map iteration variables; which element is reported depends on map order")
					break
				}
			}
		}
		return true
	})
}

func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// sliceVarObj resolves the appended-to expression to a variable object
// (plain identifiers only; field targets are owned by some struct whose
// ordering discipline this analyzer cannot see, so they are skipped).
func sliceVarObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

func declaredWithin(obj types.Object, rng *ast.RangeStmt) bool {
	return rng.Pos() <= obj.Pos() && obj.Pos() < rng.End()
}

// sortedAfter reports whether, lexically after the range loop in the same
// function, some call whose name mentions sort receives obj as an
// argument (sort.Strings(names), sort.Slice(ids, ...), sortStrings(outs),
// slices.Sort(keys)).
func sortedAfter(pass *Pass, fnBody *ast.BlockStmt, rng *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		var name string
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			name = fun.Name
		case *ast.SelectorExpr:
			name = fun.Sel.Name
			if id, ok := fun.X.(*ast.Ident); ok {
				name = id.Name + "." + name
			}
		}
		if !strings.Contains(strings.ToLower(name), "sort") {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok && pass.Info.Uses[id] == obj {
				found = true
			}
		}
		return true
	})
	return found
}

func emitCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if !emitNames[sel.Sel.Name] {
		return "", false
	}
	// fmt.Print* and writer methods both emit; sb.WriteString on a local
	// strings.Builder emits too — the builder's contents are output.
	return exprString(sel), true
}

// funcValueCall reports whether the call's callee is a func-typed
// variable — a local, a parameter, or a struct field holding a function
// value — rather than a declared function or method. Declared functions
// (*types.Func) have inspectable bodies and stay the other rules'
// problem; a function VALUE is an opaque hook whose order-sensitivity
// cannot be judged here.
func funcValueCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return "", false
	}
	obj := info.Uses[id]
	v, ok := obj.(*types.Var)
	if !ok {
		return "", false
	}
	if _, sig := v.Type().Underlying().(*types.Signature); !sig {
		return "", false
	}
	return exprString(ast.Unparen(call.Fun)), true
}

func usesAny(info *types.Info, n ast.Node, objs map[types.Object]bool) bool {
	if len(objs) == 0 {
		return false
	}
	used := false
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok && objs[info.Uses[id]] {
			used = true
		}
		return !used
	})
	return used
}
