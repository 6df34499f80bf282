package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Shared type-resolution helpers for the analyzers.

// calleeFunc resolves a call expression to the *types.Func it invokes
// (package function or method), or nil for dynamic calls — calls through
// func-typed values, fields, builtins, or type conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		// Package-qualified call: pkg.F.
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// recvTypeName returns the name of a method's receiver type with pointers
// stripped ("Table" for func (t *Table) ...), or "" for plain functions.
func recvTypeName(f *types.Func) string {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// funcID names a function uniquely within its package: "F" for package
// functions, "(Recv).M" for methods.
func funcID(f *types.Func) string {
	if r := recvTypeName(f); r != "" {
		return "(" + r + ")." + f.Name()
	}
	return f.Name()
}

// pkgPathOf returns the defining package path of a function ("" for
// builtins and universe-scope objects).
func pkgPathOf(f *types.Func) string {
	if f.Pkg() == nil {
		return ""
	}
	return f.Pkg().Path()
}

// hasPathSuffix reports whether an import path is the named package or
// ends with "/<suffix>" — the analyzers identify the storage, engine, and
// plan packages this way so fixture trees (paths like "x/sqldb/storage")
// match the real module ("repro/internal/sqldb/storage").
func hasPathSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// isPkgIdent reports whether e is a reference to the import of the named
// package (e.g. the `time` in time.Now).
func isPkgIdent(info *types.Info, e ast.Expr, pkgPath string) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == pkgPath
}

// exprString renders a short dotted form of an expression for diagnostics
// ("s.db.store").
func exprString(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.CallExpr:
		return exprString(x.Fun) + "()"
	case *ast.IndexExpr:
		return exprString(x.X) + "[...]"
	default:
		return "?"
	}
}
