package lint

import (
	"go/ast"
	"strings"
)

// atomicfield: a value that is updated atomically must be typed atomic.
// sync/atomic's functions (AddInt64, LoadUint32, StorePointer, ...) take
// the address of a plain field, which the rest of the program can still
// read or write plainly — one plain read racing an atomic increment is
// undefined behaviour the race detector only catches when a test happens
// to interleave it. The typed atomics (atomic.Int64, atomic.Value,
// atomic.Pointer, ...) make every access atomic by construction, in tests
// and out, so only the functions are banned, in test-free shipped code,
// across every package.

// atomicFuncPrefixes names sync/atomic's function families; the typed
// atomics' names start with none of them.
var atomicFuncPrefixes = []string{"Add", "Load", "Store", "Swap", "CompareAndSwap", "And", "Or"}

// AtomicfieldAnalyzer forbids sync/atomic's functions: atomic values are
// typed.
var AtomicfieldAnalyzer = &Analyzer{
	Name: "atomicfield",
	Doc:  "forbid sync/atomic's functions (AddInt64, LoadInt64, ...); a value updated atomically must be a typed atomic (atomic.Int64, atomic.Pointer, ...)",
	Run:  runAtomicfield,
}

func runAtomicfield(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || !isPkgIdent(pass.Info, sel.X, "sync/atomic") {
				return true
			}
			for _, p := range atomicFuncPrefixes {
				if strings.HasPrefix(sel.Sel.Name, p) {
					pass.Reportf(sel.Pos(),
						"atomic.%s takes the address of a plain value, which other code can still read or write plainly; make the value a typed atomic (atomic.Int64, atomic.Pointer, ...)",
						sel.Sel.Name)
					break
				}
			}
			return true
		})
	}
	return nil
}
