package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// snapwrite: a SnapSession executes read-only batches against a pinned
// MVCC epoch, concurrently with the serialized writer — the whole
// multicore design (DESIGN.md §10) rests on nothing in that path mutating
// the store or touching the writer's locks. This analyzer walks the
// static call graph rooted at the snapshot execution entry points
// (engine SnapSession methods, plan's ExecSnap) and proves no storage
// mutation API is reachable. The graph crosses packages through exported
// facts: each package publishes which of its functions can (transitively)
// reach a mutation, in dependency order, so the engine's check sees
// through the plan layer without loading it.
//
// Static means static: calls through stored func values (the compiled
// plan's row closures) are not traced. Those closures are compiled from
// pure expression trees; the analyzer's job is catching the realistic
// regression — someone adding a direct Write/Lock call under the snapshot
// path.
var SnapwriteAnalyzer = &Analyzer{
	Name: "snapwrite",
	Doc:  "prove no storage mutation API is reachable from snapshot (read-only) execution entry points",
	Run:  runSnapwrite,
}

// snapwriteFact is one package's exported summary: for each function that
// can reach a mutation, the call chain (function IDs, this package's
// function first) to the mutation it reaches.
type snapwriteFact struct {
	// Mutating maps funcID -> short chain description ("(SelectPlan).ExecSnap -> (Store).Write").
	Mutating map[string]string `json:"mutating"`
}

// mutationSeeds are the storage-package functions that ARE the mutation
// and locking surface: reaching any of them from a snapshot path is a
// violation. Rows change only inside Store.Write, through the Writer
// methods; the unexported table mutators they call are included so
// transitive closure inside storage works from names alone. Lock is
// included because taking the writer mutex on the snapshot path deadlocks
// against a blocked writer.
var mutationSeeds = map[string][]string{
	"Store":  {"Write", "Lock", "CreateTable"},
	"Writer": {"Insert", "Update", "Delete"},
	"Table":  {"insert", "update", "delete", "AddIndex", "AddOrderedIndex", "addIndex"},
}

func isMutationSeed(f *types.Func) bool {
	if f == nil || !hasPathSuffix(pkgPathOf(f), "sqldb/storage") {
		return false
	}
	for recv, names := range mutationSeeds {
		if recvTypeName(f) == recv {
			for _, n := range names {
				if f.Name() == n {
					return true
				}
			}
		}
	}
	return false
}

// isSnapRoot identifies the snapshot execution entry points.
func isSnapRoot(path string, f *types.Func) bool {
	if hasPathSuffix(path, "sqldb/engine") && recvTypeName(f) == "SnapSession" {
		return true
	}
	if hasPathSuffix(path, "sqldb/plan") && f.Name() == "ExecSnap" {
		return true
	}
	return false
}

func runSnapwrite(pass *Pass) error {
	// Local call graph: declared function -> static callees (local funcs,
	// imported funcs, direct seeds). Function literals fold into their
	// enclosing declaration.
	type edge struct {
		callee *types.Func
		pos    token.Pos
	}
	graph := make(map[*types.Func][]edge)
	decls := make(map[*types.Func]*ast.FuncDecl)

	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pass.Info.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			decls[obj] = fd
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if callee := calleeFunc(pass.Info, call); callee != nil {
					graph[obj] = append(graph[obj], edge{callee: callee, pos: call.Pos()})
				}
				return true
			})
		}
	}

	// Imported facts, lazily fetched per dependency package.
	depFacts := make(map[string]*snapwriteFact)
	factFor := func(path string) *snapwriteFact {
		if f, ok := depFacts[path]; ok {
			return f
		}
		f := &snapwriteFact{}
		if !pass.ImportFact(path, f) || f.Mutating == nil {
			f.Mutating = map[string]string{}
		}
		depFacts[path] = f
		return f
	}

	// mutChain computes, with memoization, whether fn can reach a
	// mutation, returning the chain description.
	state := make(map[*types.Func]int) // 1 visiting, 2 done
	chains := make(map[*types.Func]string)
	var walk func(fn *types.Func) (string, bool)
	walk = func(fn *types.Func) (string, bool) {
		if s := state[fn]; s == 1 {
			return "", false // cycle: resolved by the caller's other edges
		} else if s == 2 {
			c, ok := chains[fn]
			return c, ok
		}
		state[fn] = 1
		var found string
		for _, e := range graph[fn] {
			callee := e.callee
			if isMutationSeed(callee) {
				found = funcID(fn) + " -> " + funcID(callee)
				break
			}
			cpath := pkgPathOf(callee)
			if cpath == pass.Path {
				if chain, bad := walk(callee); bad {
					found = funcID(fn) + " -> " + chain
					break
				}
				continue
			}
			if cpath == "" {
				continue
			}
			// Unknown packages (stdlib, unanalyzed deps) have no fact and
			// resolve to an empty map: their functions are trusted not to
			// mutate this repo's storage.
			if chain, bad := factFor(cpath).Mutating[funcID(callee)]; bad {
				found = funcID(fn) + " -> " + chain
				break
			}
		}
		state[fn] = 2
		if found != "" {
			chains[fn] = found
			return found, true
		}
		return "", false
	}

	// Export this package's fact and check roots.
	fact := &snapwriteFact{Mutating: map[string]string{}}
	ids := make([]*types.Func, 0, len(decls))
	for obj := range decls {
		ids = append(ids, obj)
	}
	sort.Slice(ids, func(i, j int) bool { return funcID(ids[i]) < funcID(ids[j]) })
	for _, obj := range ids {
		if hasPathSuffix(pass.Path, "sqldb/storage") && isMutationSeed(obj) {
			fact.Mutating[funcID(obj)] = funcID(obj)
			continue
		}
		if chain, bad := walk(obj); bad {
			fact.Mutating[funcID(obj)] = chain
			if isSnapRoot(pass.Path, obj) {
				pass.Reportf(decls[obj].Name.Pos(),
					"snapshot entry point %s reaches a storage mutation: %s", funcID(obj), chain)
			}
		}
	}
	pass.ExportFact(fact)
	return nil
}
