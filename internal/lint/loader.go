package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The in-process loader: enumerate the packages under a directory tree,
// parse their non-test files, topologically sort by in-tree imports, and
// type-check each package against its already-checked dependencies
// (standard-library imports come from the "source" importer, which
// type-checks GOROOT from source and therefore needs no module proxy or
// pre-built export data). This powers cmd/slothvet, TestRepoInvariants and
// the analyzer fixture tests, whose testdata trees load with
// directory-relative import paths.

// Loaded is the result of LoadTree: analysis units in dependency order.
type Loaded struct {
	Fset  *token.FileSet
	Units []*Unit // dependency order: a package follows its imports
}

// LoadTree loads every package under root. modulePath, when non-empty, is
// prefixed to each directory's root-relative path to form its import path
// (the real repo: modulePath "repro"); when empty, import paths are the
// root-relative directory paths themselves (fixture trees). Directories
// named testdata and hidden directories are skipped, as are _test.go
// files — analyzers state invariants about shipped code, and tests
// legitimately use wall clocks and unordered iteration.
func LoadTree(root, modulePath string) (*Loaded, error) {
	fset := token.NewFileSet()
	dirs, err := goDirs(root)
	if err != nil {
		return nil, err
	}

	type pkgSrc struct {
		path  string
		dir   string
		files []*ast.File
	}
	srcs := make(map[string]*pkgSrc)
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		path := filepath.ToSlash(rel)
		if path == "." {
			path = ""
		}
		if modulePath != "" {
			if path == "" {
				path = modulePath
			} else {
				path = modulePath + "/" + path
			}
		}
		if path == "" {
			continue
		}
		files, err := parseDir(fset, dir)
		if err != nil {
			return nil, err
		}
		if len(files) == 0 {
			continue
		}
		srcs[path] = &pkgSrc{path: path, dir: dir, files: files}
	}

	// Topological order over in-tree imports.
	order := make([]string, 0, len(srcs))
	state := make(map[string]int) // 0 unvisited, 1 visiting, 2 done
	var visit func(string) error
	visit = func(path string) error {
		switch state[path] {
		case 1:
			return fmt.Errorf("lint: import cycle through %s", path)
		case 2:
			return nil
		}
		state[path] = 1
		src := srcs[path]
		deps := make(map[string]bool)
		for _, f := range src.files {
			for _, imp := range f.Imports {
				p := strings.Trim(imp.Path.Value, `"`)
				if _, ours := srcs[p]; ours {
					deps[p] = true
				}
			}
		}
		sorted := make([]string, 0, len(deps))
		for d := range deps {
			sorted = append(sorted, d)
		}
		sort.Strings(sorted)
		for _, d := range sorted {
			if err := visit(d); err != nil {
				return err
			}
		}
		state[path] = 2
		order = append(order, path)
		return nil
	}
	paths := make([]string, 0, len(srcs))
	for p := range srcs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}

	// Type-check in that order.
	std := importer.ForCompiler(fset, "source", nil)
	checked := make(map[string]*types.Package, len(order))
	imp := &treeImporter{std: std, local: checked}
	loaded := &Loaded{Fset: fset}
	for _, path := range order {
		src := srcs[path]
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Scopes:     make(map[ast.Node]*types.Scope),
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(path, fset, src.files, info)
		if err != nil {
			return nil, fmt.Errorf("lint: typecheck %s: %w", path, err)
		}
		checked[path] = pkg
		loaded.Units = append(loaded.Units, &Unit{
			Fset:  fset,
			Files: src.files,
			Path:  path,
			Pkg:   pkg,
			Info:  info,
		})
	}
	return loaded, nil
}

// Run applies the analyzers to every loaded unit in dependency order,
// threading facts, and returns all diagnostics sorted by position.
func (l *Loaded) Run(analyzers []*Analyzer) ([]Diagnostic, error) {
	fs := newFactSet()
	var all []Diagnostic
	for _, u := range l.Units {
		diags, err := runAnalyzers(u, analyzers, fs)
		if err != nil {
			return all, err
		}
		all = append(all, diags...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return all, nil
}

// treeImporter resolves in-tree packages from the checked set and
// everything else through the source importer.
type treeImporter struct {
	std   types.Importer
	local map[string]*types.Package
}

func (ti *treeImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := ti.local[path]; ok {
		return pkg, nil
	}
	return ti.std.Import(path)
}

// goDirs lists directories under root holding at least one non-test .go
// file, skipping hidden and testdata subtrees.
func goDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	return dirs, err
}

// parseDir parses the non-test .go files of one directory.
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}
