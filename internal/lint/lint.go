// Package lint is the reproduction's own static-analysis layer: a small,
// dependency-free re-implementation of the golang.org/x/tools/go/analysis
// surface (the container image carries no module proxy, so the x/tools
// framework itself is unavailable) plus the six slothvet analyzers that
// prove the codebase's determinism and concurrency invariants at compile
// time — the paper's method (Sloth is a static analyzer) turned back on
// the code that reproduces it.
//
// The framework is deliberately minimal: an Analyzer runs once per
// package over parsed files and full type information, reports
// position-sorted diagnostics, and may exchange package-level facts with
// the packages it imports (facts flow in dependency order, like
// unitchecker's vetx files). One driver runs them: the in-process source
// loader (loader.go), behind the fixture tests, TestRepoInvariants and
// cmd/slothvet alike.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //slothvet:allow annotations.
	Name string
	// Doc states the invariant the analyzer proves.
	Doc string
	// Run analyzes one package.
	Run func(*Pass) error
}

// All returns the full slothvet suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{
		WallclockAnalyzer,
		StmtscopeAnalyzer,
		SnapwriteAnalyzer,
		MapdetAnalyzer,
		AtomicfieldAnalyzer,
		FaultrandAnalyzer,
	}
}

// Diagnostic is one finding, positioned in the analyzed package.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries one (analyzer, package) unit of work.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's non-test syntax trees.
	Files []*ast.File
	// Path is the canonical import path ("repro/internal/sqldb/storage").
	Path string
	Pkg  *types.Package
	Info *types.Info

	// facts gives read access to the facts every dependency exported and
	// write access to this package's own fact set.
	facts *factSet

	allows allowIndex
	report func(Diagnostic)
}

// Reportf records a diagnostic at pos unless an allow annotation for this
// analyzer covers the position's line (or the line above it).
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.allows.allowed(p.Analyzer.Name, position) {
		return
	}
	p.report(Diagnostic{Pos: position, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// ImportFact copies the fact a dependency package exported under this
// analyzer's name into out (a pointer), reporting whether one existed.
func (p *Pass) ImportFact(pkgPath string, out any) bool {
	return p.facts.importFact(pkgPath, p.Analyzer.Name, out)
}

// ExportFact publishes v, a pointer to the analyzer's fact struct, as this
// package's fact for the current analyzer; packages that import this one
// read it with ImportFact and must treat what it holds as read-only.
func (p *Pass) ExportFact(v any) {
	p.facts.exportFact(p.Path, p.Analyzer.Name, v)
}

// TypeOf is a nil-tolerant p.Info.TypeOf.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if p.Info == nil {
		return nil
	}
	return p.Info.TypeOf(e)
}

// ---------------------------------------------------------------------------
// Allow annotations.
//
// A finding is suppressed by a comment of the form
//
//	//slothvet:allow <analyzer>(<reason>)
//
// on the flagged line or on its own line immediately above. The reason is
// mandatory: an allow without one is itself a diagnostic, so every
// suppression in the tree documents why the invariant legitimately bends
// there (the acceptance bar for the suite).

var allowRe = regexp.MustCompile(`^//slothvet:allow\s+([a-z]+)\s*\(([^)]*)\)\s*$`)

type allowKey struct {
	file     string
	line     int
	analyzer string
}

type allowIndex map[allowKey]bool

// buildAllowIndex scans every comment in the files, recording which
// (file, line, analyzer) triples carry suppressions and reporting
// malformed ones. A suppression on line L covers findings on L and L+1,
// so both same-line and line-above placements work.
func buildAllowIndex(fset *token.FileSet, files []*ast.File, analyzers []*Analyzer) (allowIndex, []Diagnostic) {
	idx := make(allowIndex)
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var bad []Diagnostic
	meta := func(pos token.Position, format string, args ...any) {
		bad = append(bad, Diagnostic{Pos: pos, Analyzer: "allow", Message: fmt.Sprintf(format, args...)})
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, "//slothvet:") {
					continue
				}
				pos := fset.Position(c.Pos())
				m := allowRe.FindStringSubmatch(c.Text)
				if m == nil {
					meta(pos, "malformed slothvet annotation %q (want //slothvet:allow name(reason))", c.Text)
					continue
				}
				name, reason := m[1], strings.TrimSpace(m[2])
				if !known[name] {
					meta(pos, "allow names unknown analyzer %q", name)
					continue
				}
				if reason == "" {
					meta(pos, "allow %s() without a reason; every suppression must say why", name)
					continue
				}
				idx[allowKey{pos.Filename, pos.Line, name}] = true
			}
		}
	}
	return idx, bad
}

func (idx allowIndex) allowed(analyzer string, pos token.Position) bool {
	return idx[allowKey{pos.Filename, pos.Line, analyzer}] ||
		idx[allowKey{pos.Filename, pos.Line - 1, analyzer}]
}

// ---------------------------------------------------------------------------
// Facts.

// factSet holds every package's exported facts, keyed by package path and
// analyzer name. Values are pointers to the analyzer's own fact types.
type factSet struct {
	byPkg map[string]map[string]any
}

func newFactSet() *factSet {
	return &factSet{byPkg: make(map[string]map[string]any)}
}

func (fs *factSet) exportFact(pkgPath, analyzer string, v any) {
	m := fs.byPkg[pkgPath]
	if m == nil {
		m = make(map[string]any)
		fs.byPkg[pkgPath] = m
	}
	m[analyzer] = v
}

// importFact copies the struct the analyzer exported for pkgPath into the
// one out points to. Facts are keyed by analyzer name, so the two types
// agree unless an analyzer disagrees with itself — reported as no fact.
func (fs *factSet) importFact(pkgPath, analyzer string, out any) bool {
	raw, ok := fs.byPkg[pkgPath][analyzer]
	if !ok || reflect.TypeOf(raw) != reflect.TypeOf(out) {
		return false
	}
	reflect.ValueOf(out).Elem().Set(reflect.ValueOf(raw).Elem())
	return true
}

// ---------------------------------------------------------------------------
// Running.

// Unit is one package ready for analysis.
type Unit struct {
	Fset  *token.FileSet
	Files []*ast.File
	Path  string
	Pkg   *types.Package
	Info  *types.Info
}

// runAnalyzers applies every analyzer to the unit, appending diagnostics
// (position-sorted) and exporting facts into fs. Malformed allow
// annotations surface once per package regardless of the analyzer list.
func runAnalyzers(u *Unit, analyzers []*Analyzer, fs *factSet) ([]Diagnostic, error) {
	var diags []Diagnostic
	allows, bad := buildAllowIndex(u.Fset, u.Files, analyzers)
	diags = append(diags, bad...)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     u.Fset,
			Files:    u.Files,
			Path:     u.Path,
			Pkg:      u.Pkg,
			Info:     u.Info,
			facts:    fs,
			allows:   allows,
			report:   func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return diags, fmt.Errorf("%s: %s: %w", a.Name, u.Path, err)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}
