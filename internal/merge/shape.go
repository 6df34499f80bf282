package merge

import (
	"slices"
	"strings"
	"sync"

	"repro/internal/sqldb"
	"repro/internal/sqldb/plan"
	"repro/internal/sqldb/sqlparse"
)

// Analysis is split in two. Everything that depends only on a statement's
// AST — which conjuncts could carry the match value, what is left over as
// residual, the projection checks, and the fingerprint template —
// is a shape, built once per interned *sqlparse.SelectStmt and cached for
// the life of the process (the parse interner never evicts, so neither does
// this). What depends on the argument values — which eligible conjunct
// actually holds a usable constant, its type class, the residual constants
// — is resolved per statement by bind (family.go).

// constant is a Literal or Param leaf: the only expressions whose value
// analysis may resolve.
type constant struct {
	param int         // args index; -1 for a literal
	lit   sqldb.Value // normalized literal value
}

func constantOf(e sqlparse.Expr) (constant, bool) {
	switch x := e.(type) {
	case *sqlparse.Literal:
		return constant{param: -1, lit: sqldb.Normalize(x.Value)}, true
	case *sqlparse.Param:
		return constant{param: x.Index}, true
	default:
		return constant{}, false
	}
}

// value resolves the constant. bind has already checked the argument list
// against stmtShapes.minArgs, so the index is in range.
func (k constant) value(args []sqldb.Value) sqldb.Value {
	if k.param < 0 {
		return k.lit
	}
	return sqldb.Normalize(args[k.param])
}

// shape is one way a statement template can merge: a family plus the
// conjunct carrying its match value. Shapes are immutable and shared by
// every goroutine that rewrites the template.
type shape struct {
	fam      FamilyID
	sel      *sqlparse.SelectStmt
	matchRef *sqlparse.ColRef // the match column
	others   []sqlparse.Expr  // residual WHERE conjuncts

	// Aggregate family: the projected aggregate calls in select-list order,
	// with the output labels the engine would give the original statement.
	aggs   []*sqlparse.FuncCall
	labels []string

	// tmpl canonicalizes everything about the shape except constants:
	// family, table, projection, match column, residual conjuncts and ORDER
	// BY, with each Literal/Param rendered as a hole; holes lists those
	// constants in render order (also a merged statement's residual values,
	// render.go). Two statements differ only in their
	// match value exactly when template, match type class and resolved
	// hole values all agree — so `id = 3` and `id = ?` with 3 (two texts,
	// two ASTs, one template) still share a group. Templates are interned:
	// equal ones share a backing array, so comparing two group keys is a
	// pointer check, not a scan. When no hole is a Param the formatted
	// values are fixed too: consts holds them.
	tmpl   string
	holes  []constant
	consts string
	fixed  bool // consts is set
}

// eqSite is one `col = const` conjunct over the FROM table. sh is nil when
// the projection cannot carry the column for demux.
type eqSite struct {
	val constant
	sh  *shape
}

// stmtShapes is the cached analysis of one statement template.
type stmtShapes struct {
	minArgs int  // 1 + the highest `?` index in WHERE and ORDER BY
	agg     bool // aggregate projection: the eq sites carry aggregate shapes
	eq      []eqSite
}

var (
	shapeCache sync.Map // *sqlparse.SelectStmt -> *stmtShapes (nil: never mergeable)
	templates  sync.Map // template text -> its one interned copy
)

// shapesOf returns the statement's analysis, building it on first sight.
// plan.SetCaching(false) covers this layer too: ASTs are not interned then,
// so nothing is looked up or stored.
func shapesOf(sel *sqlparse.SelectStmt) *stmtShapes {
	if !plan.CachingEnabled() {
		return buildShapes(sel)
	}
	if v, ok := shapeCache.Load(sel); ok {
		return v.(*stmtShapes)
	}
	v, _ := shapeCache.LoadOrStore(sel, buildShapes(sel))
	return v.(*stmtShapes)
}

func intern(tmpl string) string {
	if !plan.CachingEnabled() {
		return tmpl
	}
	v, _ := templates.LoadOrStore(tmpl, tmpl)
	return v.(string)
}

// buildShapes runs every AST-only check, returning nil for a statement no
// argument list can make mergeable.
func buildShapes(sel *sqlparse.SelectStmt) *stmtShapes {
	// Shared base shape for every family: single-table SELECT with a WHERE
	// clause and none of the clauses that change meaning when rows from
	// other keys join the working set.
	if sel.Distinct || len(sel.Joins) > 0 || len(sel.GroupBy) > 0 ||
		sel.Having != nil || sel.Limit >= 0 || sel.Offset > 0 || sel.Where == nil {
		return nil
	}
	// Every conjunct ends up either as the varying part or in a template,
	// and ORDER BY in every template, so one trial render settles both how
	// many arguments the statement needs and that templates cannot fail.
	ss := &stmtShapes{}
	probe := sqlparse.Renderer{
		Value: func(*sqlparse.Renderer, sqldb.Value) {},
		Param: func(r *sqlparse.Renderer, idx int) {
			if idx < 0 {
				r.Fail("param %d", idx)
			}
			ss.minArgs = max(ss.minArgs, idx+1)
		},
	}
	probe.Expr(sel.Where)
	probe.OrderBy(sel.OrderBy)
	if _, err := probe.SQL(); err != nil {
		return nil
	}

	base := shape{sel: sel}
	if projectionAggregates(sel) {
		ss.agg, base.fam = true, FamilyAggregate
		if !aggregateProjection(&base) {
			return nil
		}
	} else if !plainProjection(sel) {
		return nil
	}
	ss.addSites(base)
	if len(ss.eq) == 0 {
		return nil
	}
	return ss
}

// newShape completes base for match conjunct m; every other conjunct is
// residual.
func newShape(base shape, ref *sqlparse.ColRef, conjuncts []sqlparse.Expr, m int) *shape {
	sh := base
	sh.matchRef = ref
	for i, conj := range conjuncts {
		if i != m {
			sh.others = append(sh.others, conj)
		}
	}
	r := sqlparse.Renderer{}
	hole := func(k constant) {
		r.WriteString("?")
		sh.holes = append(sh.holes, k)
	}
	r.Value = func(_ *sqlparse.Renderer, v sqldb.Value) { hole(constant{param: -1, lit: sqldb.Normalize(v)}) }
	r.Param = func(_ *sqlparse.Renderer, idx int) { hole(constant{param: idx}) }
	r.WriteString(sh.fam.String())
	r.WriteString("\x1f")
	r.WriteString(strings.ToLower(sh.sel.From.Name))
	r.WriteString("\x1f")
	r.WriteString(strings.ToLower(sh.sel.From.Binding()))
	r.WriteString("\x1f")
	for _, se := range sh.sel.Cols {
		r.SelectExpr(se)
		r.WriteString(",")
	}
	r.WriteString("\x1f")
	r.WriteString(strings.ToLower(ref.String()))
	r.WriteString("\x1f")
	for _, other := range sh.others {
		r.Expr(other)
		r.WriteString("\x1f")
	}
	r.WriteString("\x1f")
	r.OrderBy(sh.sel.OrderBy)
	tmpl, _ := r.SQL() // buildShapes' trial render already proved this cannot fail
	sh.tmpl = intern(tmpl)
	if !slices.ContainsFunc(sh.holes, func(k constant) bool { return k.param >= 0 }) {
		sh.consts, sh.fixed = formatHoles(sh.holes, nil), true
	}
	return &sh
}

// ownColumn reports whether a column reference belongs to the FROM table.
func ownColumn(ref *sqlparse.ColRef, binding string) bool {
	return ref.Table == "" || strings.EqualFold(ref.Table, binding)
}

// addSites records each top-level `col = const` conjunct over the FROM
// table as an equality site, in WHERE order.
func (ss *stmtShapes) addSites(base shape) {
	binding := base.sel.From.Binding()
	conjuncts := splitConjuncts(base.sel.Where, nil)
	for i, conj := range conjuncts {
		ref, val, ok := eqSiteOf(conj, binding)
		if !ok {
			continue
		}
		site := eqSite{val: val}
		// Equality demux keys on the match column's value in the result
		// rows; the aggregate rewrite adds the column itself.
		if ss.agg || projectionCarries(base.sel.Cols, ref.Name) {
			site.sh = newShape(base, ref, conjuncts, i)
		}
		ss.eq = append(ss.eq, site)
	}
}

// eqSiteOf matches one `col = const` (or `const = col`) conjunct over the
// FROM table.
func eqSiteOf(e sqlparse.Expr, binding string) (*sqlparse.ColRef, constant, bool) {
	b, ok := e.(*sqlparse.Binary)
	if !ok || b.Op != sqlparse.OpEq {
		return nil, constant{}, false
	}
	col, val := b.L, b.R
	if _, ok := col.(*sqlparse.ColRef); !ok {
		col, val = b.R, b.L
	}
	ref, ok := col.(*sqlparse.ColRef)
	k, isConst := constantOf(val)
	if !ok || !isConst || !ownColumn(ref, binding) {
		return nil, constant{}, false
	}
	return ref, k, true
}
