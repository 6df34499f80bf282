package merge

import (
	"sync"

	"repro/internal/driver"
	"repro/internal/sqldb"
	"repro/internal/sqldb/plan"
	"repro/internal/sqldb/sqlparse"
)

// The merged-statement renderer is a thin mode over sqlparse.Renderer that
// writes every value as a `?` (no literal round-tripping), the values
// following in render order: the members' match values, then the
// exemplar's residual constants, its shape's holes. So a chunk's text
// depends only on the exemplar's shape and the member count. (The
// fingerprint template is rendered once per shape — see newShape.)

// texts caches merged statements without arguments
// (text and interned AST), at most MaxInWidth per shape, for the life of
// the shape cache; plan.SetCaching(false) bypasses it, as it does shapesOf.
var texts sync.Map // textKey -> driver.Stmt

type textKey struct {
	sh    *shape
	width int
}

// renderMergedFn is the merged-statement renderer, indirected so tests can
// force the defensive pass-through fallback in Rewrite.
var renderMergedFn = renderMerged

// renderMerged emits the merged statement for one group chunk. members are
// the chunk's candidates in first-occurrence order (deduplicated); c is the
// exemplar whose projection and residual conjuncts every member shares.
func renderMerged(c *candidate, members []*candidate) (driver.Stmt, error) {
	st, err := textOf(c, members)
	if err != nil {
		return st, err
	}
	args := make([]sqldb.Value, 0, len(members)+len(c.sh.holes))
	for _, m := range members {
		args = append(args, m.matchVal)
	}
	for _, h := range c.sh.holes { // as the statement spells them
		if h.param < 0 {
			args = append(args, h.lit)
		} else {
			args = append(args, c.args[h.param])
		}
	}
	st.Args = args
	return st, nil
}

// textOf returns the chunk's merged statement without arguments, rendering
// it only on a cache miss.
func textOf(c *candidate, members []*candidate) (driver.Stmt, error) {
	if !plan.CachingEnabled() {
		sql, err := renderText(c, members)
		return driver.Stmt{SQL: sql}, err
	}
	k := textKey{c.sh, len(members)}
	if v, ok := texts.Load(k); ok {
		return v.(driver.Stmt), nil
	}
	sql, err := renderText(c, members)
	if err != nil {
		return driver.Stmt{}, err
	}
	parsed, _ := plan.ParseCached(sql) // nil on error: the driver parses the text
	v, _ := texts.LoadOrStore(k, driver.Stmt{SQL: sql, Parsed: parsed})
	return v.(driver.Stmt), nil
}

// renderText renders one chunk's merged statement. The prologue
// (projection, FROM), the match predicate and the residual conjuncts are
// shared emit paths; only the projection head and the trailing clause vary
// per family:
//
//   - equality:  shared cols ... WHERE col IN (?, ...) [ORDER BY]
//   - aggregate: key col + aggregate calls positionally (labels are
//     irrelevant — demux reads by position and re-labels with the
//     original's own output labels) ... WHERE col IN (?, ...) GROUP BY col
func renderText(c *candidate, members []*candidate) (string, error) {
	e := sqlparse.Renderer{Value: func(r *sqlparse.Renderer, _ sqldb.Value) { r.WriteString("?") }}
	e.WriteString("SELECT ")
	if c.sh.fam == FamilyAggregate {
		e.WriteString(c.sh.matchRef.String())
		for _, fc := range c.sh.aggs {
			e.WriteString(", ")
			e.Expr(fc)
		}
	} else {
		for i, se := range c.sh.sel.Cols {
			if i > 0 {
				e.WriteString(", ")
			}
			e.SelectExpr(se)
		}
	}
	e.WriteString(" FROM ")
	e.TableRef(c.sh.sel.From)
	e.WriteString(" WHERE ")
	e.WriteString(c.sh.matchRef.String() + " IN (?")
	for range len(members) - 1 {
		e.WriteString(", ?")
	}
	e.WriteString(")")
	for _, other := range c.sh.others {
		e.WriteString(" AND ")
		e.Expr(other)
	}
	if c.sh.fam == FamilyAggregate {
		e.GroupBy([]sqlparse.ColRef{*c.sh.matchRef})
	} else {
		e.OrderBy(c.sh.sel.OrderBy)
	}
	return e.SQL()
}
