package merge

import (
	"repro/internal/sqldb"
	"repro/internal/sqldb/sqlparse"
)

// The merged-statement renderer is a thin mode over sqlparse.Renderer:
// every Literal and Param renders as a `?` placeholder and its value is
// appended to args, producing an executable statement whose argument list
// is rebuilt in render order. Emitting all values as parameters sidesteps
// literal round-tripping (string quoting, float formats) entirely. (The
// other mode, the fingerprint template, is rendered once per shape — see
// newShape.)

// emitter builds executable SQL, rebuilding the argument list.
type emitter struct {
	sqlparse.Renderer
	outArgs []sqldb.Value
}

func newEmitter(inArgs []sqldb.Value) *emitter {
	e := &emitter{}
	e.Value = func(r *sqlparse.Renderer, v sqldb.Value) {
		r.WriteString("?")
		e.outArgs = append(e.outArgs, v)
	}
	e.Param = func(r *sqlparse.Renderer, idx int) {
		if idx < 0 || idx >= len(inArgs) {
			r.Fail("param %d out of range (%d args)", idx, len(inArgs))
			return
		}
		e.Value(r, inArgs[idx])
	}
	return e
}

// value renders one value not present in the expression tree (IN-list
// members, window bounds) through the emit hook.
func (e *emitter) value(v sqldb.Value) { e.Value(&e.Renderer, v) }

// renderMergedFn is the merged-statement renderer, indirected so tests can
// force the defensive pass-through fallback in Rewrite.
var renderMergedFn = renderMerged

// renderMerged emits the merged statement for one group chunk. members are
// the chunk's candidates in first-occurrence order (deduplicated); c is the
// exemplar whose projection and residual conjuncts every member shares.
// The prologue (projection, FROM), the residual conjuncts, and the
// trailing clause are shared emit paths; only the projection head and the
// match predicate vary per family:
//
//   - equality:  shared cols ... WHERE col IN (?, ...) [ORDER BY]
//   - aggregate: key col + aggregate calls positionally (labels are
//     irrelevant — demux reads by position and re-labels with the
//     original's own output labels) ... WHERE col IN (?, ...) GROUP BY col
//   - range:     shared cols ... WHERE (OR of explicit bound comparisons)
//     [ORDER BY]
func renderMerged(c *candidate, members []*candidate) (string, []sqldb.Value, error) {
	e := newEmitter(c.args)
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
	if c.sh.fam == FamilyRange {
		e.windowList(c.sh.matchRef.String(), members)
	} else {
		e.inList(c.sh.matchRef.String(), members)
	}
	for _, other := range c.sh.others {
		e.WriteString(" AND ")
		e.Expr(other)
	}
	if c.sh.fam == FamilyAggregate {
		e.GroupBy([]sqlparse.ColRef{*c.sh.matchRef})
	} else {
		e.OrderBy(c.sh.sel.OrderBy)
	}
	sql, err := e.SQL()
	if err != nil {
		return "", nil, err
	}
	return sql, e.outArgs, nil
}

// inList emits `col IN (?, ...)` over the members' match values.
func (e *emitter) inList(col string, members []*candidate) {
	e.WriteString(col)
	e.WriteString(" IN (")
	for i, m := range members {
		if i > 0 {
			e.WriteString(", ")
		}
		e.value(m.matchVal)
	}
	e.WriteString(")")
}

// windowList emits a parenthesized OR of explicit bound comparisons over
// the members' windows.
func (e *emitter) windowList(col string, members []*candidate) {
	e.WriteString("(")
	for i, m := range members {
		if i > 0 {
			e.WriteString(" OR ")
		}
		e.WriteString("(" + col)
		if m.win.loStrict {
			e.WriteString(" > ")
		} else {
			e.WriteString(" >= ")
		}
		e.value(m.win.lo)
		e.WriteString(" AND " + col)
		if m.win.hiStrict {
			e.WriteString(" < ")
		} else {
			e.WriteString(" <= ")
		}
		e.value(m.win.hi)
		e.WriteString(")")
	}
	e.WriteString(")")
}
