package merge

import (
	"fmt"
	"strings"

	"repro/internal/driver"
	"repro/internal/sqldb"
	"repro/internal/sqldb/plan"
	"repro/internal/sqldb/sqlparse"
)

// FamilyID names one of the registered merge families. Each family is an
// analyzer (which statements qualify), a renderer (what the merged
// statement looks like), and a demux rule (how merged rows route back to
// the originals); the group-key/chunk/route machinery is shared.
type FamilyID int

const (
	// FamilyEquality merges `col = value` point lookups into `col IN (...)`
	// — the original 1+N family.
	FamilyEquality FamilyID = iota
	// FamilyAggregate merges per-key scalar aggregates (`SELECT COUNT(*)
	// ... WHERE fk = ?` and friends) into one `SELECT fk, AGG(...) ...
	// WHERE fk IN (...) GROUP BY fk`, with demux synthesizing the per-key
	// scalar row — including the zero row for keys that matched nothing.
	FamilyAggregate
	// NumFamilies sizes per-family counter arrays.
	NumFamilies = iota
)

// String returns the family's report label.
func (f FamilyID) String() string {
	switch f {
	case FamilyEquality:
		return "eq"
	case FamilyAggregate:
		return "agg"
	default:
		return fmt.Sprintf("family(%d)", int(f))
	}
}

// candidate is one statement bound to a shape: the argument-dependent half
// of analysis. A batch's candidates live in one slab, indexed like the
// batch; sh is nil for statements that are not candidates.
type candidate struct {
	sh                 *shape
	args               []sqldb.Value
	matchVal           sqldb.Value // the match constant
	group              int32       // group ordinal within the batch
	chunk              int32       // chunk index within the batch (multi-member groups)
	rep                int32       // the candidate carrying this match value first (itself, or the one it duplicates)
	out                int32       // unmerged: its index in Plan.Stmts
	nrows, first, last int32       // on a rep, in Demux: merged rows matched, first and last in scratch.hits
}

// groupKey identifies a group: statements merge exactly when their keys are
// equal. epoch counts the write barriers seen so far, filled in by Rewrite.
type groupKey struct {
	epoch  int
	tmpl   string
	class  byte   // match value type
	consts string // the template's hole values, formatted
}

// key builds the candidate-independent part of the group key for one
// statement bound to the shape.
func (sh *shape) key(class byte, args []sqldb.Value) groupKey {
	k := groupKey{tmpl: sh.tmpl, class: class, consts: sh.consts}
	if !sh.fixed {
		k.consts = formatHoles(sh.holes, args)
	}
	return k
}

// formatHoles resolves and formats a template's constants, in order.
func formatHoles(holes []constant, args []sqldb.Value) string {
	var buf [64]byte
	b := buf[:0]
	for _, h := range holes {
		b = append(sqldb.AppendFormat(b, h.value(args)), '\x1f')
	}
	return string(b)
}

// splitConjuncts flattens a WHERE tree over top-level ANDs.
func splitConjuncts(e sqlparse.Expr, out []sqlparse.Expr) []sqlparse.Expr {
	if b, ok := e.(*sqlparse.Binary); ok && b.Op == sqlparse.OpAnd {
		out = splitConjuncts(b.L, out)
		return splitConjuncts(b.R, out)
	}
	return append(out, e)
}

// scalarClass tags a match value's type (0: not mergeable — only these
// scalar types are, and NULL never equals anything). The type is part of
// the group key, so a merged IN list carries values of one type, as its
// members' own statements did, and route can find a row's member with one
// lookup keyed on the value.
func scalarClass(v sqldb.Value) byte {
	switch v.(type) {
	case int64:
		return 'i'
	case string:
		return 's'
	case float64:
		return 'f'
	case bool:
		return 'b'
	}
	return 0
}

// analyze binds one statement to a shape under the enabled families,
// filling c and returning its group key (epoch left for Rewrite)
// when it is mergeable. It consumes the AST the query store threaded
// through the batch (falling back to the parse interner), so analysis never
// re-parses SQL text, and the AST's cached shapes, so it never re-derives
// what the arguments cannot change.
func (m *Merger) analyze(st driver.Stmt, c *candidate) (groupKey, bool) {
	parsed := st.Parsed
	if parsed == nil {
		var err error
		parsed, err = plan.ParseCached(st.SQL)
		if err != nil {
			return groupKey{}, false
		}
	}
	sel, ok := parsed.(*sqlparse.SelectStmt)
	if !ok {
		return groupKey{}, false
	}
	ss := shapesOf(sel)
	if ss == nil || len(st.Args) < ss.minArgs || (ss.agg && m.cfg.DisableAggregates) {
		return groupKey{}, false
	}
	// The match conjunct is the first `col = const` whose constant is not
	// NULL; if that one cannot merge, no later one is tried.
	for _, site := range ss.eq {
		v := site.val.value(st.Args)
		if v == nil {
			continue
		}
		if class := scalarClass(v); class != 0 && site.sh != nil {
			*c = candidate{sh: site.sh, args: st.Args, matchVal: v}
			return site.sh.key(class, st.Args), true
		}
		break
	}
	return groupKey{}, false
}

// projectionAggregates reports whether any select expression contains an
// aggregate call (the aggregate-family gate; stars never do).
func projectionAggregates(sel *sqlparse.SelectStmt) bool {
	for _, se := range sel.Cols {
		if se.Star {
			continue
		}
		if sqlparse.HasAggregate(se.Expr) {
			return true
		}
	}
	return false
}

// plainProjection reports whether the select list is stars and bare column
// references only; anything computed changes meaning when rows from other
// keys join the set.
func plainProjection(sel *sqlparse.SelectStmt) bool {
	for _, se := range sel.Cols {
		if se.Star {
			if se.StarTable != "" && !strings.EqualFold(se.StarTable, sel.From.Binding()) {
				return false
			}
			continue
		}
		if _, ok := se.Expr.(*sqlparse.ColRef); !ok {
			return false
		}
	}
	return true
}

// aggregateProjection checks the aggregate family's select list — every
// expression one aggregate call (COUNT/SUM/AVG/MIN/MAX over `*` or a plain
// column) — and records the calls and their labels in sh. The match column
// need not be projected: the merged statement adds it as the leading GROUP
// BY key, and demux strips it again.
func aggregateProjection(sh *shape) bool {
	// An aggregate statement yields exactly one row whatever the key, so
	// ORDER BY is both pointless and a shape we refuse rather than reason
	// about across groups.
	if len(sh.sel.OrderBy) > 0 {
		return false
	}
	for _, se := range sh.sel.Cols {
		if se.Star {
			return false
		}
		fc, ok := se.Expr.(*sqlparse.FuncCall)
		if !ok || !fc.IsAggregate() {
			return false
		}
		if !fc.Star {
			if len(fc.Args) != 1 {
				return false
			}
			ref, ok := fc.Args[0].(*sqlparse.ColRef)
			if !ok || !ownColumn(ref, sh.sel.From.Binding()) {
				return false
			}
		}
		sh.aggs = append(sh.aggs, fc)
		sh.labels = append(sh.labels, aggregateLabel(se, fc))
	}
	return len(sh.aggs) > 0
}

// aggregateLabel reproduces the engine's output label for one aggregate
// select expression: the alias when present, else the function's own label
// (`COUNT(*)` for the star form, the bare name otherwise). Demux builds the
// per-key scalar row under these labels, so they must match what the
// original statement's own execution would have produced.
func aggregateLabel(se sqlparse.SelectExpr, fc *sqlparse.FuncCall) string {
	if se.Alias != "" {
		return se.Alias
	}
	if fc.Star {
		return fc.Name + "(*)"
	}
	return fc.Name
}

// zeroValue is the value an aggregate reports over an empty row set: zero
// for COUNT, NULL for everything else. Demux uses it to synthesize the row
// for keys that matched nothing — exactly what the original statement's own
// execution would have returned.
func zeroValue(fc *sqlparse.FuncCall) sqldb.Value {
	if fc.Name == "COUNT" {
		return int64(0)
	}
	return nil
}

// projectionCarries reports whether the select list outputs the match
// column itself under the label demux will look up: through a star, or as a
// bare unaliased reference. An alias that merely *spells* the match column's
// name over some other column is rejected outright, star or no star: demux
// resolves the label positionally, so a shadowing alias would partition
// rows by the wrong column's values.
func projectionCarries(cols []sqlparse.SelectExpr, name string) bool {
	found := false
	for _, se := range cols {
		if se.Star {
			found = true
			continue
		}
		if se.Alias != "" {
			if strings.EqualFold(se.Alias, name) {
				return false
			}
			continue
		}
		if ref, ok := se.Expr.(*sqlparse.ColRef); ok && strings.EqualFold(ref.Name, name) {
			found = true
		}
	}
	return found
}
