package sqlparse

import (
	"fmt"
	"strings"

	"repro/internal/sqldb"
)

// Renderer writes expression trees and SELECT-statement fragments back to
// SQL text that Parse accepts. It exists for rewrite passes (the batch
// query-merge optimizer of internal/merge) that build new statements out of
// parsed pieces of old ones: projections — including aggregate calls —
// WHERE conjuncts, GROUP BY keys, and ORDER BY terms all round-trip.
//
// Constant rendering is delegated: Value receives every Literal value and
// Param receives every `?` placeholder index, so one caller can emit
// executable SQL (render constants as fresh placeholders and rebuild the
// argument list) while another canonicalizes for grouping (render every
// constant as a hole and collect it, so `id = 3` and `id = ?` come out
// as one template). When the hooks are nil, Literals render with sqldb.Format and
// Params render as `?`.
type Renderer struct {
	sb strings.Builder
	// Value renders a Literal's constant. nil: sqldb.Format.
	Value func(r *Renderer, v sqldb.Value)
	// Param renders a positional placeholder. nil: literal `?`.
	Param func(r *Renderer, idx int)
	err   error
}

// WriteString appends raw SQL text.
func (r *Renderer) WriteString(s string) { r.sb.WriteString(s) }

// Fail records the first rendering error; SQL() reports it.
func (r *Renderer) Fail(format string, a ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("sqlparse: render: "+format, a...)
	}
}

// SQL returns the accumulated text, or the first error encountered.
func (r *Renderer) SQL() (string, error) {
	if r.err != nil {
		return "", r.err
	}
	return r.sb.String(), nil
}

func (r *Renderer) value(v sqldb.Value) {
	if r.Value != nil {
		r.Value(r, v)
		return
	}
	// Default rendering must re-parse: SQL string quoting, not Go's.
	if s, ok := v.(string); ok {
		r.WriteString(QuoteString(s))
		return
	}
	r.WriteString(sqldb.Format(v))
}

func (r *Renderer) param(idx int) {
	if r.Param != nil {
		r.Param(r, idx)
		return
	}
	r.WriteString("?")
}

// Expr renders an expression tree. Binary and unary operators are fully
// parenthesized, so operator precedence never needs reconstructing.
func (r *Renderer) Expr(e Expr) {
	switch x := e.(type) {
	case *Literal:
		r.value(x.Value)
	case *Param:
		r.param(x.Index)
	case *ColRef:
		r.WriteString(x.String())
	case *Binary:
		r.WriteString("(")
		r.Expr(x.L)
		r.WriteString(" " + x.Op.String() + " ")
		r.Expr(x.R)
		r.WriteString(")")
	case *Unary:
		if x.Neg {
			r.WriteString("(-")
		} else {
			r.WriteString("(NOT ")
		}
		r.Expr(x.Expr)
		r.WriteString(")")
	case *FuncCall:
		r.WriteString(x.Name + "(")
		if x.Star {
			r.WriteString("*")
		}
		for i, a := range x.Args {
			if i > 0 {
				r.WriteString(", ")
			}
			r.Expr(a)
		}
		r.WriteString(")")
	case *InList:
		r.Expr(x.Expr)
		if x.Not {
			r.WriteString(" NOT")
		}
		r.WriteString(" IN (")
		for i, a := range x.List {
			if i > 0 {
				r.WriteString(", ")
			}
			r.Expr(a)
		}
		r.WriteString(")")
	case *IsNullExpr:
		r.Expr(x.Expr)
		if x.Not {
			r.WriteString(" IS NOT NULL")
		} else {
			r.WriteString(" IS NULL")
		}
	case *LikeExpr:
		r.Expr(x.Expr)
		if x.Not {
			r.WriteString(" NOT")
		}
		r.WriteString(" LIKE ")
		r.Expr(x.Pattern)
	case *BetweenExpr:
		r.Expr(x.Expr)
		if x.Not {
			r.WriteString(" NOT")
		}
		r.WriteString(" BETWEEN ")
		r.Expr(x.Lo)
		r.WriteString(" AND ")
		r.Expr(x.Hi)
	default:
		r.Fail("unsupported expression %T", e)
	}
}

// SelectExpr renders one output column: a (possibly qualified) star, or an
// expression — aggregate calls included — with its alias.
func (r *Renderer) SelectExpr(se SelectExpr) {
	switch {
	case se.Star && se.StarTable == "":
		r.WriteString("*")
	case se.Star:
		r.WriteString(se.StarTable + ".*")
	default:
		r.Expr(se.Expr)
		if se.Alias != "" {
			r.WriteString(" AS " + se.Alias)
		}
	}
}

// TableRef renders a FROM-clause table with its alias.
func (r *Renderer) TableRef(t TableRef) {
	r.WriteString(t.Name)
	if t.Alias != "" {
		r.WriteString(" AS " + t.Alias)
	}
}

// GroupBy renders a ` GROUP BY ...` clause; a no-op for an empty key list.
func (r *Renderer) GroupBy(cols []ColRef) {
	if len(cols) == 0 {
		return
	}
	r.WriteString(" GROUP BY ")
	for i := range cols {
		if i > 0 {
			r.WriteString(", ")
		}
		r.WriteString(cols[i].String())
	}
}

// OrderBy renders an ` ORDER BY ...` clause; a no-op for an empty item list.
func (r *Renderer) OrderBy(items []OrderItem) {
	if len(items) == 0 {
		return
	}
	r.WriteString(" ORDER BY ")
	for i, ob := range items {
		if i > 0 {
			r.WriteString(", ")
		}
		r.Expr(ob.Expr)
		if ob.Desc {
			r.WriteString(" DESC")
		}
	}
}

// CreateIndex renders a CREATE INDEX statement, column list included.
func (r *Renderer) CreateIndex(st *CreateIndexStmt) {
	r.WriteString("CREATE ")
	if st.Unique {
		r.WriteString("UNIQUE ")
	}
	r.WriteString("INDEX " + st.Name + " ON " + st.Table + " (" + strings.Join(st.Cols, ", ") + ")")
}
