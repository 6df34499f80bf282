package plan

import (
	"fmt"
	"strings"

	"repro/internal/sqldb"
	"repro/internal/sqldb/sqlparse"
	"repro/internal/sqldb/storage"
)

// EvalFn is a compiled scalar expression: it evaluates against one combined
// row and the statement's positional arguments. Column references are
// resolved to row positions at compile time, so per-row evaluation performs
// no name lookups.
//
// Error note: compiled errors keep the engine's original "engine:" prefix —
// the plan layer produces exactly the errors the interpreted executor used
// to, and resolution failures stay deferred to evaluation time (a statement
// selecting an unknown column over zero rows still succeeds, as before).
type EvalFn func(row, args []sqldb.Value) (sqldb.Value, error)

// frame is one table binding contributing columns to the combined row.
type frame struct {
	binding string // alias or table name, lower-cased
	table   *storage.Table
	offset  int
}

// errFn compiles to a closure that fails with err on every evaluation —
// how data-dependent resolution errors stay deferred to row time.
func errFn(err error) EvalFn {
	return func(_, _ []sqldb.Value) (sqldb.Value, error) { return nil, err }
}

// errParamRange is the error of a ? with no argument.
func errParamRange(idx, n int) error {
	return fmt.Errorf("engine: parameter %d out of range (%d args)", idx, n)
}

// constFn compiles to a closure returning a fixed value.
func constFn(v sqldb.Value) EvalFn {
	return func(_, _ []sqldb.Value) (sqldb.Value, error) { return v, nil }
}

// Compile builds the evaluation closure for e against env. Compilation
// itself never fails: unresolvable references yield closures that report
// the resolution error when (and only when) a row is actually evaluated.
func Compile(e sqlparse.Expr, env *Env) EvalFn {
	switch x := e.(type) {
	case *sqlparse.Literal:
		return constFn(x.Value)
	case *sqlparse.Param:
		idx := x.Index
		return func(_, args []sqldb.Value) (sqldb.Value, error) {
			if idx < 0 || idx >= len(args) {
				return nil, errParamRange(idx, len(args))
			}
			return args[idx], nil
		}
	case *sqlparse.ColRef:
		pos, err := env.resolve(x)
		if err != nil {
			return errFn(err)
		}
		return func(row, _ []sqldb.Value) (sqldb.Value, error) {
			if pos >= len(row) {
				return nil, nil // right side of a left join miss
			}
			return row[pos], nil
		}
	case *sqlparse.Unary:
		inner := Compile(x.Expr, env)
		if x.Neg {
			return func(row, args []sqldb.Value) (sqldb.Value, error) {
				v, err := inner(row, args)
				if err != nil {
					return nil, err
				}
				switch n := v.(type) {
				case int64:
					return -n, nil
				case float64:
					return -n, nil
				case nil:
					return nil, nil
				default:
					return nil, fmt.Errorf("engine: cannot negate %T", v)
				}
			}
		}
		return func(row, args []sqldb.Value) (sqldb.Value, error) {
			v, err := inner(row, args)
			if err != nil {
				return nil, err
			}
			if v == nil {
				return nil, nil
			}
			return !sqldb.Truthy(v), nil
		}
	case *sqlparse.Binary:
		return compileBinary(x, env)
	case *sqlparse.InList:
		exprFn := Compile(x.Expr, env)
		members := make([]EvalFn, len(x.List))
		for i, m := range x.List {
			members[i] = Compile(m, env)
		}
		not := x.Not
		// Three-valued: no match and a NULL member is NULL, so NOT IN over
		// a list holding NULL keeps no row.
		return func(row, args []sqldb.Value) (sqldb.Value, error) {
			v, err := exprFn(row, args)
			if err != nil {
				return nil, err
			}
			if v == nil {
				return nil, nil
			}
			res := sqldb.Value(not)
			for _, m := range members {
				iv, err := m(row, args)
				if err != nil {
					return nil, err
				}
				if iv == nil {
					res = nil
				} else if sqldb.Equal(v, iv) {
					return !not, nil
				}
			}
			return res, nil
		}
	case *sqlparse.IsNullExpr:
		inner := Compile(x.Expr, env)
		not := x.Not
		return func(row, args []sqldb.Value) (sqldb.Value, error) {
			v, err := inner(row, args)
			if err != nil {
				return nil, err
			}
			return (v == nil) != not, nil
		}
	case *sqlparse.LikeExpr:
		inner := Compile(x.Expr, env)
		pattern := Compile(x.Pattern, env)
		not := x.Not
		return func(row, args []sqldb.Value) (sqldb.Value, error) {
			v, err := inner(row, args)
			if err != nil {
				return nil, err
			}
			p, err := pattern(row, args)
			if err != nil {
				return nil, err
			}
			if v == nil || p == nil {
				return nil, nil
			}
			s, ok1 := v.(string)
			pat, ok2 := p.(string)
			if !ok1 || !ok2 {
				return nil, fmt.Errorf("engine: LIKE requires strings, got %T LIKE %T", v, p)
			}
			return sqlparse.LikeMatch(s, pat) != not, nil
		}
	case *sqlparse.BetweenExpr:
		// x BETWEEN lo AND hi is x >= lo AND x <= hi: the same three-valued
		// logic, short circuit and error order (x is pure, and an aggregate
		// call keeps its one slot however often it is compiled). NOT BETWEEN
		// is its three-valued negation: NULL stays NULL.
		between := &sqlparse.Binary{Op: sqlparse.OpAnd,
			L: &sqlparse.Binary{Op: sqlparse.OpGe, L: x.Expr, R: x.Lo},
			R: &sqlparse.Binary{Op: sqlparse.OpLe, L: x.Expr, R: x.Hi}}
		if x.Not {
			return Compile(&sqlparse.Unary{Expr: between}, env)
		}
		return compileBinary(between, env)
	case *sqlparse.FuncCall:
		if env.aggs != nil && x.IsAggregate() {
			pos := env.aggs.pos(x)
			return func(row, _ []sqldb.Value) (sqldb.Value, error) { return row[pos], nil }
		}
		return errFn(fmt.Errorf("engine: aggregate %s used outside aggregation context", x.Name))
	default:
		return errFn(fmt.Errorf("engine: unsupported expression %T", e))
	}
}

func compileBinary(x *sqlparse.Binary, env *Env) EvalFn {
	l := Compile(x.L, env)
	r := Compile(x.R, env)
	switch x.Op {
	case sqlparse.OpAnd:
		// AND/OR get three-valued-logic-lite treatment with short
		// circuiting, exactly as the interpreter did.
		return func(row, args []sqldb.Value) (sqldb.Value, error) {
			lv, err := l(row, args)
			if err != nil {
				return nil, err
			}
			if lv != nil && !sqldb.Truthy(lv) {
				return false, nil
			}
			rv, err := r(row, args)
			if err != nil {
				return nil, err
			}
			if rv != nil && !sqldb.Truthy(rv) {
				return false, nil
			}
			if lv == nil || rv == nil {
				return nil, nil
			}
			return true, nil
		}
	case sqlparse.OpOr:
		return func(row, args []sqldb.Value) (sqldb.Value, error) {
			lv, err := l(row, args)
			if err != nil {
				return nil, err
			}
			if lv != nil && sqldb.Truthy(lv) {
				return true, nil
			}
			rv, err := r(row, args)
			if err != nil {
				return nil, err
			}
			if rv != nil && sqldb.Truthy(rv) {
				return true, nil
			}
			if lv == nil || rv == nil {
				return nil, nil
			}
			return false, nil
		}
	}
	op := x.Op
	return func(row, args []sqldb.Value) (sqldb.Value, error) {
		lv, err := l(row, args)
		if err != nil {
			return nil, err
		}
		rv, err := r(row, args)
		if err != nil {
			return nil, err
		}
		return applyBinary(op, lv, rv)
	}
}

// applyBinary applies a non-logical binary operator to evaluated operands
// (NULL propagates).
func applyBinary(op sqlparse.BinOp, l, r sqldb.Value) (sqldb.Value, error) {
	if l == nil || r == nil {
		return nil, nil // NULL propagates through comparisons and arithmetic
	}
	switch op {
	case sqlparse.OpEq, sqlparse.OpNe, sqlparse.OpLt, sqlparse.OpLe, sqlparse.OpGt, sqlparse.OpGe:
		cv, err := sqldb.Compare(l, r)
		if err != nil {
			return nil, err
		}
		switch op {
		case sqlparse.OpEq:
			return cv == 0, nil
		case sqlparse.OpNe:
			return cv != 0, nil
		case sqlparse.OpLt:
			return cv < 0, nil
		case sqlparse.OpLe:
			return cv <= 0, nil
		case sqlparse.OpGt:
			return cv > 0, nil
		default:
			return cv >= 0, nil
		}
	case sqlparse.OpAdd, sqlparse.OpSub, sqlparse.OpMul, sqlparse.OpDiv:
		return arith(op, l, r)
	default:
		return nil, fmt.Errorf("engine: unsupported operator %v", op)
	}
}

func arith(op sqlparse.BinOp, l, r sqldb.Value) (sqldb.Value, error) {
	// String concatenation via +.
	if op == sqlparse.OpAdd {
		if ls, ok := l.(string); ok {
			if rs, ok := r.(string); ok {
				return ls + rs, nil
			}
		}
	}
	li, lIsInt := l.(int64)
	ri, rIsInt := r.(int64)
	if lIsInt && rIsInt {
		switch op {
		case sqlparse.OpAdd:
			return li + ri, nil
		case sqlparse.OpSub:
			return li - ri, nil
		case sqlparse.OpMul:
			return li * ri, nil
		case sqlparse.OpDiv:
			if ri == 0 {
				return nil, nil // SQL: division by zero yields NULL (MySQL)
			}
			return li / ri, nil
		}
	}
	lf, err := toFloat(l)
	if err != nil {
		return nil, err
	}
	rf, err := toFloat(r)
	if err != nil {
		return nil, err
	}
	switch op {
	case sqlparse.OpAdd:
		return lf + rf, nil
	case sqlparse.OpSub:
		return lf - rf, nil
	case sqlparse.OpMul:
		return lf * rf, nil
	case sqlparse.OpDiv:
		if rf == 0 {
			return nil, nil
		}
		return lf / rf, nil
	}
	return nil, fmt.Errorf("engine: bad arithmetic operator %v", op)
}

func toFloat(v sqldb.Value) (float64, error) {
	switch x := v.(type) {
	case int64:
		return float64(x), nil
	case float64:
		return x, nil
	default:
		return 0, fmt.Errorf("engine: %T is not numeric", v)
	}
}

// Env is the compile-time row environment: the table bindings contributing
// columns to the combined row, in frame order.
type Env struct {
	frames []frame
	width  int
	aggs   *aggSlots // a group-row environment's aggregate slots; nil for a source row
}

// NewEnv creates an empty environment (INSERT value lists and access-path
// constants compile against it: no columns are resolvable).
func NewEnv() *Env { return &Env{} }

// AddFrame appends a table binding and returns its column offset.
func (e *Env) AddFrame(binding string, t *storage.Table) (int, error) {
	b := strings.ToLower(binding)
	for _, f := range e.frames {
		if f.binding == b {
			return 0, fmt.Errorf("engine: duplicate table binding %q", binding)
		}
	}
	off := e.width
	e.frames = append(e.frames, frame{binding: b, table: t, offset: off})
	e.width += len(t.Columns)
	return off, nil
}

// resolve maps a column reference to its combined-row position.
func (e *Env) resolve(ref *sqlparse.ColRef) (int, error) {
	if ref.Table != "" {
		b := strings.ToLower(ref.Table)
		for _, f := range e.frames {
			if f.binding == b {
				if i, ok := f.table.ColOrdinal(ref.Name); ok {
					return f.offset + i, nil
				}
				return 0, fmt.Errorf("engine: no column %q in %q", ref.Name, ref.Table)
			}
		}
		return 0, fmt.Errorf("engine: unknown table %q", ref.Table)
	}
	found := -1
	for _, f := range e.frames {
		if i, ok := f.table.ColOrdinal(ref.Name); ok {
			if found != -1 {
				return 0, fmt.Errorf("engine: ambiguous column %q", ref.Name)
			}
			found = f.offset + i
		}
	}
	if found == -1 {
		return 0, fmt.Errorf("engine: unknown column %q", ref.Name)
	}
	return found, nil
}
