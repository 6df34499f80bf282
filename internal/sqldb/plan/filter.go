package plan

import (
	"strings"

	"repro/internal/sqldb"
	"repro/internal/sqldb/sqlparse"
)

// filter is a compiled WHERE clause, the one WHERE evaluator of SELECT
// (sink.add) and UPDATE/DELETE (TableAccess.Match): the clause's top-level
// AND-conjuncts in left-to-right order. A conjunct `col op const` (op a
// comparison, const a parameter or a literal, on either side) is an atom:
// bind resolves its constant and the compare kind once per execution, so a
// row costs one type switch and one native compare. Every other
// conjunct is a residual and keeps its Compile closure, and so does any
// atom past the first maxAtoms. No WHERE: no conjuncts, every row kept.
type filter struct {
	conj  []conjunct
	atoms int
}

// maxAtoms bounds a filter's atoms, so an execution binds them in fixed
// room on its own stack (sink.bound, Match's local): no scratch keeps an
// argument, and binding allocates nothing.
const maxAtoms = 3

// conjunct is one top-level AND operand: a residual closure or an atom.
type conjunct struct {
	fn    EvalFn      // residual: the conjunct's closure; nil for an atom
	pos   int         // atom: the column's row position
	param int         // atom: the constant's parameter index; -1 for a literal
	lit   sqldb.Value // atom: the literal
	mask  uint8       // atom: bit c+1 is set when op holds for col-vs-const order c
	flip  bool        // atom: the constant is the left operand
}

// opMasks is conjunct.mask per comparison operator (sqlparse numbers the
// six comparisons first).
var opMasks = [...]uint8{sqlparse.OpEq: 0b010, sqlparse.OpNe: 0b101, sqlparse.OpLt: 0b001,
	sqlparse.OpLe: 0b011, sqlparse.OpGt: 0b100, sqlparse.OpGe: 0b110}

// boundKind is how an atom compares a row's value with its constant in
// one execution.
type boundKind uint8

const (
	boundAny   boundKind = iota // sqldb.Compare
	boundInt                    // an int64: i, and f promoted for a FLOAT column
	boundFloat                  // a float64: f
	boundText                   // a string
	boundErr                    // the parameter is out of range: the first row reaching the atom fails
)

// binding is an atom's constant for one execution.
type binding struct {
	kind boundKind
	v    sqldb.Value // the constant (nil: NULL; the text, and every fallback), or boundErr's error
	i    int64
	f    float64
}

// bindings is one execution's room for its atoms' constants, in atom order.
type bindings [maxAtoms]binding

// compileFilter compiles where's conjuncts against env (nil: no clause).
func compileFilter(where sqlparse.Expr, env *Env) filter {
	var f filter
	for _, e := range conjuncts(where) {
		c, ok := conjunct{}, false
		if x, isBin := e.(*sqlparse.Binary); isBin && int(x.Op) < len(opMasks) && f.atoms < maxAtoms {
			if c, ok = atom(x.L, x.R, x.Op, env); !ok {
				c, ok = atom(x.R, x.L, mirror(x.Op), env) // const op col reads col mirror(op) const
				c.flip = true
			}
		}
		if ok {
			f.atoms++
		} else {
			c = conjunct{fn: Compile(e, env)}
		}
		f.conj = append(f.conj, c)
	}
	return f
}

// conjuncts flattens e's top-level ANDs, left to right, however the clause
// is parenthesized: under three-valued logic with left-to-right short
// circuiting, `a AND (b AND c)` and `(a AND b) AND c` are the same walk.
func conjuncts(e sqlparse.Expr) []sqlparse.Expr {
	if e == nil {
		return nil
	}
	if x, ok := e.(*sqlparse.Binary); ok && x.Op == sqlparse.OpAnd {
		return append(conjuncts(x.L), conjuncts(x.R)...)
	}
	return []sqlparse.Expr{e}
}

// atom compiles `colSide op valSide` when colSide is a resolvable column
// (an unresolvable one stays a residual, which fails on the first row it
// meets) and valSide a parameter or a literal.
func atom(colSide, valSide sqlparse.Expr, op sqlparse.BinOp, env *Env) (conjunct, bool) {
	ref, ok := colSide.(*sqlparse.ColRef)
	if !ok {
		return conjunct{}, false
	}
	c := conjunct{param: -1, mask: opMasks[op]}
	switch x := valSide.(type) {
	case *sqlparse.Param:
		c.param = x.Index
	case *sqlparse.Literal:
		c.lit = x.Value
	default:
		return conjunct{}, false
	}
	pos, err := env.resolve(ref)
	if err != nil {
		return conjunct{}, false
	}
	c.pos = pos
	return c, true
}

// bind resolves the atoms' constants for one execution into fresh room bs.
func (f *filter) bind(args []sqldb.Value, bs *bindings) {
	k := 0
	for i := range f.conj {
		if c := &f.conj[i]; c.fn == nil {
			c.bind(&bs[k], args)
			k++
		}
	}
}

func (c *conjunct) bind(b *binding, args []sqldb.Value) {
	v := c.lit
	if c.param >= 0 {
		if c.param >= len(args) {
			b.kind, b.v = boundErr, errParamRange(c.param, len(args))
			return
		}
		v = args[c.param]
	}
	b.v = v
	switch x := v.(type) {
	case int64:
		b.kind, b.i, b.f = boundInt, x, float64(x) // f: Compare's mixed arm, done once
	case float64:
		b.kind, b.f = boundFloat, x
	case string:
		b.kind = boundText
	}
}

// keep runs the conjuncts over one row with this execution's bindings bs,
// under the left-deep AND tree's three-valued logic: an error returns at
// once, a false conjunct rejects the row at once, and a NULL one only marks
// it, so a later conjunct's error still surfaces. The row is kept when no
// conjunct was NULL.
func (f *filter) keep(row, args []sqldb.Value, bs *bindings) (bool, error) {
	null, k := false, 0
	for i := range f.conj {
		c := &f.conj[i]
		if c.fn != nil {
			v, err := c.fn(row, args)
			switch {
			case err != nil:
				return false, err
			case v == nil:
				null = true
			case !sqldb.Truthy(v):
				return false, nil
			}
			continue
		}
		b := &bs[k]
		k++
		if b.kind == boundErr {
			return false, b.v.(error) // the constant fails even where the column is NULL
		}
		v := row[c.pos] // WHERE reads whole rows: stored, or joined to full width
		if v == nil || b.v == nil {
			null = true
			continue
		}
		o, err := b.compare(v, c.flip)
		if err != nil {
			return false, err
		}
		if c.mask>>(o+1)&1 == 0 {
			return false, nil
		}
	}
	return !null, nil
}

// compare orders the non-NULL row value v against the constant as
// sqldb.Compare(v, const) does. A flipped atom asks Compare(const, v), the
// operands' order in the statement, so a type mismatch reads as it always
// did; its order is the negation.
func (b *binding) compare(v sqldb.Value, flip bool) (int, error) {
	switch x := v.(type) {
	case int64: // an INT column
		if b.kind == boundInt {
			return sqldb.Order(x, b.i), nil
		}
	case float64: // a FLOAT column, against a float or a promoted int
		if b.kind == boundFloat || b.kind == boundInt {
			return sqldb.Order(x, b.f), nil
		}
	case string:
		if b.kind == boundText {
			return strings.Compare(x, b.v.(string)), nil
		}
	}
	if flip {
		o, err := sqldb.Compare(b.v, v)
		return -o, err
	}
	return sqldb.Compare(v, b.v)
}
