package sqlparse

import (
	"slices"
	"strings"

	"repro/internal/sqldb"
)

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// SelectStmt is a SELECT query.
type SelectStmt struct {
	Distinct bool
	Cols     []SelectExpr
	From     TableRef
	Joins    []Join
	Where    Expr
	GroupBy  []ColRef
	Having   Expr
	OrderBy  []OrderItem
	Limit    int // -1 when absent
	Offset   int // 0 when absent
}

// SelectExpr is one output column of a SELECT: either a star (optionally
// table-qualified) or an expression with an optional alias.
type SelectExpr struct {
	Star      bool
	StarTable string // qualifier of t.* form, empty for bare *
	Expr      Expr
	Alias     string
}

// TableRef names a table with an optional alias.
type TableRef struct {
	Name  string
	Alias string
}

// Binding returns the name the table is referred to by in expressions.
func (t TableRef) Binding() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// JoinKind distinguishes inner and left outer joins.
type JoinKind int

const (
	// JoinInner keeps only matching row pairs.
	JoinInner JoinKind = iota
	// JoinLeft keeps unmatched left rows with NULLs on the right.
	JoinLeft
)

// Join is one JOIN clause.
type Join struct {
	Kind  JoinKind
	Table TableRef
	On    Expr
}

// OrderItem is one ORDER BY term.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// InsertStmt is an INSERT with one or more value rows.
type InsertStmt struct {
	Table string
	Cols  []string
	Rows  [][]Expr
}

// Assignment is one SET clause of an UPDATE.
type Assignment struct {
	Col  string
	Expr Expr
}

// UpdateStmt is an UPDATE statement.
type UpdateStmt struct {
	Table string
	Sets  []Assignment
	Where Expr
}

// DeleteStmt is a DELETE statement.
type DeleteStmt struct {
	Table string
	Where Expr
}

// ColumnDef is one column of a CREATE TABLE.
type ColumnDef struct {
	Name       string
	Type       sqldb.Type
	PrimaryKey bool
}

// CreateTableStmt is a CREATE TABLE statement.
type CreateTableStmt struct {
	Name string
	Cols []ColumnDef
}

// CreateIndexStmt is a CREATE INDEX statement. Cols holds one column — a
// hash index on it — or two: an index hashed on the first whose postings
// are ordered by the second. The parser accepts nothing longer, and no
// UNIQUE with two.
type CreateIndexStmt struct {
	Name   string
	Table  string
	Cols   []string
	Unique bool
}

func (*SelectStmt) stmt()      {}
func (*InsertStmt) stmt()      {}
func (*UpdateStmt) stmt()      {}
func (*DeleteStmt) stmt()      {}
func (*CreateTableStmt) stmt() {}
func (*CreateIndexStmt) stmt() {}

// IsWrite reports whether the statement can mutate database state: every
// statement but a SELECT. The query store uses this to decide when a pending
// batch must be flushed. Paper Sec. 3.3 names INSERT, UPDATE, ABORT and
// COMMIT; this dialect has no transaction control, so its rule is that every
// non-SELECT (INSERT, UPDATE, DELETE, DDL) forces the batch, in statement
// order.
func IsWrite(s Statement) bool {
	switch s.(type) {
	case *SelectStmt:
		return false
	default:
		return true
	}
}

// Expr is a SQL expression.
type Expr interface{ expr() }

// Literal is a constant value.
type Literal struct{ Value sqldb.Value }

// Param is a positional `?` placeholder, 0-based.
type Param struct{ Index int }

// ColRef references a column, optionally table-qualified.
type ColRef struct {
	Table string
	Name  string
}

// String renders the reference as it appeared in SQL.
func (c ColRef) String() string {
	if c.Table != "" {
		return c.Table + "." + c.Name
	}
	return c.Name
}

// BinOp enumerates binary operators.
type BinOp int

// Binary operators. Comparison operators return SQL booleans and respect
// NULL semantics; arithmetic promotes int to float when mixed.
const (
	OpEq BinOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	OpAdd
	OpSub
	OpMul
	OpDiv
)

var binOpNames = map[BinOp]string{
	OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "AND", OpOr: "OR", OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/",
}

// String returns the SQL spelling of the operator.
func (op BinOp) String() string { return binOpNames[op] }

// Binary applies a binary operator.
type Binary struct {
	Op   BinOp
	L, R Expr
}

// Unary is NOT or numeric negation.
type Unary struct {
	Neg  bool // true: -x, false: NOT x
	Expr Expr
}

// FuncCall is an aggregate or scalar function call. Star marks COUNT(*).
type FuncCall struct {
	Name string // upper-cased
	Star bool
	Args []Expr
}

// IsAggregate reports whether the call is one of the five aggregates.
func (f *FuncCall) IsAggregate() bool {
	switch f.Name {
	case "COUNT", "SUM", "AVG", "MIN", "MAX":
		return true
	}
	return false
}

// HasAggregate reports whether e contains an aggregate call outside any
// function's arguments — the test both the planner (does this SELECT
// aggregate?) and the merge optimizer (is this projection safe to widen?)
// must answer identically.
func HasAggregate(e Expr) bool {
	switch x := e.(type) {
	case *FuncCall:
		return x.IsAggregate()
	case *Binary:
		return HasAggregate(x.L) || HasAggregate(x.R)
	case *Unary:
		return HasAggregate(x.Expr)
	case *IsNullExpr:
		return HasAggregate(x.Expr)
	case *LikeExpr:
		return HasAggregate(x.Expr) || HasAggregate(x.Pattern)
	case *BetweenExpr:
		return HasAggregate(x.Expr) || HasAggregate(x.Lo) || HasAggregate(x.Hi)
	case *InList:
		return HasAggregate(x.Expr) || slices.ContainsFunc(x.List, HasAggregate)
	default:
		return false
	}
}

// InList is `expr [NOT] IN (e1, e2, ...)`.
type InList struct {
	Expr Expr
	Not  bool
	List []Expr
}

// IsNullExpr is `expr IS [NOT] NULL`.
type IsNullExpr struct {
	Expr Expr
	Not  bool
}

// LikeExpr is `expr [NOT] LIKE pattern` with % and _ wildcards.
type LikeExpr struct {
	Expr    Expr
	Not     bool
	Pattern Expr
}

// BetweenExpr is `expr BETWEEN lo AND hi`.
type BetweenExpr struct {
	Expr   Expr
	Lo, Hi Expr
}

func (*Literal) expr()     {}
func (*Param) expr()       {}
func (*ColRef) expr()      {}
func (*Binary) expr()      {}
func (*Unary) expr()       {}
func (*FuncCall) expr()    {}
func (*InList) expr()      {}
func (*IsNullExpr) expr()  {}
func (*LikeExpr) expr()    {}
func (*BetweenExpr) expr() {}

// LikeMatch implements SQL LIKE matching with % (any run) and _ (any one
// character). Matching is case-sensitive, like MySQL with a binary collation.
func LikeMatch(s, pattern string) bool {
	return likeMatch(s, pattern)
}

func likeMatch(s, p string) bool {
	// Dynamic programming over pattern/string positions, greedy on %.
	for len(p) > 0 {
		switch p[0] {
		case '%':
			// Collapse consecutive %.
			for len(p) > 0 && p[0] == '%' {
				p = p[1:]
			}
			if len(p) == 0 {
				return true
			}
			for i := 0; i <= len(s); i++ {
				if likeMatch(s[i:], p) {
					return true
				}
			}
			return false
		case '_':
			if len(s) == 0 {
				return false
			}
			s, p = s[1:], p[1:]
		default:
			if len(s) == 0 || s[0] != p[0] {
				return false
			}
			s, p = s[1:], p[1:]
		}
	}
	return len(s) == 0
}

// CollectColRefs appends every column reference in e to out and returns it.
// The planner uses this to resolve index opportunities.
func CollectColRefs(e Expr, out []*ColRef) []*ColRef {
	switch x := e.(type) {
	case nil:
		return out
	case *ColRef:
		return append(out, x)
	case *Binary:
		out = CollectColRefs(x.L, out)
		return CollectColRefs(x.R, out)
	case *Unary:
		return CollectColRefs(x.Expr, out)
	case *FuncCall:
		for _, a := range x.Args {
			out = CollectColRefs(a, out)
		}
		return out
	case *InList:
		out = CollectColRefs(x.Expr, out)
		for _, a := range x.List {
			out = CollectColRefs(a, out)
		}
		return out
	case *IsNullExpr:
		return CollectColRefs(x.Expr, out)
	case *LikeExpr:
		out = CollectColRefs(x.Expr, out)
		return CollectColRefs(x.Pattern, out)
	case *BetweenExpr:
		out = CollectColRefs(x.Expr, out)
		out = CollectColRefs(x.Lo, out)
		return CollectColRefs(x.Hi, out)
	default:
		return out
	}
}

// QuoteString escapes a string for embedding in SQL text.
func QuoteString(s string) string {
	return "'" + strings.ReplaceAll(s, "'", "''") + "'"
}

// ParseTypeName resolves a SQL type name to the engine's value type.
func ParseTypeName(s string) (sqldb.Type, error) { return sqldb.ParseType(s) }

// IsWriteSQL classifies raw SQL text as write or read without a full
// parse, by inspecting the leading keyword; malformed statements classify
// as writes. The query store does not use it: it classifies by IsWrite of
// the statement's parsed AST. It stays for the benchmark harness's
// per-statement span classes.
func IsWriteSQL(sql string) bool {
	i := 0
	for i < len(sql) {
		switch sql[i] {
		case ' ', '\t', '\n', '\r':
			i++
			continue
		case '-':
			if i+1 < len(sql) && sql[i+1] == '-' {
				for i < len(sql) && sql[i] != '\n' {
					i++
				}
				continue
			}
		}
		break
	}
	j := i
	for j < len(sql) && j-i < 8 {
		c := sql[j]
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z') {
			break
		}
		j++
	}
	word := strings.ToUpper(sql[i:j])
	return word != "SELECT"
}
