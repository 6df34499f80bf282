package sqlparse

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func mustSelect(t *testing.T, sql string) *SelectStmt {
	t.Helper()
	st, err := Parse(sql)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	sel, ok := st.(*SelectStmt)
	if !ok {
		t.Fatalf("Parse(%q) = %T, want *SelectStmt", sql, st)
	}
	return sel
}

func TestParseSelectStar(t *testing.T) {
	sel := mustSelect(t, "SELECT * FROM patients")
	if !sel.Cols[0].Star {
		t.Fatal("expected star column")
	}
	if sel.From.Name != "patients" {
		t.Fatalf("From = %q, want patients", sel.From.Name)
	}
	if sel.Limit != -1 {
		t.Fatalf("Limit = %d, want -1", sel.Limit)
	}
}

func TestParseSelectQualifiedStar(t *testing.T) {
	sel := mustSelect(t, "SELECT p.* FROM patients p")
	if !sel.Cols[0].Star || sel.Cols[0].StarTable != "p" {
		t.Fatalf("got %+v, want p.*", sel.Cols[0])
	}
	if sel.From.Binding() != "p" {
		t.Fatalf("binding = %q, want p", sel.From.Binding())
	}
}

func TestParseSelectColumnsAndAliases(t *testing.T) {
	sel := mustSelect(t, "SELECT name, p.age AS years FROM patients AS p")
	if len(sel.Cols) != 2 {
		t.Fatalf("got %d cols, want 2", len(sel.Cols))
	}
	c0 := sel.Cols[0].Expr.(*ColRef)
	if c0.Name != "name" || c0.Table != "" {
		t.Fatalf("col0 = %+v", c0)
	}
	c1 := sel.Cols[1].Expr.(*ColRef)
	if c1.Name != "age" || c1.Table != "p" || sel.Cols[1].Alias != "years" {
		t.Fatalf("col1 = %+v alias=%q", c1, sel.Cols[1].Alias)
	}
}

func TestParseWhereComparisons(t *testing.T) {
	ops := map[string]BinOp{
		"=": OpEq, "<>": OpNe, "!=": OpNe, "<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
	}
	for lit, op := range ops {
		sel := mustSelect(t, "SELECT * FROM t WHERE a "+lit+" 5")
		b := sel.Where.(*Binary)
		if b.Op != op {
			t.Errorf("op %q parsed as %v", lit, b.Op)
		}
	}
}

func TestParsePrecedenceAndOverOr(t *testing.T) {
	sel := mustSelect(t, "SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3")
	or := sel.Where.(*Binary)
	if or.Op != OpOr {
		t.Fatalf("top = %v, want OR", or.Op)
	}
	and := or.R.(*Binary)
	if and.Op != OpAnd {
		t.Fatalf("right = %v, want AND", and.Op)
	}
}

func TestParseArithmeticPrecedence(t *testing.T) {
	sel := mustSelect(t, "SELECT a + b * 2 FROM t")
	add := sel.Cols[0].Expr.(*Binary)
	if add.Op != OpAdd {
		t.Fatalf("top op = %v, want +", add.Op)
	}
	if mul := add.R.(*Binary); mul.Op != OpMul {
		t.Fatalf("right op = %v, want *", mul.Op)
	}
}

func TestParseParams(t *testing.T) {
	sel := mustSelect(t, "SELECT * FROM t WHERE a = ? AND b = ?")
	and := sel.Where.(*Binary)
	p0 := and.L.(*Binary).R.(*Param)
	p1 := and.R.(*Binary).R.(*Param)
	if p0.Index != 0 || p1.Index != 1 {
		t.Fatalf("param indexes = %d,%d, want 0,1", p0.Index, p1.Index)
	}
}

func TestParseInList(t *testing.T) {
	sel := mustSelect(t, "SELECT * FROM t WHERE id IN (1, 2, 3)")
	in := sel.Where.(*InList)
	if len(in.List) != 3 || in.Not {
		t.Fatalf("in = %+v", in)
	}
	sel = mustSelect(t, "SELECT * FROM t WHERE id NOT IN (?)")
	in = sel.Where.(*InList)
	if !in.Not {
		t.Fatal("expected NOT IN")
	}
}

func TestParseIsNull(t *testing.T) {
	sel := mustSelect(t, "SELECT * FROM t WHERE x IS NULL")
	if n := sel.Where.(*IsNullExpr); n.Not {
		t.Fatal("unexpected NOT")
	}
	sel = mustSelect(t, "SELECT * FROM t WHERE x IS NOT NULL")
	if n := sel.Where.(*IsNullExpr); !n.Not {
		t.Fatal("expected NOT")
	}
}

func TestParseLike(t *testing.T) {
	sel := mustSelect(t, "SELECT * FROM t WHERE name LIKE 'ab%'")
	l := sel.Where.(*LikeExpr)
	if l.Pattern.(*Literal).Value != "ab%" {
		t.Fatalf("pattern = %v", l.Pattern)
	}
	sel = mustSelect(t, "SELECT * FROM t WHERE name NOT LIKE 'x_'")
	if !sel.Where.(*LikeExpr).Not {
		t.Fatal("expected NOT LIKE")
	}
}

func TestParseBetween(t *testing.T) {
	sel := mustSelect(t, "SELECT * FROM t WHERE age BETWEEN 18 AND 65")
	b := sel.Where.(*BetweenExpr)
	if b.Lo.(*Literal).Value != int64(18) || b.Hi.(*Literal).Value != int64(65) {
		t.Fatalf("between = %+v", b)
	}
	if b.Not {
		t.Fatal("BETWEEN parsed as NOT BETWEEN")
	}
	sel = mustSelect(t, "SELECT * FROM t WHERE age NOT BETWEEN 18 AND 65")
	if b = sel.Where.(*BetweenExpr); !b.Not || b.Hi.(*Literal).Value != int64(65) {
		t.Fatalf("not between = %+v", b)
	}
}

func TestParseJoins(t *testing.T) {
	sel := mustSelect(t, `SELECT p.name, e.id FROM patients p
		JOIN encounters e ON e.patient_id = p.id
		LEFT JOIN visits v ON v.patient_id = p.id
		WHERE p.id = 1`)
	if len(sel.Joins) != 2 {
		t.Fatalf("joins = %d, want 2", len(sel.Joins))
	}
	if sel.Joins[0].Kind != JoinInner || sel.Joins[1].Kind != JoinLeft {
		t.Fatalf("join kinds = %v,%v", sel.Joins[0].Kind, sel.Joins[1].Kind)
	}
	if sel.Joins[1].Table.Binding() != "v" {
		t.Fatalf("join binding = %q", sel.Joins[1].Table.Binding())
	}
}

func TestParseGroupByHaving(t *testing.T) {
	sel := mustSelect(t, "SELECT dept, COUNT(*) FROM emp GROUP BY dept HAVING COUNT(*) > 3")
	if len(sel.GroupBy) != 1 || sel.GroupBy[0].Name != "dept" {
		t.Fatalf("group by = %+v", sel.GroupBy)
	}
	if sel.Having == nil {
		t.Fatal("missing HAVING")
	}
	fc := sel.Cols[1].Expr.(*FuncCall)
	if fc.Name != "COUNT" || !fc.Star || !fc.IsAggregate() {
		t.Fatalf("aggregate = %+v", fc)
	}
}

func TestParseAggregates(t *testing.T) {
	for _, name := range []string{"SUM", "AVG", "MIN", "MAX", "COUNT"} {
		sel := mustSelect(t, "SELECT "+name+"(x) FROM t")
		fc := sel.Cols[0].Expr.(*FuncCall)
		if fc.Name != name || len(fc.Args) != 1 {
			t.Fatalf("%s parsed as %+v", name, fc)
		}
	}
}

func TestParseOrderByLimitOffset(t *testing.T) {
	sel := mustSelect(t, "SELECT * FROM t ORDER BY a DESC, b LIMIT 10 OFFSET 5")
	if len(sel.OrderBy) != 2 || !sel.OrderBy[0].Desc || sel.OrderBy[1].Desc {
		t.Fatalf("order by = %+v", sel.OrderBy)
	}
	if sel.Limit != 10 || sel.Offset != 5 {
		t.Fatalf("limit/offset = %d/%d", sel.Limit, sel.Offset)
	}
}

func TestParseDistinct(t *testing.T) {
	sel := mustSelect(t, "SELECT DISTINCT city FROM t")
	if !sel.Distinct {
		t.Fatal("expected DISTINCT")
	}
}

func TestParseInsert(t *testing.T) {
	st, err := Parse("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')")
	if err != nil {
		t.Fatal(err)
	}
	ins := st.(*InsertStmt)
	if ins.Table != "t" || len(ins.Cols) != 2 || len(ins.Rows) != 2 {
		t.Fatalf("insert = %+v", ins)
	}
	if ins.Rows[1][1].(*Literal).Value != "y" {
		t.Fatalf("row value = %v", ins.Rows[1][1])
	}
}

func TestParseInsertNoColumnList(t *testing.T) {
	st, err := Parse("INSERT INTO t VALUES (1, 2)")
	if err != nil {
		t.Fatal(err)
	}
	if ins := st.(*InsertStmt); ins.Cols != nil {
		t.Fatalf("cols = %v, want nil", ins.Cols)
	}
}

func TestParseUpdate(t *testing.T) {
	st, err := Parse("UPDATE t SET a = a + 1, b = ? WHERE id = 3")
	if err != nil {
		t.Fatal(err)
	}
	up := st.(*UpdateStmt)
	if len(up.Sets) != 2 || up.Sets[0].Col != "a" || up.Where == nil {
		t.Fatalf("update = %+v", up)
	}
}

func TestParseDelete(t *testing.T) {
	st, err := Parse("DELETE FROM t WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	del := st.(*DeleteStmt)
	if del.Table != "t" || del.Where == nil {
		t.Fatalf("delete = %+v", del)
	}
}

func TestParseCreateTable(t *testing.T) {
	st, err := Parse("CREATE TABLE users (id INT PRIMARY KEY, name VARCHAR(50), score FLOAT, active BOOL)")
	if err != nil {
		t.Fatal(err)
	}
	ct := st.(*CreateTableStmt)
	if len(ct.Cols) != 4 || !ct.Cols[0].PrimaryKey {
		t.Fatalf("create table = %+v", ct)
	}
}

func TestParseCreateTableTrailingPrimaryKey(t *testing.T) {
	st, err := Parse("CREATE TABLE t (id INT, x TEXT, PRIMARY KEY (id))")
	if err != nil {
		t.Fatal(err)
	}
	ct := st.(*CreateTableStmt)
	if !ct.Cols[0].PrimaryKey {
		t.Fatal("trailing PRIMARY KEY not applied")
	}
}

func TestParseCreateIndex(t *testing.T) {
	st, err := Parse("CREATE INDEX idx_user ON users (name)")
	if err != nil {
		t.Fatal(err)
	}
	ci := st.(*CreateIndexStmt)
	if ci.Table != "users" || !reflect.DeepEqual(ci.Cols, []string{"name"}) || ci.Unique {
		t.Fatalf("create index = %+v", ci)
	}
	st, err = Parse("CREATE UNIQUE INDEX u ON t (c)")
	if err != nil {
		t.Fatal(err)
	}
	if !st.(*CreateIndexStmt).Unique {
		t.Fatal("expected unique index")
	}
	st, err = Parse("CREATE INDEX i ON t (a, b)")
	if err != nil {
		t.Fatal(err)
	}
	if ci = st.(*CreateIndexStmt); !reflect.DeepEqual(ci.Cols, []string{"a", "b"}) {
		t.Fatalf("create index = %+v", ci)
	}
	// The rejected forms are located: the error carries the position of
	// the token that starts the part the engine has no index for.
	for sql, want := range map[string]string{
		"CREATE INDEX i ON t (a, b, c)":     "sql: parse error at 25: index takes at most two columns, found \",\"",
		"CREATE UNIQUE INDEX i ON t (a, b)": "sql: parse error at 29: UNIQUE index takes one column, found \",\"",
		"CREATE INDEX i ON t (a,)":          "sql: parse error at 23: expected identifier, found \")\"",
	} {
		if _, err := Parse(sql); err == nil || err.Error() != want {
			t.Errorf("%s: error %v, want %s", sql, err, want)
		}
	}
}

// TestParseTransactions: the dialect has no transaction control. Each
// statement that would open, commit or abort one is a syntax error at its
// first byte, not a statement some layer must handle.
func TestParseTransactions(t *testing.T) {
	for _, sql := range []string{"BEGIN", "START TRANSACTION", "COMMIT", "ROLLBACK", "ABORT"} {
		st, err := Parse(sql)
		var pe *ParseError
		if !errors.As(err, &pe) || pe.Pos != 0 {
			t.Errorf("Parse(%q) = %T, %v; want a ParseError at offset 0", sql, st, err)
		}
	}
}

func TestIsWrite(t *testing.T) {
	if IsWrite(MustParse("SELECT * FROM t")) {
		t.Error("SELECT classified as write")
	}
	for _, sql := range []string{
		"INSERT INTO t VALUES (1)", "UPDATE t SET a = 1", "DELETE FROM t",
		"CREATE TABLE t (a INT)", "CREATE INDEX i ON t (a)",
	} {
		if !IsWrite(MustParse(sql)) {
			t.Errorf("%q not classified as write", sql)
		}
	}
}

func TestParseStringEscapes(t *testing.T) {
	sel := mustSelect(t, "SELECT * FROM t WHERE name = 'O''Brien'")
	lit := sel.Where.(*Binary).R.(*Literal)
	if lit.Value != "O'Brien" {
		t.Fatalf("string = %q", lit.Value)
	}
}

func TestParseComments(t *testing.T) {
	sel := mustSelect(t, "SELECT * -- trailing comment\nFROM t")
	if sel.From.Name != "t" {
		t.Fatal("comment broke parse")
	}
}

func TestParseNegativeNumbers(t *testing.T) {
	sel := mustSelect(t, "SELECT * FROM t WHERE a = -5")
	u := sel.Where.(*Binary).R.(*Unary)
	if !u.Neg || u.Expr.(*Literal).Value != int64(5) {
		t.Fatalf("negation = %+v", u)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT * FROM",
		"SELECT * FROM t WHERE",
		"FOO BAR",
		"INSERT INTO t",
		"SELECT * FROM t WHERE a = 'unterminated",
		"SELECT * FROM t LIMIT x",
		"CREATE TABLE t (id BOGUSTYPE)",
		"SELECT * FROM t; SELECT * FROM u",
		"SELECT * FROM t WHERE a @ 1",
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", sql)
		}
	}
}

func TestMustParsePanicsOnError(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse did not panic")
		}
	}()
	MustParse("NOT SQL AT ALL")
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%o", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h_lo", false},
		{"hello", "", false},
		{"", "%", true},
		{"abc", "a%c", true},
		{"abc", "a%%c", true},
		{"abc", "_%", true},
		{"abc", "____", false},
	}
	for _, c := range cases {
		if got := LikeMatch(c.s, c.p); got != c.want {
			t.Errorf("LikeMatch(%q, %q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
}

func TestCollectColRefs(t *testing.T) {
	sel := mustSelect(t, "SELECT * FROM t WHERE a = 1 AND (b IN (c, 2) OR d IS NULL) AND e LIKE 'x%' AND f BETWEEN g AND 9")
	refs := CollectColRefs(sel.Where, nil)
	var names []string
	for _, r := range refs {
		names = append(names, r.Name)
	}
	got := strings.Join(names, ",")
	want := "a,b,c,d,e,f,g"
	if got != want {
		t.Fatalf("refs = %s, want %s", got, want)
	}
}

// Property: any identifier-shaped string survives a lex round trip as a
// single identifier token.
func TestQuickLexIdentifiers(t *testing.T) {
	f := func(n uint8) bool {
		name := "col_" + strings.Repeat("x", int(n%20)+1)
		toks, err := lex(name)
		if err != nil {
			return false
		}
		return len(toks) == 2 && toks[0].kind == tokIdent && toks[0].text == name
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: QuoteString always produces a literal that lexes back to the
// original string.
func TestQuickQuoteStringRoundTrip(t *testing.T) {
	f := func(s string) bool {
		// Restrict to printable-ish strings without control characters that
		// the lexer legitimately rejects inside no token.
		if strings.ContainsAny(s, "\x00") {
			return true
		}
		toks, err := lex(QuoteString(s))
		if err != nil {
			return false
		}
		return len(toks) == 2 && toks[0].kind == tokString && toks[0].text == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
