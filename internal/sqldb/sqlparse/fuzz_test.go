package sqlparse_test

import (
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/driver"
	"repro/internal/orm"
	"repro/internal/querystore"
	"repro/internal/sqldb/sqlparse"
)

// FuzzParse hardens the parser against arbitrary input and checks the
// parse → render → parse fixpoint on whatever survives. The seed corpus
// is every distinct SQL text the two applications' golden pages submit
// through the query store, so mutation starts from the exact statement
// shapes the reproduction executes.
//
// In CI the seeds run as plain unit tests on every `go test`; a separate
// short `-fuzz` budget explores mutations (see .github/workflows/ci.yml).
func FuzzParse(f *testing.F) {
	for _, sql := range goldenSQL(f) {
		f.Add(sql)
	}
	// A few hand-picked shapes in case the golden suite ever narrows.
	f.Add("SELECT fk, COUNT(*), SUM(val) FROM t WHERE fk IN (1, 2, 3) GROUP BY fk")
	f.Add("SELECT a.id FROM t AS a WHERE a.v BETWEEN 1 AND 9 ORDER BY a.id DESC")
	f.Add("SELECT a.id FROM t AS a WHERE a.v NOT BETWEEN 1 AND 9 OR a.v IS NULL")
	f.Add("INSERT INTO t (id, v) VALUES (1, 'x')")
	f.Add("UPDATE t SET v = 2 WHERE id = 1")
	// Index column lists: the two accepted widths and the rejected forms.
	f.Add("CREATE INDEX i ON t (a, b)")
	f.Add("CREATE INDEX i ON t (a,)")
	f.Add("CREATE INDEX i ON t (a, b, c)")
	f.Add("CREATE UNIQUE INDEX i ON t (a, b)")

	f.Fuzz(func(t *testing.T, input string) {
		st, err := sqlparse.Parse(input)
		if err != nil {
			return // rejecting garbage is correct; only panics are bugs
		}
		if ci, ok := st.(*sqlparse.CreateIndexStmt); ok {
			checkIndexRoundTrip(t, input, ci)
			return
		}
		sel, ok := st.(*sqlparse.SelectStmt)
		if !ok {
			return
		}
		out1, ok := renderSelect(sel)
		if !ok {
			return // renderer declares the shape unsupported: acceptable
		}
		st2, err := sqlparse.Parse(out1)
		if err != nil {
			t.Fatalf("rendered SQL does not re-parse\ninput:    %q\nrendered: %q\nerr: %v", input, out1, err)
		}
		sel2, ok := st2.(*sqlparse.SelectStmt)
		if !ok {
			t.Fatalf("rendered SELECT re-parsed as %T\ninput: %q\nrendered: %q", st2, input, out1)
		}
		out2, ok := renderSelect(sel2)
		if !ok {
			t.Fatalf("second render failed\ninput: %q\nrendered: %q", input, out1)
		}
		if out1 != out2 {
			t.Fatalf("render is not a fixpoint\ninput:  %q\nfirst:  %q\nsecond: %q", input, out1, out2)
		}
	})
}

// checkIndexRoundTrip renders an accepted CREATE INDEX and requires the
// text to parse back to the same statement, column list included.
func checkIndexRoundTrip(t *testing.T, input string, ci *sqlparse.CreateIndexStmt) {
	if n := len(ci.Cols); n < 1 || n > 2 || (ci.Unique && n != 1) {
		t.Fatalf("parser accepted an index the engine cannot build\ninput: %q\nparsed: %+v", input, ci)
	}
	r := &sqlparse.Renderer{}
	r.CreateIndex(ci)
	out, err := r.SQL()
	if err != nil {
		t.Fatalf("render failed\ninput: %q\nerr: %v", input, err)
	}
	st2, err := sqlparse.Parse(out)
	if err != nil {
		t.Fatalf("rendered SQL does not re-parse\ninput:    %q\nrendered: %q\nerr: %v", input, out, err)
	}
	if !reflect.DeepEqual(st2, ci) {
		t.Fatalf("CREATE INDEX did not round-trip\ninput:    %q\nrendered: %q\nparsed: %+v\nagain:  %+v", input, out, ci, st2)
	}
}

// goldenSQL replays both applications' pages once in Sloth mode and
// collects every distinct statement text submitted to the query store,
// in first-seen order.
func goldenSQL(f *testing.F) []string {
	f.Helper()
	seen := make(map[string]bool)
	var out []string
	cfg := querystore.Config{Record: func(stmts []driver.Stmt) {
		for _, st := range stmts {
			if !seen[st.SQL] {
				seen[st.SQL] = true
				out = append(out, st.SQL)
			}
		}
	}}
	for _, id := range []bench.AppID{bench.Itracker, bench.OpenMRS} {
		env, err := bench.NewEnv(id, 1, 1)
		if err != nil {
			f.Fatal(err)
		}
		for _, page := range env.Pages() {
			if _, _, err := env.LoadPageHTML(page, orm.ModeSloth, 0, cfg); err != nil {
				f.Fatalf("seed corpus: %s page %s: %v", env.ID, page, err)
			}
		}
	}
	return out
}

// renderSelect rebuilds a SELECT through the Renderer's fragment methods,
// the way the merge optimizer assembles merged statements.
func renderSelect(st *sqlparse.SelectStmt) (string, bool) {
	r := &sqlparse.Renderer{}
	r.WriteString("SELECT ")
	for i, se := range st.Cols {
		if i > 0 {
			r.WriteString(", ")
		}
		r.SelectExpr(se)
	}
	r.WriteString(" FROM ")
	r.TableRef(st.From)
	if st.Where != nil {
		r.WriteString(" WHERE ")
		r.Expr(st.Where)
	}
	r.GroupBy(st.GroupBy)
	r.OrderBy(st.OrderBy)
	sql, err := r.SQL()
	if err != nil {
		return "", false
	}
	return sql, true
}
