package plan

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/sqldb"
	"repro/internal/sqldb/sqlparse"
	"repro/internal/sqldb/storage"
)

// filterTable creates t(i INT, f FLOAT, s TEXT, b BOOL) in a new store and
// returns the store (locked) and an environment binding t.
func filterTable(t *testing.T) (*storage.Store, *Env) {
	t.Helper()
	store := storage.NewStore()
	store.Lock()
	t.Cleanup(store.Unlock)
	tbl, err := store.CreateTable("t", []storage.Column{
		{Name: "i", Type: sqldb.TypeInt},
		{Name: "f", Type: sqldb.TypeFloat},
		{Name: "s", Type: sqldb.TypeText},
		{Name: "b", Type: sqldb.TypeBool},
	})
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv()
	if _, err := env.AddFrame("t", tbl); err != nil {
		t.Fatal(err)
	}
	return store, env
}

// whereOf parses `SELECT * FROM t WHERE cond` and returns its WHERE clause.
func whereOf(t *testing.T, cond string) sqlparse.Expr {
	t.Helper()
	st, err := sqlparse.Parse("SELECT * FROM t WHERE " + cond)
	if err != nil {
		t.Fatalf("%s: %v", cond, err)
	}
	return st.(*sqlparse.SelectStmt).Where
}

// TestThreeValuedInAndBetween pins IN and BETWEEN under SQL's three-valued
// logic: an IN list that does not match but holds a NULL is NULL, so
// neither NOT IN nor NOT (… IN …) keeps the row; and x BETWEEN lo AND hi
// is x >= lo AND x <= hi, so a false half is false even when the other is
// NULL, and hi is not evaluated once the lower half is false.
func TestThreeValuedInAndBetween(t *testing.T) {
	_, env := filterTable(t)
	for _, tc := range []struct {
		cond string
		i    sqldb.Value // row t.i
		want sqldb.Value // or an error text
	}{
		{"i IN (1, NULL)", int64(2), nil},
		{"i IN (1, NULL)", int64(1), true},
		{"i IN (1, NULL)", nil, nil},
		{"i NOT IN (1, NULL)", int64(2), nil},
		{"i NOT IN (1, NULL)", int64(1), false},
		{"NOT (i IN (1, NULL))", int64(2), nil},
		{"i IN (1, 3)", int64(2), false},
		{"i NOT IN (1, 3)", int64(2), true},
		{"i IN (NULL)", int64(2), nil},
		{"i IN (1, 'x')", int64(1), true},
		{"i IN ('x', ?)", int64(1), "engine: parameter 0 out of range (0 args)"},

		{"5 BETWEEN NULL AND 3", nil, false},
		{"i BETWEEN NULL AND 3", int64(5), false},
		{"i BETWEEN NULL AND 3", int64(2), nil},
		{"i BETWEEN 1 AND NULL", int64(0), false},
		{"i BETWEEN 1 AND NULL", int64(2), nil},
		{"i BETWEEN 1 AND 3", int64(2), true},
		{"i BETWEEN 1 AND 3", int64(4), false},
		{"i BETWEEN 1 AND 3", nil, nil},
		{"i BETWEEN 1.5 AND 2.5", int64(2), true},
		{"i BETWEEN 3 AND ?", int64(2), false},
		{"i BETWEEN 3 AND ?", int64(4), "engine: parameter 0 out of range (0 args)"},
		{"i BETWEEN 3 AND 'x'", int64(2), false},
		{"i BETWEEN 3 AND 'x'", int64(4), "sqldb: cannot compare int64 with string"},
		{"i BETWEEN 'x' AND 3", int64(4), "sqldb: cannot compare int64 with string"},
		{"NOT (i BETWEEN NULL AND 3)", int64(5), true},
	} {
		fn := Compile(whereOf(t, tc.cond), env)
		got, err := fn([]sqldb.Value{tc.i, nil, nil, nil}, nil)
		if err != nil {
			got = err.Error()
		}
		if got != tc.want {
			t.Errorf("%s with i = %v: got %v, want %v", tc.cond, tc.i, got, tc.want)
		}
	}
}

// TestNotBetween pins x NOT BETWEEN lo AND hi as the three-valued negation
// of BETWEEN: against every mix of NULL and non-NULL operand and bounds it
// yields what NOT (x BETWEEN lo AND hi) yields, NULL staying NULL.
func TestNotBetween(t *testing.T) {
	_, env := filterTable(t)
	vals := []string{"NULL", "1", "2", "3"}
	want := map[string]sqldb.Value{}
	for _, lo := range vals {
		for _, hi := range vals {
			for _, i := range []sqldb.Value{nil, int64(0), int64(2), int64(4)} {
				row := []sqldb.Value{i, nil, nil, nil}
				bounds := lo + " AND " + hi
				got, err := Compile(whereOf(t, "i NOT BETWEEN "+bounds), env)(row, nil)
				if err != nil {
					t.Fatal(err)
				}
				neg, err := Compile(whereOf(t, "NOT (i BETWEEN "+bounds+")"), env)(row, nil)
				if err != nil {
					t.Fatal(err)
				}
				if got != neg {
					t.Errorf("i = %v NOT BETWEEN %s: got %v, NOT (BETWEEN) gives %v", i, bounds, got, neg)
				}
				want[fmt.Sprint(i, " ", bounds)] = got
			}
		}
	}
	// Spot checks that the comparison above is not vacuous.
	for k, v := range map[string]sqldb.Value{
		"2 1 AND 3":     false,
		"4 1 AND 3":     true,
		"0 1 AND NULL":  true,
		"2 1 AND NULL":  nil,
		"4 NULL AND 3":  true,
		"<nil> 1 AND 3": nil,
	} {
		if want[k] != v {
			t.Errorf("i BETWEEN: %s gives %v, want %v", k, want[k], v)
		}
	}
}

// filterGen draws WHERE conjunctions over t's four columns: atoms in both
// spellings against parameters and literals, mostly of the column's type,
// and residual conjuncts of every other shape, an unknown column among them.
type filterGen struct {
	r      *rand.Rand
	params []byte // per ? drawn so far: the column letter it meets, or 0
}

func (g *filterGen) pick(opts ...string) string { return opts[g.r.Intn(len(opts))] }

// constant draws a parameter or a literal, usually of col's type.
func (g *filterGen) constant(col string) string {
	kind := col[len(col)-1]
	if g.r.Intn(4) == 0 {
		kind = 0
	}
	if g.r.Intn(2) == 0 {
		g.params = append(g.params, kind)
		return "?"
	}
	switch kind {
	case 'i':
		return g.pick("1", "0", "-2", "3")
	case 'f':
		return g.pick("2.5", "0", "1", "-1.5")
	case 's':
		return g.pick("'a'", "'ab'", "''", "'b'")
	case 'b':
		return g.pick("TRUE", "FALSE")
	}
	return g.pick("1", "2.5", "'a'", "TRUE", "NULL")
}

func (g *filterGen) conjunct() string {
	col := g.pick("i", "f", "s", "b", "t.i", "t.f", "t.s")
	op := g.pick("=", "!=", "<>", "<", "<=", ">", ">=")
	switch k := g.r.Intn(20); {
	case k < 9:
		return col + " " + op + " " + g.constant(col)
	case k < 13:
		return g.constant(col) + " " + op + " " + col
	case k == 13:
		return "(" + col + " " + op + " " + g.constant(col) + " OR s = " + g.constant("s") + ")"
	case k == 14:
		return g.pick("s LIKE 'a%'", "s NOT LIKE 'b'", "i IN (1, 2, NULL)", "f NOT IN (2.5, 0)", "i BETWEEN -1 AND 2")
	case k == 15:
		return "i + " + g.constant("i") + " " + op + " " + g.constant("f")
	case k == 16:
		return g.pick("zz = 1", "? = zz", "t.zz > 1", "q.i = 1")
	case k == 17:
		return g.pick("NOT b", "b", "i", "i IS NULL", "s IS NOT NULL", "-f < 0")
	case k == 18:
		return g.pick("i = f", "f >= i", "s = b", "1 = 1", "1 < 0")
	default:
		return "(" + g.conjunct() + " AND " + g.conjunct() + ")"
	}
}

// value draws a value for a ? meeting the column kind (0: any column):
// usually of that column's type, else of any type, NaN and NULL included.
func (g *filterGen) value(kind byte) sqldb.Value {
	if kind == 0 || g.r.Intn(4) == 0 {
		kind = "ifsbn"[g.r.Intn(5)]
	}
	switch kind {
	case 'i':
		return int64(g.r.Intn(5) - 2)
	case 'f':
		return []float64{-1.5, 0, 1, 2.5, math.NaN()}[g.r.Intn(5)]
	case 's':
		return []string{"", "a", "ab", "b"}[g.r.Intn(4)]
	case 'b':
		return g.r.Intn(2) == 0
	}
	return nil
}

// row draws a row of t: mostly each column's own type or NULL, and now and
// then a value of another type, which the atoms' fallback must order as
// sqldb.Compare does.
func (g *filterGen) row() []sqldb.Value {
	row := make([]sqldb.Value, 4)
	for c := range row {
		if g.r.Intn(10) == 0 {
			row[c] = g.value(0)
			continue
		}
		if g.r.Intn(5) == 0 {
			continue
		}
		switch c {
		case 0:
			row[c] = int64(g.r.Intn(5) - 2)
		case 1:
			row[c] = []float64{-1.5, 0, 1, 2, 2.5, math.NaN()}[g.r.Intn(6)]
		case 2:
			row[c] = []string{"", "a", "ab", "b"}[g.r.Intn(4)]
		default:
			row[c] = g.r.Intn(2) == 0
		}
	}
	return row
}

// TestFilterMatchesCompile is the generated differential of the WHERE
// filter against its oracle, the closure tree plan.Compile builds for the
// same clause (the one that still evaluates ON and HAVING): over random
// conjunctions, argument lists of matching and mismatched types and of
// every length, and rows with NULLs, each row is kept or rejected alike
// and fails with the same error text.
func TestFilterMatchesCompile(t *testing.T) {
	_, env := filterTable(t)
	g := &filterGen{r: rand.New(rand.NewSource(50))}
	atoms, residuals, full, kept, rejected, failed := 0, 0, 0, 0, 0, 0
	for n := 0; n < 3000; n++ {
		g.params = g.params[:0]
		parts := make([]string, 1+g.r.Intn(6)) // past maxAtoms at times
		for i := range parts {
			parts[i] = g.conjunct()
		}
		cond := strings.Join(parts, " AND ")
		if len(parts) > 2 && g.r.Intn(3) == 0 {
			cond = parts[0] + " AND (" + strings.Join(parts[1:], " AND ") + ")"
		}
		where := whereOf(t, cond)
		oracle := Compile(where, env)
		f := compileFilter(where, env)
		if f.atoms == maxAtoms {
			full++
		}
		for _, c := range f.conj {
			if c.fn == nil {
				atoms++
			} else {
				residuals++
			}
		}
		// Usually one argument per ?, sometimes too few.
		nargs := len(g.params)
		if g.r.Intn(8) == 0 && nargs > 0 {
			nargs = g.r.Intn(nargs)
		}
		args := make([]sqldb.Value, nargs)
		for i := range args {
			args[i] = g.value(g.params[i])
		}
		var bs bindings
		f.bind(args, &bs)
		for r := 0; r < 12; r++ {
			row := g.row()
			v, werr := oracle(row, args)
			want := werr == nil && v != nil && sqldb.Truthy(v)
			got, err := f.keep(row, args, &bs)
			if fmt.Sprint(err) != fmt.Sprint(werr) || got != want {
				t.Fatalf("WHERE %s, args %v, row %v:\nfilter keeps %v, err %v\n  tree keeps %v, err %v", cond, args, row, got, err, want, werr)
			}
			switch {
			case err != nil:
				failed++
			case got:
				kept++
			default:
				rejected++
			}
		}
	}
	if atoms < residuals || full < 50 || failed*20 < kept+rejected || kept*8 < rejected {
		t.Fatalf("generator too tame: %d atoms, %d residuals, %d filters at maxAtoms; %d kept, %d rejected, %d failed", atoms, residuals, full, kept, rejected, failed)
	}
	t.Logf("%d atoms, %d residuals, %d filters at maxAtoms; rows: %d kept, %d rejected, %d failed", atoms, residuals, full, kept, rejected, failed)
}
