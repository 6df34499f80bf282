package querystore

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/sqldb"
)

// typedRows renders a result set with every value's dynamic type, so int64
// 5 and "5" (and NULL and "~") read differently.
func typedRows(rs *sqldb.ResultSet) string {
	var out string
	for _, row := range rs.Rows {
		for _, v := range row {
			if f, ok := v.(float64); ok {
				out += fmt.Sprintf("float64 %#x|", math.Float64bits(f))
				continue
			}
			out += fmt.Sprintf("%T %v|", v, v)
		}
		out += "\n"
	}
	return out
}

// TestDedupKeepsArgumentTypesApart: arguments that a rendered key spelled
// alike are different queries — each registration gets its own id and its
// own rows — while the integer spellings Normalize unifies still share one.
func TestDedupKeepsArgumentTypesApart(t *testing.T) {
	s, _ := rig(t, Config{})
	if _, err := s.Exec("INSERT INTO items (id, name, qty) VALUES (4, '~', 0)"); err != nil {
		t.Fatal(err)
	}
	s.ResetStats()

	byName := "SELECT id FROM items WHERE name = ?"
	echo := "SELECT ? AS v FROM items WHERE id = 1"
	cases := []struct {
		sql  string
		args []sqldb.Value
		want string
	}{
		{byName, []sqldb.Value{"~"}, "int64 4|\n"},
		{byName, []sqldb.Value{nil}, ""},
		{echo, []sqldb.Value{int64(5)}, "int64 5|\n"},
		{echo, []sqldb.Value{"5"}, "string 5|\n"},
		{echo, []sqldb.Value{true}, "bool true|\n"},
		{echo, []sqldb.Value{"T"}, "string T|\n"},
		{echo, []sqldb.Value{1.0}, "float64 0x3ff0000000000000|\n"},
		{echo, []sqldb.Value{int64(1)}, "int64 1|\n"},
		{echo, []sqldb.Value{"a\x1fb"}, "string a\x1fb|\n"},
		{echo, []sqldb.Value{"a", "b"}, "string a|\n"},
	}
	ids := make([]QueryID, len(cases))
	seen := map[QueryID]int{}
	for i, c := range cases {
		id, err := s.Register(c.sql, c.args...)
		if err != nil {
			t.Fatal(err)
		}
		if j, dup := seen[id]; dup {
			t.Fatalf("case %d %v shares id %d with case %d %v", i, c.args, id, j, cases[j].args)
		}
		seen[id], ids[i] = i, id
	}
	if hits := s.Stats().DedupHits; hits != 0 {
		t.Fatalf("DedupHits = %d, want 0", hits)
	}
	for _, spelling := range []sqldb.Value{int(5), int32(5), int64(5)} {
		id, err := s.Register(echo, spelling)
		if err != nil || id != ids[2] {
			t.Fatalf("%T spelling of 5 got id %d (%v), want %d", spelling, id, err, ids[2])
		}
	}
	for i, c := range cases {
		rs, err := s.ResultSet(ids[i])
		if err != nil {
			t.Fatalf("case %d %v: %v", i, c.args, err)
		}
		if got := typedRows(rs); got != c.want {
			t.Errorf("case %d %v: rows %q, want %q", i, c.args, got, c.want)
		}
	}
}

// dedupArgs is the pool the property test draws arguments from.
var dedupArgs = []sqldb.Value{
	int(5), int32(5), int64(5), int64(1), int(0),
	float32(1), float64(1), 2.5, math.NaN(), math.Copysign(0, -1), 0.0,
	"5", "~", "T", "1", "a\x1fb", "a",
	true, false, nil,
}

var dedupSQL = []struct {
	text string
	args int
}{
	{"SELECT ? AS v FROM items WHERE id = 1", 1},
	{"SELECT ? AS v, name FROM items WHERE id = 2", 1},
	{"SELECT ? AS v, ? AS w FROM items WHERE id = 3", 2},
	{"SELECT name FROM items WHERE id = 1", 0},
}

// sameQuery is the dedup rule written out the slow way, independently of
// driver.Stmt.Equal: same text and, position by position, the same type
// after Normalize with the same value (floats by bit pattern).
func sameQuery(sqlA string, a []sqldb.Value, sqlB string, b []sqldb.Value) bool {
	if sqlA != sqlB || len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := sqldb.Normalize(a[i]), sqldb.Normalize(b[i])
		xf, xIsF := x.(float64)
		yf, yIsF := y.(float64)
		switch {
		case xIsF != yIsF:
			return false
		case xIsF:
			if math.Float64bits(xf) != math.Float64bits(yf) {
				return false
			}
		case fmt.Sprintf("%T", x) != fmt.Sprintf("%T", y) || x != y:
			return false
		}
	}
	return true
}

// TestDedupMatchesTypedEqualityOracle: over random batches, two
// registrations share an id exactly when the quadratic oracle says they are
// the same query, and every id's rows are what the same batch returns with
// dedup switched off.
func TestDedupMatchesTypedEqualityOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dedup, _ := rig(t, Config{})
	plain, _ := rig(t, Config{DisableDedup: true})
	type reg struct {
		sql  string
		args []sqldb.Value
	}
	for batch := 0; batch < 300; batch++ {
		regs := make([]reg, 1+rng.Intn(40))
		ids := make([]QueryID, len(regs))
		plainIDs := make([]QueryID, len(regs))
		for i := range regs {
			q := dedupSQL[rng.Intn(len(dedupSQL))]
			r := reg{sql: q.text}
			for k := 0; k < q.args; k++ {
				r.args = append(r.args, dedupArgs[rng.Intn(len(dedupArgs))])
			}
			regs[i] = r
			var err error
			if ids[i], err = dedup.Register(r.sql, r.args...); err != nil {
				t.Fatal(err)
			}
			if plainIDs[i], err = plain.Register(r.sql, r.args...); err != nil {
				t.Fatal(err)
			}
			for j := 0; j < i; j++ {
				same := sameQuery(regs[j].sql, regs[j].args, r.sql, r.args)
				if (ids[j] == ids[i]) != same {
					t.Fatalf("batch %d: %v / %v share an id: %v, oracle says same query: %v",
						batch, regs[j], r, ids[j] == ids[i], same)
				}
			}
		}
		for i := range regs {
			got, err := dedup.ResultSet(ids[i])
			if err != nil {
				t.Fatal(err)
			}
			want, err := plain.ResultSet(plainIDs[i])
			if err != nil {
				t.Fatal(err)
			}
			if typedRows(got) != typedRows(want) {
				t.Fatalf("batch %d %v: dedup rows %q, undeduplicated %q", batch, regs[i], typedRows(got), typedRows(want))
			}
		}
		dedup.EndRequest()
		plain.EndRequest()
	}
	if dedup.Stats().DedupHits == 0 {
		t.Fatal("the generator never produced a duplicate")
	}
}

// TestRegisterAllocationBudget: registering a read that is already pending
// costs the variadic argument slice and nothing else, and a fresh store
// holds no maps until something needs one.
func TestRegisterAllocationBudget(t *testing.T) {
	s, _ := rig(t, Config{})
	const q = "SELECT name FROM items WHERE id = ? AND qty > ?"
	if _, err := s.Register(q, int64(2), int64(1)); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := s.Register(q, int64(2), int64(1)); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Fatalf("Register of a pending statement allocates %v times, budget 1", n)
	}
	fresh, _ := rig(t, Config{})
	if fresh.errs != nil || fresh.fireAndForget != nil {
		t.Fatal("a fresh store already holds maps")
	}
}

// TestSteadyStateRequestsAllocateNoRetentionStorage: on a long-lived store
// the boundary itself is free, and a later request allocates exactly what
// the second one did — the result slots, dedup table and queue are reused,
// none is regrown.
func TestSteadyStateRequestsAllocateNoRetentionStorage(t *testing.T) {
	s, _ := rig(t, Config{})
	request := func() {
		var ids [3]QueryID
		for k := range ids {
			ids[k], _ = s.Register("SELECT name FROM items WHERE id = ?", int64(k+1))
		}
		for _, id := range ids {
			if _, err := s.ResultSet(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	request()
	s.EndRequest()
	if n := testing.AllocsPerRun(100, s.EndRequest); n != 0 {
		t.Fatalf("EndRequest allocates %v times", n)
	}
	slots, table := cap(s.results), cap(s.queue)
	for i := 0; i < 100; i++ {
		request()
		s.EndRequest()
	}
	if cap(s.results) != slots || cap(s.queue) != table {
		t.Fatalf("retention storage regrown across requests: results %d -> %d, queue %d -> %d",
			slots, cap(s.results), table, cap(s.queue))
	}
}
