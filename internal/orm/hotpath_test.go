package orm

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/sqldb"
)

// boxed holds a lazy as a model map or []any holds it.
var boxed any

// TestLazyAllocationBudget: in Sloth mode a lazy load costs its argument
// slice, one closure and one cell holding the thunk — the SQL text is
// cached, the read is a value, and nothing is wrapped twice, not even when
// the lazy is stored as an interface. Measured on a statement that is
// already pending, so the store's queue does not grow under the count.
func TestLazyAllocationBudget(t *testing.T) {
	s, _ := rig(t, ModeSloth)
	f := newFixture(FetchLazy, FetchLazy)
	budgets := []struct {
		name   string
		budget float64
		call   func()
	}{
		{"Meta.Find", 3, func() { f.patients.Find(s, 2) }},
		{"Meta.Find into an interface", 3, func() { boxed = f.patients.Find(s, 2) }},
		{"HasMany.Of", 3, func() { f.encOf.Of(s, 1) }},
		{"Meta.CountWhere", 3, func() { f.encounters.CountWhere(s, "patient_id = ?", int64(1)) }},
	}
	for _, b := range budgets {
		b.call() // make the statement pending and its SQL text cached
		if n := testing.AllocsPerRun(200, b.call); n > b.budget {
			t.Errorf("%s allocates %v times, budget %v", b.name, n, b.budget)
		}
	}
}

// TestLazyClosureCapturesOnlyItsID: in Sloth mode a Where's thunk closure
// holds the mapping, the session and the query id, and a Find's the key
// besides — at most 48 bytes, where it once carried the whole read. Bytes,
// not objects: on a pending statement a call allocates its argument slice,
// as the bare Register does, plus its cell and its closure, so the closure
// is what is left after the other two.
func TestLazyClosureCapturesOnlyItsID(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	s, _ := rig(t, ModeSloth)
	f := newFixture(FetchLazy, FetchLazy)
	const n = 4000
	bytesPer := func(call func()) float64 {
		call() // make the statement pending and its SQL text cached
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			call()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / n
	}
	encCells := make([]*lazyCell[[]*Encounter], 0, n+1)
	patCells := make([]*lazyCell[*Patient], 0, n+1)
	encCell := bytesPer(func() { encCells = append(encCells, new(lazyCell[[]*Encounter])) })
	patCell := bytesPer(func() { patCells = append(patCells, new(lazyCell[*Patient])) })
	for _, c := range []struct {
		name           string
		call, register func()
		cell           float64
	}{
		{"Meta.Where",
			func() { f.encounters.Where(s, "patient_id = ?", int64(1)) },
			func() { _, _ = s.store.Register(f.encounters.sqlFor("patient_id = ?").sel, int64(1)) },
			encCell},
		{"Meta.Find",
			func() { f.patients.Find(s, 3) },
			func() { _, _ = s.store.Register(f.patients.findSQL, int64(3)) },
			patCell},
	} {
		call, register := bytesPer(c.call), bytesPer(c.register)
		if closure := call - register - c.cell; closure > 48 {
			t.Errorf("%s: closure %v B (call %v B, Register %v B, cell %v B), want <= 48", c.name, closure, call, register, c.cell)
		}
	}
}

// TestLongLivedSessionReusesIdentityMap: from the second request on, filling
// and clearing the identity map allocates nothing.
func TestLongLivedSessionReusesIdentityMap(t *testing.T) {
	s, _ := rig(t, ModeSloth)
	f := newFixture(FetchLazy, FetchLazy)
	p := &Patient{ID: 1}
	request := func() {
		for pk := int64(0); pk < 40; pk++ {
			s.identityPut(&f.patients.table, pk, p)
		}
		s.Clear()
	}
	request()
	if n := testing.AllocsPerRun(50, request); n != 0 {
		t.Fatalf("a later request's identity map traffic allocates %v times", n)
	}
	if _, hit := s.identityGet(&f.patients.table, 1); hit {
		t.Fatal("Clear left an entity in the identity map")
	}
}

// TestIdentityIsPerMapping: two mappings keep separate identity entries
// even for equal primary keys.
func TestIdentityIsPerMapping(t *testing.T) {
	s, _ := rig(t, ModeSloth)
	f := newFixture(FetchLazy, FetchLazy)
	pt, err := f.patients.FindNow(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, hit := s.identityGet(&f.encounters.table, 1); hit {
		t.Fatal("a patient answered an encounter lookup")
	}
	again, _ := f.patients.FindNow(s, 1)
	if again != pt || s.Stats().IdentityHits != 1 {
		t.Fatalf("second Find missed the identity map: %p vs %p, hits %d", again, pt, s.Stats().IdentityHits)
	}
}

// TestConditionSQLCache: repeated conditions return the cached text, the
// text is what the uncached builders produce, and conditions assembled at
// run time stop being stored once the cache is full.
func TestConditionSQLCache(t *testing.T) {
	m := MustRegister[Patient]("patients")
	if got, want := m.sqlFor("age > ?").sel, "SELECT id, name, age FROM patients WHERE age > ?"; got != want {
		t.Fatalf("sqlFor.sel = %q, want %q", got, want)
	}
	if got, want := m.sqlFor("").count, "SELECT COUNT(*) AS n FROM patients"; got != want {
		t.Fatalf("sqlFor.count = %q, want %q", got, want)
	}
	if m.findSQL != "SELECT id, name, age FROM patients WHERE id = ?" {
		t.Fatalf("findSQL = %q", m.findSQL)
	}
	if n := testing.AllocsPerRun(100, func() { m.sqlFor("age > ?") }); n != 0 {
		t.Fatalf("cached condition allocates %v times", n)
	}
	for i := 0; i < 3*maxConds; i++ {
		cond := fmt.Sprintf("age = %d", i)
		if got := m.sqlFor(cond); got != m.buildSQL(cond) || !strings.HasSuffix(got.count, " WHERE "+cond) {
			t.Fatalf("sqlFor(%q) = %q", cond, got)
		}
	}
	if n := len(*m.conds.Load()); n != maxConds {
		t.Fatalf("cache holds %d conditions, cap %d", n, maxConds)
	}
}

// TestWhereConcurrentOnOneMeta: sessions on separate goroutines share one
// Meta; fresh and repeated conditions race on its SQL cache (run with
// -race).
func TestWhereConcurrentOnOneMeta(t *testing.T) {
	f := newFixture(FetchLazy, FetchLazy)
	const workers = 8
	sessions := make([]*Session, workers)
	for g := range sessions {
		sessions[g], _ = rig(t, ModeSloth)
	}
	var wg sync.WaitGroup
	for g, s := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				conds := []struct {
					cond string
					args []sqldb.Value
					want int
				}{
					{"patient_id = ?", []sqldb.Value{int64(1)}, 2},
					{fmt.Sprintf("patient_id = ? AND id > %d", -(g*1000 + i)), []sqldb.Value{int64(2)}, 1},
				}
				for _, c := range conds {
					es, err := f.encounters.Where(s, c.cond, c.args...).Get()
					if err != nil || len(es) != c.want {
						t.Errorf("worker %d %q: %d entities, %v; want %d", g, c.cond, len(es), err, c.want)
						return
					}
					n, err := f.encounters.CountWhere(s, c.cond, c.args...).Get()
					if err != nil || n != int64(c.want) {
						t.Errorf("worker %d count %q: %d, %v; want %d", g, c.cond, n, err, c.want)
						return
					}
				}
				s.Clear()
			}
		}()
	}
	wg.Wait()
}
