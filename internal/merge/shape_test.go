package merge_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/driver"
	"repro/internal/merge"
	"repro/internal/netsim"
	"repro/internal/sqldb"
	"repro/internal/sqldb/engine"
	"repro/internal/sqldb/plan"
)

// q prepares a statement as the query store's Register does.
func q(sql string, args ...sqldb.Value) driver.Stmt {
	st, err := driver.Prepare(sql, args...)
	if err != nil {
		panic(err)
	}
	return st
}

// TestGroupingEquivalence pins WHICH statements share a merged statement:
// each case lists a batch and the exact rewritten batch (SQL plus
// arguments). The group key replaced a rendered fingerprint string; these
// are the equivalences that string encoded.
func TestGroupingEquivalence(t *testing.T) {
	const pt = "SELECT id, v FROM kv WHERE id = ?"
	cases := []struct {
		name  string
		stmts []driver.Stmt
		want  []string
	}{
		{name: "literal and parameter spelling share a group",
			stmts: []driver.Stmt{q("SELECT id, v FROM kv WHERE id = 3"), q(pt, int64(4))},
			want:  []string{"SELECT id, v FROM kv WHERE id IN (?, ?) [3 4]"}},
		{name: "keyword, table and match-column case do not matter",
			stmts: []driver.Stmt{q("select id, v from KV where ID = ?", int64(1)), q(pt, int64(2))},
			want:  []string{"SELECT id, v FROM KV WHERE ID IN (?, ?) [1 2]"}},
		{name: "projection case is the output label and does matter",
			stmts: []driver.Stmt{q("SELECT ID, v FROM kv WHERE id = ?", int64(1)), q(pt, int64(2))},
			want:  []string{"SELECT ID, v FROM kv WHERE id = ? [1]", pt + " [2]"}},
		{name: "a NULL first conjunct hands the match to the second",
			stmts: []driver.Stmt{
				q("SELECT id, grp FROM kv WHERE grp = ? AND id = ?", nil, int64(1)),
				q("SELECT id, grp FROM kv WHERE grp = ? AND id = ?", nil, int64(2)),
				q("SELECT id, grp FROM kv WHERE grp = ? AND id = ?", int64(5), int64(3)),
			},
			want: []string{
				"SELECT id, grp FROM kv WHERE id IN (?, ?) AND (grp = ?) [1 2 <nil>]",
				"SELECT id, grp FROM kv WHERE grp = ? AND id = ? [5 3]",
			}},
		{name: "a short argument list is ineligible",
			stmts: []driver.Stmt{
				q("SELECT id, v FROM kv WHERE id = ? AND grp = ?", int64(1)),
				q("SELECT id, v FROM kv WHERE id = ? AND grp = ?", int64(2)),
			},
			want: []string{
				"SELECT id, v FROM kv WHERE id = ? AND grp = ? [1]",
				"SELECT id, v FROM kv WHERE id = ? AND grp = ? [2]",
			}},
		{name: "differently typed keys never share an IN list",
			stmts: []driver.Stmt{
				q(pt, int64(1)), q(pt, 1.5), q(pt, "1"), q(pt, true),
				q(pt, int64(2)), q(pt, 2.5), q(pt, "2"), q(pt, false),
			},
			want: []string{
				"SELECT id, v FROM kv WHERE id IN (?, ?) [1 2]",
				"SELECT id, v FROM kv WHERE id IN (?, ?) [1.5 2.5]",
				"SELECT id, v FROM kv WHERE id IN (?, ?) [1 2]",
				"SELECT id, v FROM kv WHERE id IN (?, ?) [true false]",
			}},
		{name: "a string constant spelling SQL does not conflate templates",
			stmts: []driver.Stmt{
				q("SELECT id, v FROM kv WHERE id = ? AND v = ?", int64(1), "1) OR (grp = 2"),
				q("SELECT id, v FROM kv WHERE id = ? AND (v = 1 OR grp = 2)", int64(2)),
				q("SELECT id, v FROM kv WHERE id = ? AND v = ?", int64(3), "1) OR (grp = 2"),
				q("SELECT id, v FROM kv WHERE id = ? AND v = ?", int64(4), "1"),
				q("SELECT id, v FROM kv WHERE id = ? AND v = ?", int64(5), int64(1)),
			},
			want: []string{
				"SELECT id, v FROM kv WHERE id IN (?, ?) AND (v = ?) [1 3 1) OR (grp = 2]",
				"SELECT id, v FROM kv WHERE id = ? AND (v = 1 OR grp = 2) [2]",
				"SELECT id, v FROM kv WHERE id = ? AND v = ? [4 1]",
				"SELECT id, v FROM kv WHERE id = ? AND v = ? [5 1]",
			}},
		{name: "a write closes every open group",
			stmts: []driver.Stmt{q(pt, int64(1)), q("UPDATE kv SET v = 'z' WHERE id = 9"), q(pt, int64(2))},
			want:  []string{pt + " [1]", "UPDATE kv SET v = 'z' WHERE id = 9 []", pt + " [2]"}},
		{name: "keys merge whatever shards they live on",
			stmts: []driver.Stmt{q(pt, int64(1)), q(pt, int64(2)), q(pt, int64(3)), q(pt, int64(-1))},
			want:  []string{"SELECT id, v FROM kv WHERE id IN (?, ?, ?, ?) [1 2 3 -1]"}},
		{name: "windows without an equality conjunct stay as written",
			stmts: []driver.Stmt{
				q("SELECT id, v FROM kv WHERE id >= ? AND id < ?", int64(1), int64(5)),
				q("SELECT id, v FROM kv WHERE id >= ? AND id < ?", int64(3), int64(9)),
			},
			want: []string{
				"SELECT id, v FROM kv WHERE id >= ? AND id < ? [1 5]",
				"SELECT id, v FROM kv WHERE id >= ? AND id < ? [3 9]",
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := merge.New(merge.Config{Enabled: true}).Rewrite(tc.stmts)
			var got []string
			for _, st := range p.Stmts {
				got = append(got, fmt.Sprintf("%s %v", st.SQL, st.Args))
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("rewritten batch:\n got %q\nwant %q", got, tc.want)
			}
		})
	}
}

// newScored builds two identical engines (one runs batches as written, the
// other runs them rewritten) over a table with an indexed INT, a TEXT and a
// FLOAT column and some NULL group keys.
func newScored(t *testing.T) (plain, merged *driver.Conn) {
	t.Helper()
	build := func() *driver.Conn {
		db := engine.New()
		s := db.NewSession()
		for _, ddl := range []string{
			"CREATE TABLE kv (id INT PRIMARY KEY, v TEXT, grp INT, score FLOAT)",
			"CREATE INDEX idx_kv_grp ON kv (grp)",
		} {
			if _, err := s.Exec(ddl); err != nil {
				t.Fatal(err)
			}
		}
		for i := 1; i <= 40; i++ {
			var grp sqldb.Value = int64(i % 5)
			if i%11 == 0 {
				grp = nil
			}
			if _, err := s.Exec("INSERT INTO kv (id, v, grp, score) VALUES (?, ?, ?, ?)",
				int64(i), fmt.Sprintf("v%02d", i%17), grp, float64(i)/4); err != nil {
				t.Fatal(err)
			}
		}
		clock := netsim.NewVirtualClock()
		return driver.NewServer(db, clock, driver.DefaultCostModel()).Connect(netsim.NewLink(clock, 0))
	}
	return build(), build()
}

// execBothWays runs one batch unmerged on plain and rewritten on merged, and
// requires every original's result to come back identical: same columns,
// same rows, same order.
func execBothWays(t *testing.T, m *merge.Merger, plain, merged *driver.Conn, stmts []driver.Stmt) *merge.Plan {
	t.Helper()
	want, err := plain.ExecBatch(stmts)
	if err != nil {
		t.Fatalf("unmerged batch failed: %v\n%v", err, stmts)
	}
	p := m.Rewrite(stmts)
	results, err := merged.ExecBatch(p.Stmts)
	if err != nil {
		t.Fatalf("rewritten batch failed: %v\n%v", err, p.Stmts)
	}
	got, err := p.Demux(results)
	if err != nil {
		t.Fatal(err)
	}
	for i := range stmts {
		if !reflect.DeepEqual(want[i].Cols, got[i].Cols) || !reflect.DeepEqual(want[i].Rows, got[i].Rows) {
			t.Fatalf("stmt %d %q %v differs under merge\nbatch:  %v\nplain:  %v %v\nmerged: %v %v",
				i, stmts[i].SQL, stmts[i].Args, stmts, want[i].Cols, want[i].Rows, got[i].Cols, got[i].Rows)
		}
	}
	return p
}

// TestAliasShadowUnderStarIneligible: an alias spelling the match column
// makes demux resolve the label to the wrong column whether or not a
// star also projects the real one, so such statements must not merge — and
// must return what they return unmerged.
func TestAliasShadowUnderStarIneligible(t *testing.T) {
	plain, merged := newScored(t)
	for _, tc := range []struct {
		sql    string
		a1, a2 []sqldb.Value
	}{
		{"SELECT id AS grp, * FROM kv WHERE grp = ?", []sqldb.Value{int64(0)}, []sqldb.Value{int64(1)}},
		{"SELECT *, id AS grp FROM kv WHERE grp = ?", []sqldb.Value{int64(0)}, []sqldb.Value{int64(1)}},
		{"SELECT id AS score, * FROM kv WHERE score >= ? AND score < ?",
			[]sqldb.Value{int64(0), int64(3)}, []sqldb.Value{int64(2), int64(6)}},
	} {
		stmts := []driver.Stmt{q(tc.sql, tc.a1...), q(tc.sql, tc.a2...)}
		p := execBothWays(t, merge.New(merge.Config{Enabled: true}), plain, merged, stmts)
		if len(p.Stmts) != len(stmts) {
			t.Errorf("alias-shadowed statements merged: %v", p.Stmts)
		}
	}
}

// genBatch draws one batch from a fixed pool of templates — both families,
// literal and parameter spellings, residual parameters, window statements
// that never merge, an ineligible shape and a write — with arguments from
// small domains, so duplicate keys, NULLs and mixed key types are common.
// One batch in five is instead a single wide family (genWideBatch).
func genBatch(r *rand.Rand) []driver.Stmt {
	if r.Intn(5) == 0 {
		return genWideBatch(r)
	}
	key := func() sqldb.Value { // a match key for an indexed INT column
		switch r.Intn(12) {
		case 0:
			return nil
		case 1:
			return float64(r.Intn(4))
		case 2:
			return fmt.Sprint(r.Intn(4))
		case 3:
			return r.Intn(2) == 0
		default:
			return int64(r.Intn(6))
		}
	}
	intKey := func() sqldb.Value { // for conjuncts a row filter evaluates: no mixed types
		if r.Intn(6) == 0 {
			return nil
		}
		return int64(r.Intn(6))
	}
	num := func() sqldb.Value { // a numeric bound
		if r.Intn(4) == 0 {
			return float64(r.Intn(40)) / 4
		}
		return int64(r.Intn(12))
	}
	str := func() sqldb.Value { return fmt.Sprintf("v%02d", r.Intn(17)) }
	templates := []func() driver.Stmt{
		func() driver.Stmt { return q("SELECT id, v FROM kv WHERE id = ?", key()) },
		func() driver.Stmt { return q("select ID, V from KV where ID = ?", key()) },
		func() driver.Stmt { return q("SELECT id, grp FROM kv WHERE grp = 2") },
		func() driver.Stmt { return q("SELECT id, v, grp FROM kv WHERE grp = ? ORDER BY id DESC", key()) },
		func() driver.Stmt { return q("SELECT * FROM kv WHERE grp = ? AND v >= ?", key(), str()) },
		func() driver.Stmt { return q("SELECT id, v, grp FROM kv WHERE grp = ? AND id = ?", intKey(), intKey()) },
		func() driver.Stmt { return q("SELECT id, v FROM kv WHERE v = ?", str()) },
		func() driver.Stmt { return q("SELECT COUNT(*) FROM kv WHERE grp = ?", key()) },
		func() driver.Stmt {
			return q("SELECT COUNT(*) AS n, MAX(score) FROM kv WHERE grp = ? AND id < ?", key(), int64(10*r.Intn(4)))
		},
		func() driver.Stmt { return q("SELECT SUM(id), MIN(v) FROM kv WHERE grp = ?", key()) },
		func() driver.Stmt { return q("SELECT id, v FROM kv WHERE id BETWEEN ? AND ?", num(), num()) },
		func() driver.Stmt {
			return q("SELECT id, score FROM kv WHERE score >= ? AND score < ? ORDER BY score DESC", num(), num())
		},
		func() driver.Stmt { return q("SELECT id, v FROM kv WHERE v > ? AND v <= ?", str(), str()) },
		func() driver.Stmt {
			return q("SELECT * FROM kv WHERE id > ? AND id <= ? AND grp = ?", num(), num(), key())
		},
		func() driver.Stmt { return q("SELECT id FROM kv WHERE id = ? LIMIT 1", key()) },
		func() driver.Stmt { return q("UPDATE kv SET v = ? WHERE id = ?", str(), int64(1+r.Intn(40))) },
	}
	// A batch leans on two or three templates, the way a page's fan-out does.
	var pool []func() driver.Stmt
	for i := 0; i < 1+r.Intn(3); i++ {
		pool = append(pool, templates[r.Intn(len(templates))])
	}
	stmts := make([]driver.Stmt, 1+r.Intn(14))
	for i := range stmts {
		stmts[i] = pool[r.Intn(len(pool))]()
	}
	return stmts
}

// genWideBatch draws one family of 56..151 members — point lookups,
// per-key counts or ordered group lookups over mostly distinct keys, a few
// repeated — so its IN list crosses MaxInWidth once or twice and the
// chunk boundaries at 64 and 128 are exercised on generated batches.
func genWideBatch(r *rand.Rand) []driver.Stmt {
	n := 56 + r.Intn(96)
	tmpl := r.Intn(3)
	stmts := make([]driver.Stmt, n)
	for i := range stmts {
		k := int64(i)
		if r.Intn(16) == 0 {
			k = int64(r.Intn(n))
		}
		switch tmpl {
		case 0:
			stmts[i] = q("SELECT id, v FROM kv WHERE id = ?", k)
		case 1:
			stmts[i] = q("SELECT COUNT(*) FROM kv WHERE grp = ?", k)
		default:
			stmts[i] = q("SELECT id, v, grp FROM kv WHERE grp = ? ORDER BY id DESC", k)
		}
	}
	return stmts
}

// TestMergeMetamorphic: merging must be invisible. 250 generated batches
// return per-original results identical with merge on and off — with a cold
// shape cache, a warm one, and with plan.SetCaching(false), under which the
// cache must end up holding nothing.
func TestMergeMetamorphic(t *testing.T) {
	// chunks counts, per number of width-capped chunks, the generated
	// batches wider than MaxInWidth whose rewrite emitted that many
	// statements.
	chunks := map[int]int{}
	run := func(t *testing.T) merge.Stats {
		plain, merged := newScored(t)
		m := merge.New(merge.Config{Enabled: true})
		r := rand.New(rand.NewSource(20140622))
		for i := 0; i < 250; i++ {
			stmts := genBatch(r)
			p := execBothWays(t, m, plain, merged, stmts)
			if len(stmts) > merge.MaxInWidth {
				chunks[len(p.Stmts)]++
			}
		}
		return m.Stats()
	}
	merge.ResetShapeCache()
	cold := run(t)
	if chunks[2] == 0 || chunks[3] == 0 {
		t.Errorf("generated wide families never split into 2 and 3 chunks: %v", chunks)
	}
	for f, g := range cold.GroupsByFamily {
		if g == 0 {
			t.Errorf("generator never merged family %v: %+v", merge.FamilyID(f), cold)
		}
	}
	if shapes, tmpls := merge.CachedShapes(); shapes == 0 || tmpls == 0 {
		t.Fatalf("cold run cached %d shapes, %d templates", shapes, tmpls)
	}
	if warm := run(t); warm != cold {
		t.Errorf("warm-cache run rewrote differently:\ncold %+v\nwarm %+v", cold, warm)
	}

	merge.ResetShapeCache()
	defer plan.SetCaching(plan.SetCaching(false))
	if off := run(t); off != cold {
		t.Errorf("cache-off run rewrote differently:\ncold %+v\noff  %+v", cold, off)
	}
	if shapes, tmpls := merge.CachedShapes(); shapes != 0 || tmpls != 0 {
		t.Errorf("SetCaching(false) still stored %d shapes, %d templates", shapes, tmpls)
	}
}

// TestRewriteAllocBudget: the two commonest batch kinds — nothing merges,
// every statement is analyzed — allocate nothing (20 and 74 before shapes
// were cached, 5 each before a pass-through batch stopped building a plan).
func TestRewriteAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	batches := benchBatches()
	m := merge.New(merge.Config{Enabled: true})
	for name, budget := range map[string]float64{"single": 0, "mixed4": 0} {
		m.Rewrite(batches[name]) // warm the shape cache
		if got := testing.AllocsPerRun(200, func() { m.Rewrite(batches[name]) }); got > budget {
			t.Errorf("Rewrite(%s): %v allocs per batch, budget %v", name, got, budget)
		}
	}
}

// TestConcurrentRewrite exercises the two kinds of sharing: one Merger's
// counters read while it rewrites, and many Mergers racing to build and
// then share the same cached shapes.
func TestConcurrentRewrite(t *testing.T) {
	merge.ResetShapeCache()
	batch := func() []driver.Stmt {
		return []driver.Stmt{
			q("SELECT id, v FROM kv WHERE id = ?", int64(1)),
			q("SELECT id, v FROM kv WHERE id = ?", int64(2)),
			q("SELECT COUNT(*) FROM kv WHERE grp = ? AND v = ?", int64(1), "a"),
			q("SELECT COUNT(*) FROM kv WHERE grp = ? AND v = ?", int64(2), "a"),
			q("SELECT id, v FROM kv WHERE id >= ? AND id < ?", int64(1), int64(5)),
			q("SELECT id, v FROM kv WHERE id >= ? AND id < ?", int64(3), int64(9)),
		}
	}
	var wg sync.WaitGroup
	rewriter := func(m *merge.Merger) {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if p := m.Rewrite(batch()); len(p.Stmts) != 4 {
				t.Errorf("want 2 merged and 2 unmerged statements, got %v", p.Stmts)
				return
			}
		}
	}
	shared := merge.New(merge.Config{Enabled: true})
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
				_ = shared.Stats()
			}
		}
	}()
	wg.Add(5)
	go rewriter(shared)
	for i := 0; i < 4; i++ {
		go rewriter(merge.New(merge.Config{Enabled: true}))
	}
	wg.Wait()
	close(stop)
	<-readerDone
	if got := shared.Stats().Batches; got != 200 {
		t.Errorf("shared merger counted %d batches, want 200", got)
	}
}
