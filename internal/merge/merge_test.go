package merge_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/driver"
	"repro/internal/merge"
	"repro/internal/netsim"
	"repro/internal/sqldb"
	"repro/internal/sqldb/engine"
)

func point(id int64) driver.Stmt {
	return driver.Stmt{SQL: "SELECT id, v FROM kv WHERE id = ?", Args: []sqldb.Value{id}}
}

func rewrite(t *testing.T, cfg merge.Config, stmts []driver.Stmt) *merge.Plan {
	t.Helper()
	m := merge.New(cfg)
	return m.Rewrite(stmts)
}

func TestMergePointLookups(t *testing.T) {
	plan := rewrite(t, merge.Config{Enabled: true}, []driver.Stmt{point(1), point(2), point(3)})
	if len(plan.Stmts) != 1 {
		t.Fatalf("want 1 merged statement, got %d: %+v", len(plan.Stmts), plan.Stmts)
	}
	if plan.Saved() != 2 {
		t.Fatalf("want 2 saved, got %d", plan.Saved())
	}
	want := "SELECT id, v FROM kv WHERE id IN (?, ?, ?)"
	if plan.Stmts[0].SQL != want {
		t.Fatalf("merged SQL = %q, want %q", plan.Stmts[0].SQL, want)
	}
	if !reflect.DeepEqual(plan.Stmts[0].Args, []sqldb.Value{int64(1), int64(2), int64(3)}) {
		t.Fatalf("merged args = %v", plan.Stmts[0].Args)
	}
}

func TestDemuxRoutesRowsByKey(t *testing.T) {
	plan := rewrite(t, merge.Config{Enabled: true}, []driver.Stmt{point(1), point(2), point(3)})
	merged := &sqldb.ResultSet{
		Cols: []string{"id", "v"},
		Rows: [][]sqldb.Value{{int64(3), "c"}, {int64(1), "a"}},
	}
	out, err := plan.Demux([]*sqldb.ResultSet{merged})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("want 3 demuxed results, got %d", len(out))
	}
	if out[0].NumRows() != 1 || out[0].Rows[0][1] != "a" {
		t.Fatalf("id=1 result wrong: %v", out[0].Rows)
	}
	// Missing key: an empty result set with the merged columns, not nil.
	if out[1] == nil || out[1].NumRows() != 0 || len(out[1].Cols) != 2 {
		t.Fatalf("id=2 (missing key) result wrong: %+v", out[1])
	}
	if out[2].NumRows() != 1 || out[2].Rows[0][1] != "c" {
		t.Fatalf("id=3 result wrong: %v", out[2].Rows)
	}
}

func TestDemuxDuplicateKeysShareRows(t *testing.T) {
	// Dedup disabled upstream: the same statement can appear twice. Both
	// originals must receive the full row set for their key.
	plan := rewrite(t, merge.Config{Enabled: true}, []driver.Stmt{point(7), point(8), point(7)})
	if len(plan.Stmts) != 1 {
		t.Fatalf("want 1 merged statement, got %d", len(plan.Stmts))
	}
	if got := len(plan.Stmts[0].Args); got != 2 {
		t.Fatalf("duplicate value should be listed once: args %v", plan.Stmts[0].Args)
	}
	merged := &sqldb.ResultSet{
		Cols: []string{"id", "v"},
		Rows: [][]sqldb.Value{{int64(7), "x"}, {int64(8), "y"}},
	}
	out, err := plan.Demux([]*sqldb.ResultSet{merged})
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 2} {
		if out[i].NumRows() != 1 || out[i].Rows[0][1] != "x" {
			t.Fatalf("original %d: want the id=7 row, got %v", i, out[i].Rows)
		}
	}
}

// TestMaxInWidthChunks: a family of 2·MaxInWidth+1 members splits into
// two full IN lists and a one-member remainder.
func TestMaxInWidthChunks(t *testing.T) {
	stmts := make([]driver.Stmt, 2*merge.MaxInWidth+1)
	for i := range stmts {
		stmts[i] = point(int64(i + 1))
	}
	plan := rewrite(t, merge.Config{Enabled: true}, stmts)
	if len(plan.Stmts) != 3 { // 64 + 64 + 1
		t.Fatalf("want 3 chunks, got %d: %v", len(plan.Stmts), plan.Stmts)
	}
	if want := len(stmts) - 3; plan.Saved() != want {
		t.Fatalf("want %d saved, got %d", want, plan.Saved())
	}
	for i, width := range []int{merge.MaxInWidth, merge.MaxInWidth, 1} {
		if got := len(plan.Stmts[i].Args); got != width {
			t.Fatalf("chunk %d width = %d, want %d", i, got, width)
		}
	}
}

func TestResidualConjunctsAndLiterals(t *testing.T) {
	mk := func(key string) driver.Stmt {
		return driver.Stmt{
			SQL:  "SELECT id, message_key, locale, content FROM language_keys WHERE message_key = ? AND locale = 'en'",
			Args: []sqldb.Value{key},
		}
	}
	plan := rewrite(t, merge.Config{Enabled: true}, []driver.Stmt{mk("a"), mk("b")})
	if len(plan.Stmts) != 1 {
		t.Fatalf("want 1 merged statement, got %d: %v", len(plan.Stmts), plan.Stmts)
	}
	want := "SELECT id, message_key, locale, content FROM language_keys WHERE message_key IN (?, ?) AND (locale = ?)"
	if plan.Stmts[0].SQL != want {
		t.Fatalf("merged SQL = %q, want %q", plan.Stmts[0].SQL, want)
	}
	if !reflect.DeepEqual(plan.Stmts[0].Args, []sqldb.Value{"a", "b", "en"}) {
		t.Fatalf("merged args = %v", plan.Stmts[0].Args)
	}
}

func TestResidualValueMismatchSplitsGroups(t *testing.T) {
	mk := func(key, locale string) driver.Stmt {
		return driver.Stmt{
			SQL:  "SELECT message_key, locale FROM language_keys WHERE message_key = ? AND locale = ?",
			Args: []sqldb.Value{key, locale},
		}
	}
	// Same SQL text, different residual value: must NOT merge together.
	plan := rewrite(t, merge.Config{Enabled: true}, []driver.Stmt{
		mk("a", "en"), mk("b", "en"), mk("c", "fr"), mk("d", "fr"),
	})
	if len(plan.Stmts) != 2 {
		t.Fatalf("want 2 merged statements (en, fr), got %d: %v", len(plan.Stmts), plan.Stmts)
	}
}

func TestIneligibleShapesPassThrough(t *testing.T) {
	shapes := []driver.Stmt{
		// Aggregates over computed expressions stay out of the aggregate
		// family; so do aggregate statements with an ORDER BY.
		{SQL: "SELECT SUM(id + 1) FROM kv WHERE grp = ?", Args: []sqldb.Value{int64(1)}},
		{SQL: "SELECT SUM(id + 1) FROM kv WHERE grp = ?", Args: []sqldb.Value{int64(2)}},
		{SQL: "SELECT COUNT(*) AS n FROM kv WHERE id = ? ORDER BY n", Args: []sqldb.Value{int64(1)}},
		{SQL: "SELECT COUNT(*) AS n FROM kv WHERE id = ? ORDER BY n", Args: []sqldb.Value{int64(2)}},
		{SQL: "SELECT id FROM kv WHERE id = ? LIMIT 1", Args: []sqldb.Value{int64(1)}},
		{SQL: "SELECT id FROM kv WHERE id = ? LIMIT 1", Args: []sqldb.Value{int64(2)}},
		{SQL: "SELECT v FROM kv WHERE id = ?", Args: []sqldb.Value{int64(1)}}, // match col not projected
		{SQL: "SELECT v FROM kv WHERE id = ?", Args: []sqldb.Value{int64(2)}},
		{SQL: "SELECT a.id FROM kv AS a JOIN kv AS b ON a.id = b.id WHERE a.id = ?", Args: []sqldb.Value{int64(1)}},
		{SQL: "SELECT a.id FROM kv AS a JOIN kv AS b ON a.id = b.id WHERE a.id = ?", Args: []sqldb.Value{int64(2)}},
		{SQL: "SELECT id FROM kv WHERE v > ?", Args: []sqldb.Value{int64(1)}}, // no equality conjunct
		{SQL: "SELECT id FROM kv WHERE v > ?", Args: []sqldb.Value{int64(2)}},
	}
	plan := rewrite(t, merge.Config{Enabled: true}, shapes)
	if len(plan.Stmts) != len(shapes) {
		t.Fatalf("ineligible statements must pass through: %d in, %d out", len(shapes), len(plan.Stmts))
	}
	for i := range shapes {
		if plan.Stmts[i].SQL != shapes[i].SQL {
			t.Fatalf("statement %d rewritten: %q", i, plan.Stmts[i].SQL)
		}
	}
}

func TestWriteBarrierSplitsGroups(t *testing.T) {
	stmts := []driver.Stmt{
		point(1),
		point(2),
		{SQL: "UPDATE kv SET v = 'z' WHERE id = 1"},
		point(3),
		point(4),
	}
	plan := rewrite(t, merge.Config{Enabled: true}, stmts)
	// Two merged groups around the write: (1,2) UPDATE (3,4).
	if len(plan.Stmts) != 3 {
		t.Fatalf("want 3 statements, got %d: %v", len(plan.Stmts), plan.Stmts)
	}
	if plan.Stmts[1].SQL != stmts[2].SQL {
		t.Fatalf("write moved: %q at position 1", plan.Stmts[1].SQL)
	}
}

func TestSingletonGroupsKeepOriginalSQL(t *testing.T) {
	stmts := []driver.Stmt{
		point(1),
		{SQL: "SELECT id, name FROM users WHERE id = ?", Args: []sqldb.Value{int64(5)}},
	}
	plan := rewrite(t, merge.Config{Enabled: true}, stmts)
	if len(plan.Stmts) != 2 || plan.Stmts[0].SQL != stmts[0].SQL || plan.Stmts[1].SQL != stmts[1].SQL {
		t.Fatalf("singleton groups must pass through verbatim: %v", plan.Stmts)
	}
}

// newKV builds an engine with an indexed kv table holding n rows, fronted
// by a zero-latency server.
func newKV(t *testing.T, n int) *driver.Conn {
	t.Helper()
	db := engine.New()
	s := db.NewSession()
	if _, err := s.Exec("CREATE TABLE kv (id INT PRIMARY KEY, v TEXT, grp INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("CREATE INDEX idx_kv_grp ON kv (grp)"); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		if _, err := s.Exec("INSERT INTO kv (id, v, grp) VALUES (?, ?, ?)",
			int64(i), fmt.Sprintf("v%d", i), int64(i%3)); err != nil {
			t.Fatal(err)
		}
	}
	clock := netsim.NewVirtualClock()
	srv := driver.NewServer(db, clock, driver.DefaultCostModel())
	return srv.Connect(netsim.NewLink(clock, 0))
}

// TestEndToEndEquivalence executes a batch both ways through a real engine
// and requires identical per-original results.
func TestEndToEndEquivalence(t *testing.T) {
	conn := newKV(t, 30)
	stmts := []driver.Stmt{
		point(4),
		point(11),
		point(999), // no such row
		{SQL: "SELECT id, v, grp FROM kv WHERE grp = ? ORDER BY v DESC", Args: []sqldb.Value{int64(0)}},
		{SQL: "SELECT id, v, grp FROM kv WHERE grp = ? ORDER BY v DESC", Args: []sqldb.Value{int64(2)}},
		point(4), // duplicate of the first
	}

	plain, err := conn.ExecBatch(stmts)
	if err != nil {
		t.Fatal(err)
	}

	m := merge.New(merge.Config{Enabled: true})
	plan := m.Rewrite(stmts)
	if len(plan.Stmts) >= len(stmts) {
		t.Fatalf("nothing merged: %d statements in, %d out", len(stmts), len(plan.Stmts))
	}
	mergedResults, err := conn.ExecBatch(plan.Stmts)
	if err != nil {
		t.Fatal(err)
	}
	demuxed, err := plan.Demux(mergedResults)
	if err != nil {
		t.Fatal(err)
	}
	for i := range stmts {
		if !reflect.DeepEqual(plain[i].Cols, demuxed[i].Cols) {
			t.Fatalf("stmt %d: cols %v vs %v", i, plain[i].Cols, demuxed[i].Cols)
		}
		if !reflect.DeepEqual(plain[i].Rows, demuxed[i].Rows) {
			t.Fatalf("stmt %d: rows differ\nplain:  %v\nmerged: %v", i, plain[i].Rows, demuxed[i].Rows)
		}
	}
	if st := m.Stats(); st.Merged == 0 || st.Saved == 0 || st.RowsDemuxed == 0 {
		t.Fatalf("stats not recorded: %+v", st)
	}
}

// TestOrderByPreservedUnderMerge checks the demuxed per-key row order of an
// ORDER BY group against standalone execution.
func TestOrderByPreservedUnderMerge(t *testing.T) {
	conn := newKV(t, 30)
	mk := func(g int64) driver.Stmt {
		return driver.Stmt{SQL: "SELECT id, v, grp FROM kv WHERE grp = ? ORDER BY id DESC", Args: []sqldb.Value{g}}
	}
	stmts := []driver.Stmt{mk(0), mk(1), mk(2)}
	plain, err := conn.ExecBatch(stmts)
	if err != nil {
		t.Fatal(err)
	}
	m := merge.New(merge.Config{Enabled: true})
	plan := m.Rewrite(stmts)
	if len(plan.Stmts) != 1 {
		t.Fatalf("want 1 merged statement, got %d", len(plan.Stmts))
	}
	results, err := conn.ExecBatch(plan.Stmts)
	if err != nil {
		t.Fatal(err)
	}
	demuxed, err := plan.Demux(results)
	if err != nil {
		t.Fatal(err)
	}
	for i := range stmts {
		if !reflect.DeepEqual(plain[i].Rows, demuxed[i].Rows) {
			t.Fatalf("grp=%d: order not preserved\nplain:  %v\nmerged: %v", i, plain[i].Rows, demuxed[i].Rows)
		}
	}
}

// TestMixedValueTypesDoNotMerge pins the type-strictness rule: an int-keyed
// and a float-keyed lookup must not share an IN list, because the engine's
// index lookup is type-strict while general comparison promotes — merging
// them could hand the float statement rows its own execution would miss.
func TestMixedValueTypesDoNotMerge(t *testing.T) {
	stmts := []driver.Stmt{
		{SQL: "SELECT id, v FROM kv WHERE id = ?", Args: []sqldb.Value{int64(1)}},
		{SQL: "SELECT id, v FROM kv WHERE id = ?", Args: []sqldb.Value{float64(1)}},
	}
	plan := rewrite(t, merge.Config{Enabled: true}, stmts)
	if len(plan.Stmts) != 2 {
		t.Fatalf("mixed-type values merged: %v", plan.Stmts)
	}
	for i := range stmts {
		if plan.Stmts[i].SQL != stmts[i].SQL {
			t.Fatalf("statement %d rewritten: %q", i, plan.Stmts[i].SQL)
		}
	}
}

// TestAliasShadowingMatchColumnIneligible pins the demux-label rule: a
// projection that aliases another column to the match column's name would
// make demux partition by the wrong values, so the statement must pass
// through unmerged.
func TestAliasShadowingMatchColumnIneligible(t *testing.T) {
	mk := func(id int64) driver.Stmt {
		return driver.Stmt{SQL: "SELECT v AS id, id AS other FROM kv WHERE id = ?", Args: []sqldb.Value{id}}
	}
	plan := rewrite(t, merge.Config{Enabled: true}, []driver.Stmt{mk(1), mk(2)})
	if len(plan.Stmts) != 2 {
		t.Fatalf("alias-shadowed statements merged: %v", plan.Stmts)
	}
}
