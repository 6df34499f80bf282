package engine

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/sqldb"
)

// testDB builds a small clinic schema used across the tests.
func testDB(t *testing.T) (*DB, *Session) {
	t.Helper()
	db := New()
	s := db.NewSession()
	stmts := []string{
		`CREATE TABLE patients (id INT PRIMARY KEY, name TEXT, age INT, city TEXT)`,
		`CREATE TABLE encounters (id INT PRIMARY KEY, patient_id INT, kind TEXT, cost FLOAT)`,
		`CREATE INDEX idx_enc_patient ON encounters (patient_id)`,
		`INSERT INTO patients (id, name, age, city) VALUES
			(1, 'Ann', 30, 'Boston'), (2, 'Bob', 45, 'Boston'),
			(3, 'Cid', 27, 'NYC'), (4, 'Dee', 61, 'NYC'), (5, 'Eve', 45, 'LA')`,
		`INSERT INTO encounters (id, patient_id, kind, cost) VALUES
			(10, 1, 'checkup', 100.0), (11, 1, 'xray', 250.0),
			(12, 2, 'checkup', 110.0), (13, 3, 'surgery', 5000.0),
			(14, 3, 'checkup', 90.0)`,
	}
	for _, sql := range stmts {
		if _, err := s.Exec(sql); err != nil {
			t.Fatalf("setup %q: %v", sql, err)
		}
	}
	return db, s
}

func query(t *testing.T, s *Session, sql string, args ...sqldb.Value) *sqldb.ResultSet {
	t.Helper()
	rs, err := s.Exec(sql, args...)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return rs
}

func TestSelectAll(t *testing.T) {
	_, s := testDB(t)
	rs := query(t, s, "SELECT * FROM patients")
	if rs.NumRows() != 5 {
		t.Fatalf("rows = %d, want 5", rs.NumRows())
	}
	if len(rs.Cols) != 4 || rs.Cols[0] != "id" {
		t.Fatalf("cols = %v", rs.Cols)
	}
}

func TestSelectWherePrimaryKeyUsesIndex(t *testing.T) {
	_, s := testDB(t)
	rs := query(t, s, "SELECT name FROM patients WHERE id = 3")
	if rs.NumRows() != 1 || rs.Rows[0][0] != "Cid" {
		t.Fatalf("rows = %v", rs.Rows)
	}
	// Index path: exactly one row scanned.
	if rs.RowsScanned != 1 {
		t.Fatalf("RowsScanned = %d, want 1 (index lookup)", rs.RowsScanned)
	}
}

func TestSelectFullScanCountsScannedRows(t *testing.T) {
	_, s := testDB(t)
	rs := query(t, s, "SELECT name FROM patients WHERE age > 40")
	if rs.NumRows() != 3 {
		t.Fatalf("rows = %d, want 3", rs.NumRows())
	}
	if rs.RowsScanned != 5 {
		t.Fatalf("RowsScanned = %d, want 5 (full scan)", rs.RowsScanned)
	}
}

func TestSelectWithParams(t *testing.T) {
	_, s := testDB(t)
	rs := query(t, s, "SELECT name FROM patients WHERE city = ? AND age < ?", "Boston", 40)
	if rs.NumRows() != 1 || rs.Rows[0][0] != "Ann" {
		t.Fatalf("rows = %v", rs.Rows)
	}
}

func TestSelectSecondaryIndexLookup(t *testing.T) {
	_, s := testDB(t)
	rs := query(t, s, "SELECT kind FROM encounters WHERE patient_id = ?", 1)
	if rs.NumRows() != 2 {
		t.Fatalf("rows = %v", rs.Rows)
	}
	if rs.RowsScanned != 2 {
		t.Fatalf("RowsScanned = %d, want 2", rs.RowsScanned)
	}
}

func TestSelectProjectionExpressions(t *testing.T) {
	_, s := testDB(t)
	rs := query(t, s, "SELECT name, age * 2 AS dbl FROM patients WHERE id = 1")
	if rs.Rows[0][1] != int64(60) {
		t.Fatalf("dbl = %v", rs.Rows[0][1])
	}
	if _, ok := rs.ColIndex("dbl"); !ok {
		t.Fatalf("cols = %v", rs.Cols)
	}
}

func TestSelectOrderBy(t *testing.T) {
	_, s := testDB(t)
	rs := query(t, s, "SELECT name FROM patients ORDER BY age DESC, name ASC")
	want := []string{"Dee", "Bob", "Eve", "Ann", "Cid"}
	for i, w := range want {
		if rs.Rows[i][0] != w {
			t.Fatalf("row %d = %v, want %s (all: %v)", i, rs.Rows[i][0], w, rs.Rows)
		}
	}
}

func TestSelectLimitOffset(t *testing.T) {
	_, s := testDB(t)
	rs := query(t, s, "SELECT id FROM patients ORDER BY id LIMIT 2 OFFSET 1")
	if rs.NumRows() != 2 || rs.Rows[0][0] != int64(2) || rs.Rows[1][0] != int64(3) {
		t.Fatalf("rows = %v", rs.Rows)
	}
}

func TestSelectDistinct(t *testing.T) {
	_, s := testDB(t)
	rs := query(t, s, "SELECT DISTINCT city FROM patients ORDER BY city")
	if rs.NumRows() != 3 {
		t.Fatalf("rows = %v", rs.Rows)
	}
}

func TestSelectInnerJoin(t *testing.T) {
	_, s := testDB(t)
	rs := query(t, s, `SELECT p.name, e.kind FROM patients p
		JOIN encounters e ON e.patient_id = p.id WHERE p.id = 1 ORDER BY e.id`)
	if rs.NumRows() != 2 || rs.Rows[0][1] != "checkup" || rs.Rows[1][1] != "xray" {
		t.Fatalf("rows = %v", rs.Rows)
	}
}

func TestSelectLeftJoinKeepsUnmatched(t *testing.T) {
	_, s := testDB(t)
	rs := query(t, s, `SELECT p.name, e.kind FROM patients p
		LEFT JOIN encounters e ON e.patient_id = p.id ORDER BY p.id`)
	// Ann(2) + Bob(1) + Cid(2) + Dee(NULL) + Eve(NULL) = 7 rows
	if rs.NumRows() != 7 {
		t.Fatalf("rows = %d: %v", rs.NumRows(), rs.Rows)
	}
	last := rs.Rows[rs.NumRows()-1]
	if last[1] != nil {
		t.Fatalf("unmatched right side = %v, want NULL", last[1])
	}
}

func TestSelectJoinUsesIndex(t *testing.T) {
	_, s := testDB(t)
	rs := query(t, s, `SELECT e.kind FROM patients p
		JOIN encounters e ON e.patient_id = p.id WHERE p.id = 3`)
	// 1 patient row via pk index + 2 encounter rows via secondary index.
	if rs.RowsScanned != 3 {
		t.Fatalf("RowsScanned = %d, want 3", rs.RowsScanned)
	}
}

func TestAggregatesGlobal(t *testing.T) {
	_, s := testDB(t)
	rs := query(t, s, "SELECT COUNT(*), SUM(age), AVG(age), MIN(age), MAX(age) FROM patients")
	row := rs.Rows[0]
	if row[0] != int64(5) {
		t.Errorf("count = %v", row[0])
	}
	if row[1] != int64(208) {
		t.Errorf("sum = %v", row[1])
	}
	if row[2] != float64(208)/5 {
		t.Errorf("avg = %v", row[2])
	}
	if row[3] != int64(27) || row[4] != int64(61) {
		t.Errorf("min/max = %v/%v", row[3], row[4])
	}
}

func TestAggregateEmptyTable(t *testing.T) {
	_, s := testDB(t)
	query(t, s, "CREATE TABLE empty (id INT PRIMARY KEY)")
	rs := query(t, s, "SELECT COUNT(*), SUM(id) FROM empty")
	if rs.NumRows() != 1 || rs.Rows[0][0] != int64(0) || rs.Rows[0][1] != nil {
		t.Fatalf("rows = %v", rs.Rows)
	}
}

func TestGroupBy(t *testing.T) {
	_, s := testDB(t)
	rs := query(t, s, "SELECT city, COUNT(*) AS n FROM patients GROUP BY city ORDER BY n DESC, city")
	if rs.NumRows() != 3 {
		t.Fatalf("rows = %v", rs.Rows)
	}
	if rs.Rows[0][0] != "Boston" || rs.Rows[0][1] != int64(2) {
		t.Fatalf("first group = %v", rs.Rows[0])
	}
}

func TestGroupByHaving(t *testing.T) {
	_, s := testDB(t)
	rs := query(t, s, "SELECT patient_id, COUNT(*) FROM encounters GROUP BY patient_id HAVING COUNT(*) > 1 ORDER BY patient_id")
	if rs.NumRows() != 2 {
		t.Fatalf("rows = %v", rs.Rows)
	}
	if rs.Rows[0][0] != int64(1) || rs.Rows[1][0] != int64(3) {
		t.Fatalf("groups = %v", rs.Rows)
	}
}

// TestAggregateExpressions: output and HAVING expressions that wrap
// aggregate calls in IS NULL, BETWEEN, IN or AND/OR compile like any other
// expression, each call reading its group's value. Groups 2 and 4 hold
// only NULL x (one row and two), so NULL-valued aggregates meet
// three-valued AND/OR; the wants are computed by hand.
func TestAggregateExpressions(t *testing.T) {
	s := New().NewSession()
	for _, sql := range []string{
		"CREATE TABLE t (id INT PRIMARY KEY, g INT, x INT)",
		"INSERT INTO t (id, g, x) VALUES (1, 1, 5), (2, 1, NULL), (3, 2, NULL), (4, 3, 7), (5, 3, 9), (6, 3, 1), (7, 4, NULL), (8, 4, NULL)",
	} {
		query(t, s, sql)
	}
	// g: MAX(x), MIN(x), COUNT(*) — 1: 5, 5, 2; 2: NULL, NULL, 1; 3: 9, 1, 3; 4: NULL, NULL, 2.
	for _, tc := range []struct {
		sql  string
		want [][]sqldb.Value
	}{
		{"SELECT g, MAX(x) IS NULL FROM t GROUP BY g",
			[][]sqldb.Value{{int64(1), false}, {int64(2), true}, {int64(3), false}, {int64(4), true}}},
		{"SELECT g FROM t GROUP BY g HAVING MAX(x) IS NULL", [][]sqldb.Value{{int64(2)}, {int64(4)}}},
		{"SELECT g FROM t GROUP BY g HAVING COUNT(*) BETWEEN 2 AND 3", [][]sqldb.Value{{int64(1)}, {int64(3)}, {int64(4)}}},
		{"SELECT g FROM t GROUP BY g HAVING COUNT(*) IN (1)", [][]sqldb.Value{{int64(2)}}},
		{"SELECT MAX(x) IS NULL, COUNT(*) IN (8) FROM t", [][]sqldb.Value{{false, true}}},
		{"SELECT MAX(x) IS NULL FROM t WHERE id > 100", [][]sqldb.Value{{true}}},
		// NULL AND false is false, NULL AND true is NULL (the group drops).
		{"SELECT g FROM t GROUP BY g HAVING MAX(x) > 4 AND COUNT(*) > 1", [][]sqldb.Value{{int64(1)}, {int64(3)}}},
		// NULL OR true is true, NULL OR false is NULL (the group drops).
		{"SELECT g FROM t GROUP BY g HAVING MAX(x) > 6 OR COUNT(*) = 1", [][]sqldb.Value{{int64(2)}, {int64(3)}}},
		{"SELECT g, MAX(x) > 4 AND COUNT(*) > 1, MAX(x) > 6 OR MIN(x) < 2, NOT MAX(x) > 6 FROM t GROUP BY g",
			[][]sqldb.Value{
				{int64(1), true, false, true},
				{int64(2), false, nil, nil},
				{int64(3), true, true, false},
				{int64(4), nil, nil, nil},
			}},
	} {
		rs := query(t, s, tc.sql)
		if fmt.Sprint(rs.Rows) != fmt.Sprint(tc.want) {
			t.Errorf("%s:\n got %v\nwant %v", tc.sql, rs.Rows, tc.want)
		}
	}
}

func TestAggregateFloatSum(t *testing.T) {
	_, s := testDB(t)
	rs := query(t, s, "SELECT SUM(cost) FROM encounters WHERE patient_id = 1")
	if rs.Rows[0][0] != 350.0 {
		t.Fatalf("sum = %v", rs.Rows[0][0])
	}
}

func TestInsertReturnsAffectedAndLastID(t *testing.T) {
	_, s := testDB(t)
	rs := query(t, s, "INSERT INTO patients (id, name, age, city) VALUES (6, 'Fay', 33, 'LA'), (7, 'Gus', 20, 'LA')")
	if rs.RowsAffected != 2 {
		t.Fatalf("affected = %d", rs.RowsAffected)
	}
	if rs.LastInsertID != 7 {
		t.Fatalf("last id = %d", rs.LastInsertID)
	}
}

func TestInsertDuplicatePKFails(t *testing.T) {
	_, s := testDB(t)
	if _, err := s.Exec("INSERT INTO patients (id, name, age, city) VALUES (1, 'X', 1, 'X')"); err == nil {
		t.Fatal("expected duplicate key error")
	}
}

func TestUpdateWithIndex(t *testing.T) {
	_, s := testDB(t)
	rs := query(t, s, "UPDATE patients SET age = age + 1 WHERE id = 1")
	if rs.RowsAffected != 1 || rs.RowsScanned != 1 {
		t.Fatalf("affected/scanned = %d/%d", rs.RowsAffected, rs.RowsScanned)
	}
	check := query(t, s, "SELECT age FROM patients WHERE id = 1")
	if check.Rows[0][0] != int64(31) {
		t.Fatalf("age = %v", check.Rows[0][0])
	}
}

func TestUpdateAllRows(t *testing.T) {
	_, s := testDB(t)
	rs := query(t, s, "UPDATE patients SET city = 'Metro'")
	if rs.RowsAffected != 5 {
		t.Fatalf("affected = %d", rs.RowsAffected)
	}
}

func TestDelete(t *testing.T) {
	_, s := testDB(t)
	rs := query(t, s, "DELETE FROM encounters WHERE patient_id = 1")
	if rs.RowsAffected != 2 {
		t.Fatalf("affected = %d", rs.RowsAffected)
	}
	if q := query(t, s, "SELECT COUNT(*) FROM encounters"); q.Rows[0][0] != int64(3) {
		t.Fatalf("remaining = %v", q.Rows[0][0])
	}
}

func TestInListAndLike(t *testing.T) {
	_, s := testDB(t)
	rs := query(t, s, "SELECT name FROM patients WHERE id IN (1, 3) ORDER BY id")
	if rs.NumRows() != 2 || rs.Rows[0][0] != "Ann" || rs.Rows[1][0] != "Cid" {
		t.Fatalf("rows = %v", rs.Rows)
	}
	rs = query(t, s, "SELECT name FROM patients WHERE city LIKE 'B%'")
	if rs.NumRows() != 2 {
		t.Fatalf("rows = %v", rs.Rows)
	}
}

func TestNullSemantics(t *testing.T) {
	_, s := testDB(t)
	query(t, s, "INSERT INTO patients (id, name, age, city) VALUES (9, 'Nul', NULL, NULL)")
	// NULL never matches equality.
	rs := query(t, s, "SELECT name FROM patients WHERE age = NULL")
	if rs.NumRows() != 0 {
		t.Fatalf("age = NULL matched %d rows", rs.NumRows())
	}
	rs = query(t, s, "SELECT name FROM patients WHERE age IS NULL")
	if rs.NumRows() != 1 || rs.Rows[0][0] != "Nul" {
		t.Fatalf("IS NULL rows = %v", rs.Rows)
	}
	// Aggregates skip NULLs.
	rs = query(t, s, "SELECT COUNT(age) FROM patients")
	if rs.Rows[0][0] != int64(5) {
		t.Fatalf("COUNT(age) = %v, want 5 (NULL skipped)", rs.Rows[0][0])
	}
}

func TestBetween(t *testing.T) {
	_, s := testDB(t)
	rs := query(t, s, "SELECT name FROM patients WHERE age BETWEEN 30 AND 45 ORDER BY id")
	if rs.NumRows() != 3 {
		t.Fatalf("rows = %v", rs.Rows)
	}
}

func TestDivisionByZeroYieldsNull(t *testing.T) {
	_, s := testDB(t)
	rs := query(t, s, "SELECT age / 0 FROM patients WHERE id = 1")
	if rs.Rows[0][0] != nil {
		t.Fatalf("div by zero = %v, want NULL", rs.Rows[0][0])
	}
}

func TestStringConcat(t *testing.T) {
	_, s := testDB(t)
	rs := query(t, s, "SELECT name + '!' FROM patients WHERE id = 1")
	if rs.Rows[0][0] != "Ann!" {
		t.Fatalf("concat = %v", rs.Rows[0][0])
	}
}

func TestErrors(t *testing.T) {
	_, s := testDB(t)
	bad := []string{
		"SELECT * FROM missing",
		"SELECT nocol FROM patients",
		"SELECT id FROM patients p JOIN encounters e ON e.patient_id = p.id", // ambiguous id
		"INSERT INTO patients (id) VALUES (1, 2)",
		"INSERT INTO missing VALUES (1)",
		"UPDATE patients SET nocol = 1",
		"DELETE FROM missing",
		"CREATE INDEX i ON missing (x)",
		"SELECT * FROM patients WHERE name = ?", // missing arg
	}
	for _, sql := range bad {
		if _, err := s.Exec(sql); err == nil {
			t.Errorf("Exec(%q) succeeded, want error", sql)
		}
	}
}

// Property: for random ages, SELECT ... WHERE age >= k returns exactly the
// rows a direct filter over the inserted data would.
func TestQuickFilterMatchesReference(t *testing.T) {
	f := func(ages []uint8, threshold uint8) bool {
		db := New()
		s := db.NewSession()
		if _, err := s.Exec("CREATE TABLE t (id INT PRIMARY KEY, age INT)"); err != nil {
			return false
		}
		want := 0
		for i, a := range ages {
			if _, err := s.Exec(fmt.Sprintf("INSERT INTO t (id, age) VALUES (%d, %d)", i+1, a)); err != nil {
				return false
			}
			if int64(a) >= int64(threshold) {
				want++
			}
		}
		rs, err := s.Exec("SELECT COUNT(*) FROM t WHERE age >= ?", int64(threshold))
		if err != nil {
			return false
		}
		return rs.Rows[0][0] == int64(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: GROUP BY counts always sum to the row count.
func TestQuickGroupCountsSumToTotal(t *testing.T) {
	f := func(cities []uint8) bool {
		db := New()
		s := db.NewSession()
		if _, err := s.Exec("CREATE TABLE t (id INT PRIMARY KEY, city TEXT)"); err != nil {
			return false
		}
		for i, c := range cities {
			city := fmt.Sprintf("c%d", c%5)
			if _, err := s.Exec(fmt.Sprintf("INSERT INTO t (id, city) VALUES (%d, '%s')", i+1, city)); err != nil {
				return false
			}
		}
		rs, err := s.Exec("SELECT city, COUNT(*) FROM t GROUP BY city")
		if err != nil {
			return false
		}
		var total int64
		for _, row := range rs.Rows {
			total += row[1].(int64)
		}
		return total == int64(len(cities))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
