package engine

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/sqldb"
)

// Property tests over the relational operators, complementing the
// example-based suite in engine_test.go.

// seedRandom builds a table from a generated value list.
func seedRandom(vals []int16) (*Session, error) {
	db := New()
	s := db.NewSession()
	if _, err := s.Exec("CREATE TABLE q (id INT PRIMARY KEY, v INT)"); err != nil {
		return nil, err
	}
	for i, v := range vals {
		if _, err := s.Exec(fmt.Sprintf("INSERT INTO q (id, v) VALUES (%d, %d)", i+1, v)); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Property: ORDER BY v produces a non-decreasing column.
func TestQuickOrderBySorted(t *testing.T) {
	f := func(vals []int16) bool {
		s, err := seedRandom(vals)
		if err != nil {
			return false
		}
		rs, err := s.Exec("SELECT v FROM q ORDER BY v")
		if err != nil {
			return false
		}
		if rs.NumRows() != len(vals) {
			return false
		}
		for i := 1; i < rs.NumRows(); i++ {
			if rs.Rows[i-1][0].(int64) > rs.Rows[i][0].(int64) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: LIMIT n never returns more than n rows, and LIMIT+OFFSET
// partitions ORDER BY output consistently.
func TestQuickLimitOffsetPartition(t *testing.T) {
	f := func(vals []int16, rawN, rawOff uint8) bool {
		s, err := seedRandom(vals)
		if err != nil {
			return false
		}
		n := int(rawN%7) + 1
		off := int(rawOff % 7)
		full, err := s.Exec("SELECT id FROM q ORDER BY v, id")
		if err != nil {
			return false
		}
		part, err := s.Exec(fmt.Sprintf("SELECT id FROM q ORDER BY v, id LIMIT %d OFFSET %d", n, off))
		if err != nil {
			return false
		}
		if part.NumRows() > n {
			return false
		}
		for i := 0; i < part.NumRows(); i++ {
			if off+i >= full.NumRows() {
				return false
			}
			if part.Rows[i][0] != full.Rows[off+i][0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: SELECT DISTINCT v has no duplicates and covers exactly the
// distinct input values.
func TestQuickDistinctExact(t *testing.T) {
	f := func(vals []int16) bool {
		s, err := seedRandom(vals)
		if err != nil {
			return false
		}
		rs, err := s.Exec("SELECT DISTINCT v FROM q")
		if err != nil {
			return false
		}
		want := map[int64]bool{}
		for _, v := range vals {
			want[int64(v)] = true
		}
		seen := map[int64]bool{}
		for _, row := range rs.Rows {
			v := row[0].(int64)
			if seen[v] || !want[v] {
				return false
			}
			seen[v] = true
		}
		return len(seen) == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: an equality lookup through an index (primary key, INT, FLOAT)
// finds the rows a scan finds and an UPDATE through it affects as many,
// whichever numeric type spells the key — the column's own, the other one
// with an equal value, or a float no INT equals — on a plain store and a
// sharded one.
func TestQuickIndexAgreesWithScan(t *testing.T) {
	f := func(vals []int16, probe uint8, sharded bool) bool {
		db := New()
		if sharded {
			db = NewSharded(2)
		}
		s := db.NewSession()
		for _, sql := range []string{
			"CREATE TABLE q (id INT PRIMARY KEY, v INT, w FLOAT)",
			"CREATE INDEX q_v ON q (v)",
			"CREATE INDEX q_w ON q (w)",
		} {
			if _, err := s.Exec(sql); err != nil {
				t.Log(err)
				return false
			}
		}
		for i, v := range vals {
			if _, err := s.Exec("INSERT INTO q (id, v, w) VALUES (?, ?, ?)", int64(i+1), int64(v%8), float64(v%8)); err != nil {
				t.Log(err)
				return false
			}
		}
		for _, col := range []string{"id", "v", "w"} {
			k := int64(probe%16) - 7
			if col == "id" {
				k += 8
			}
			for _, key := range []sqldb.Value{k, float64(k), float64(k) + 0.5} {
				// col + 0 defeats the index matcher, forcing a scan.
				byIndex, err1 := s.Exec("SELECT id FROM q WHERE "+col+" = ?", key)
				byScan, err2 := s.Exec("SELECT id FROM q WHERE "+col+" + 0 = ?", key)
				upIndex, err3 := s.Exec("UPDATE q SET v = v WHERE "+col+" = ?", key)
				upScan, err4 := s.Exec("UPDATE q SET v = v WHERE "+col+" + 0 = ?", key)
				if err := errors.Join(err1, err2, err3, err4); err != nil {
					t.Log(err)
					return false
				}
				if fmt.Sprint(byIndex.Rows) != fmt.Sprint(byScan.Rows) || upIndex.RowsAffected != upScan.RowsAffected {
					t.Logf("%s = %v (%T, sharded=%v): index %v, %d updated; scan %v, %d updated",
						col, key, key, sharded, byIndex.Rows, upIndex.RowsAffected, byScan.Rows, upScan.RowsAffected)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: SUM(v) equals the Go-side sum of inserted values.
func TestQuickSumMatchesReference(t *testing.T) {
	f := func(vals []int16) bool {
		s, err := seedRandom(vals)
		if err != nil {
			return false
		}
		rs, err := s.Exec("SELECT SUM(v) AS total FROM q")
		if err != nil {
			return false
		}
		var want int64
		for _, v := range vals {
			want += int64(v)
		}
		got, _ := rs.Get(0, "total")
		if len(vals) == 0 {
			return got == nil // SUM over empty is NULL
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
