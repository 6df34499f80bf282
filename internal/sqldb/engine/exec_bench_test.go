package engine

import (
	"fmt"
	"testing"

	"repro/internal/sqldb"
	"repro/internal/sqldb/plan"
)

// benchSession seeds a three-table database shaped like the golden
// workloads: kv (point lookups, IN lists, aggregates), tags (join fan-out)
// and obs (unindexed scans under a conjunction, as OpenMRS's
// conceptStatsForm counts over its obs table).
func benchSession(b *testing.B) *Session {
	b.Helper()
	db := New()
	s := db.NewSession()
	mustExec := func(sql string, args ...sqldb.Value) {
		if _, err := s.Exec(sql, args...); err != nil {
			b.Fatalf("%s: %v", sql, err)
		}
	}
	mustExec("CREATE TABLE kv (id INT PRIMARY KEY, grp INT, v TEXT)")
	mustExec("CREATE INDEX idx_kv_grp ON kv (grp)")
	mustExec("CREATE TABLE tags (id INT PRIMARY KEY, kv_id INT, label TEXT)")
	mustExec("CREATE INDEX idx_tags_kv ON tags (kv_id)")
	mustExec("CREATE TABLE obs (id INT PRIMARY KEY, concept INT, val FLOAT)")
	n := 512
	for i := 1; i <= n; i++ {
		mustExec("INSERT INTO kv (id, grp, v) VALUES (?, ?, ?)",
			int64(i), int64(i%32), fmt.Sprintf("value-%d", i))
		mustExec("INSERT INTO tags (id, kv_id, label) VALUES (?, ?, ?)",
			int64(i), int64(i), fmt.Sprintf("tag-%d", i%7))
		mustExec("INSERT INTO obs (id, concept, val) VALUES (?, ?, ?)",
			int64(i), int64(i%8), float64(i%100))
	}
	return s
}

// execCases are the access shapes the golden suites exercise hardest, plus
// one case per remaining arm of the SELECT sink (source-row ORDER BY keys,
// grouped accumulation, LEFT JOIN with hits and misses).
var execCases = []struct {
	name string
	sql  string
	args func(i int) []sqldb.Value
}{
	{"point", "SELECT id, v FROM kv WHERE id = ?",
		func(i int) []sqldb.Value { return []sqldb.Value{int64(i%512 + 1)} }},
	{"in", "SELECT id, grp, v FROM kv WHERE grp IN (?, ?, ?, ?)",
		func(i int) []sqldb.Value {
			g := int64(i % 29)
			return []sqldb.Value{g, g + 1, g + 2, g + 3}
		}},
	{"join", "SELECT k.id, t.label FROM kv k JOIN tags t ON t.kv_id = k.id WHERE k.grp = ?",
		func(i int) []sqldb.Value { return []sqldb.Value{int64(i % 32)} }},
	{"aggregate", "SELECT COUNT(*), SUM(id) FROM kv WHERE grp = ?",
		func(i int) []sqldb.Value { return []sqldb.Value{int64(i % 32)} }},
	{"distinct", "SELECT DISTINCT grp FROM kv", func(i int) []sqldb.Value { return nil }},
	{"scan", "SELECT id, v FROM kv WHERE id > ?",
		func(i int) []sqldb.Value { return []sqldb.Value{int64(256)} }},
	{"order-src", "SELECT id, grp FROM kv WHERE grp = ? ORDER BY v DESC",
		func(i int) []sqldb.Value { return []sqldb.Value{int64(i % 32)} }},
	{"group", "SELECT grp, COUNT(*) FROM kv GROUP BY grp", func(i int) []sqldb.Value { return nil }},
	{"left-join", "SELECT k.id, t.label FROM kv k LEFT JOIN tags t ON t.kv_id = k.id + 256 WHERE k.grp = ?",
		func(i int) []sqldb.Value { return []sqldb.Value{int64(i % 32)} }},
	// Unindexed scans: a three-atom conjunction with int arguments on a
	// FLOAT column, and a string equality on a TEXT column.
	{"scan-conj", "SELECT COUNT(*) FROM obs WHERE concept = ? AND val >= ? AND val < ?",
		func(i int) []sqldb.Value { return []sqldb.Value{int64(i % 8), int64(10), int64(50)} }},
	{"scan-str", "SELECT id FROM kv WHERE v = ?",
		func(i int) []sqldb.Value { return []sqldb.Value{fmt.Sprintf("value-%d", i%512+1)} }},
}

// BenchmarkExecSelect measures end-to-end Session.Exec (parse + plan +
// execute) for each shape, cache-on vs cache-off. Cache-off re-parses and
// recompiles per call — the prepared-plan layer's contribution is the gap
// between the two modes.
func BenchmarkExecSelect(b *testing.B) {
	for _, mode := range []string{"cache-on", "cache-off"} {
		for _, c := range execCases {
			b.Run(mode+"/"+c.name, func(b *testing.B) {
				prev := plan.SetCaching(true) // seed fast in either mode
				defer plan.SetCaching(prev)
				s := benchSession(b)
				plan.SetCaching(mode == "cache-on")
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := s.Exec(c.sql, c.args(i)...); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
