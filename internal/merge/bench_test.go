package merge_test

import (
	"fmt"
	"testing"

	"repro/internal/driver"
	"repro/internal/merge"
	"repro/internal/sqldb"
	"repro/internal/sqldb/plan"
)

// threaded attaches the interned AST the way the query store does at submit
// time, so the benchmarks measure analysis, not parsing.
func threaded(sql string, args ...sqldb.Value) driver.Stmt {
	parsed, err := plan.ParseCached(sql)
	if err != nil {
		panic(err)
	}
	return driver.Stmt{SQL: sql, Args: args, Parsed: parsed}
}

// The three batch shapes the merge layer sees on the page workloads: a lone
// statement (most batches), a few unrelated templates (nothing merges, every
// statement is analyzed), and the ORM's 1+N fan-out.
func benchBatches() map[string][]driver.Stmt {
	fanout := []driver.Stmt{threaded("SELECT id, title FROM projects WHERE id = ?", int64(1))}
	for i := 0; i < 31; i++ {
		fanout = append(fanout, threaded("SELECT id, project_id, title FROM issues WHERE project_id = ? AND status = 'open' ORDER BY id", int64(i)))
	}
	return map[string][]driver.Stmt{
		"single": {threaded("SELECT id, name, email FROM users WHERE id = ?", int64(7))},
		"mixed4": {
			threaded("SELECT id, name, email FROM users WHERE id = ?", int64(7)),
			threaded("SELECT COUNT(*) FROM issues WHERE project_id = ?", int64(3)),
			threaded("SELECT id, title FROM issues WHERE created >= ? AND created < ? ORDER BY created", int64(10), int64(20)),
			threaded("SELECT * FROM language_keys WHERE message_key = ? AND locale = 'en'", "greeting"),
		},
		"fanout32": fanout,
	}
}

var benchPlan *merge.Plan

func BenchmarkRewrite(b *testing.B) {
	batches := benchBatches()
	for _, name := range []string{"single", "mixed4", "fanout32"} {
		b.Run(name, func(b *testing.B) {
			m := merge.New(merge.Config{Enabled: true})
			stmts := batches[name]
			b.ReportAllocs()
			for b.Loop() {
				benchPlan = m.Rewrite(stmts)
			}
		})
	}
}

var benchDemuxed []*sqldb.ResultSet

func BenchmarkDemux(b *testing.B) {
	batches := benchBatches()
	for _, bc := range []struct{ name, batch string }{{"passthrough", "mixed4"}, {"fanout32", "fanout32"}} {
		b.Run(bc.name, func(b *testing.B) {
			m := merge.New(merge.Config{Enabled: true})
			p := m.Rewrite(batches[bc.batch])
			// One result per rewritten statement; the merged fan-out
			// statement returns three rows per key.
			results := make([]*sqldb.ResultSet, len(p.Stmts))
			for i := range results {
				results[i] = &sqldb.ResultSet{Cols: []string{"id", "project_id", "title"}}
			}
			last := results[len(results)-1]
			for k := 0; k < 31 && bc.name == "fanout32"; k++ {
				for r := 0; r < 3; r++ {
					last.Rows = append(last.Rows, []sqldb.Value{int64(100*k + r), int64(k), fmt.Sprintf("issue %d/%d", k, r)})
				}
			}
			b.ReportAllocs()
			for b.Loop() {
				var err error
				if benchDemuxed, err = p.Demux(results); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
