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

// fanout is a parent lookup followed by 31 statements of one template, one
// per key — the shape of the ORM's 1+N fan-out.
func fanout(tmpl string, args func(k int64) []sqldb.Value) []driver.Stmt {
	out := []driver.Stmt{threaded("SELECT id, title FROM projects WHERE id = ?", int64(1))}
	for k := int64(0); k < 31; k++ {
		out = append(out, threaded(tmpl, args(k)...))
	}
	return out
}

func key(k int64) []sqldb.Value { return []sqldb.Value{k} }

// The batch shapes the merge layer sees on the page workloads: a lone
// statement (most batches), a few unrelated templates (nothing merges, every
// statement is analyzed), and the 1+N fan-out of each family.
func benchBatches() map[string][]driver.Stmt {
	return map[string][]driver.Stmt{
		"single": {threaded("SELECT id, name, email FROM users WHERE id = ?", int64(7))},
		"mixed4": {
			threaded("SELECT id, name, email FROM users WHERE id = ?", int64(7)),
			threaded("SELECT COUNT(*) FROM issues WHERE project_id = ?", int64(3)),
			threaded("SELECT id, title FROM issues WHERE created >= ? AND created < ? ORDER BY created", int64(10), int64(20)),
			threaded("SELECT * FROM language_keys WHERE message_key = ? AND locale = 'en'", "greeting"),
		},
		"fanout32": fanout("SELECT id, project_id, title FROM issues WHERE project_id = ? AND status = 'open' ORDER BY id", key),
		"agg32":    fanout("SELECT COUNT(*) FROM issues WHERE project_id = ? AND status = 'open'", key),
	}
}

// mergedRows is the last (merged) statement's result for a fan-out batch:
// three rows per key, the aggregate one group row for every key but the
// last (which exercises zero-row synthesis).
func mergedRows(batch string) *sqldb.ResultSet {
	rs := &sqldb.ResultSet{RowsScanned: 100}
	switch batch {
	case "agg32":
		rs.Cols = []string{"project_id", "COUNT(*)"}
		for k := int64(0); k < 30; k++ {
			rs.Rows = append(rs.Rows, []sqldb.Value{k, 3 + k})
		}
	default:
		rs.Cols = []string{"id", "project_id", "title"}
		for k := int64(0); k < 31; k++ {
			for r := int64(0); r < 3; r++ {
				rs.Rows = append(rs.Rows, []sqldb.Value{100*k + r, k, fmt.Sprintf("issue %d/%d", k, r)})
			}
		}
	}
	return rs
}

// results is one result per rewritten statement, the merged fan-out
// statement (last) carrying mergedRows.
func results(p *merge.Plan, batch string) []*sqldb.ResultSet {
	out := make([]*sqldb.ResultSet, len(p.Stmts))
	for i := range out {
		out[i] = &sqldb.ResultSet{Cols: []string{"id", "title"}}
	}
	if p.Groups() > 0 {
		out[len(out)-1] = mergedRows(batch)
	}
	return out
}

var benchPlan *merge.Plan

// BenchmarkRewrite times the rewrite alone. A merged plan keeps its
// working memory until Demux, so the fan-out iteration demultiplexes empty
// results to hand it back, as a dispatcher's would.
func BenchmarkRewrite(b *testing.B) {
	batches := benchBatches()
	for _, name := range []string{"single", "mixed4", "fanout32"} {
		b.Run(name, func(b *testing.B) {
			m := merge.New(merge.Config{Enabled: true})
			stmts := batches[name]
			empty := make([]*sqldb.ResultSet, len(m.Rewrite(stmts).Stmts))
			for i := range empty {
				empty[i] = &sqldb.ResultSet{Cols: []string{"id", "project_id", "title"}}
			}
			b.ReportAllocs()
			for b.Loop() {
				benchPlan = m.Rewrite(stmts)
				if _, err := benchPlan.Demux(empty); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

var benchDemuxed []*sqldb.ResultSet

// BenchmarkDemux times demultiplexing. A merged plan is single-use, so the
// fan-out sub-benchmarks time one Rewrite + Demux cycle per iteration
// (subtract BenchmarkRewrite/fanout32 for demux alone).
func BenchmarkDemux(b *testing.B) {
	batches := benchBatches()
	for _, bc := range []struct{ name, batch string }{
		{"passthrough", "mixed4"}, {"fanout32", "fanout32"}, {"agg32", "agg32"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			m := merge.New(merge.Config{Enabled: true})
			stmts := batches[bc.batch]
			rs := results(m.Rewrite(stmts), bc.batch)
			b.ReportAllocs()
			for b.Loop() {
				var err error
				if benchDemuxed, err = m.Rewrite(stmts).Demux(rs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
