package orm

import (
	"testing"

	"repro/internal/querystore"
	"repro/internal/sqldb"
)

// BenchmarkHydrate measures ResultSet -> entity materialization alone: no
// registration, no execution. Each iteration hydrates into an identity map
// that was just cleared, as every request's first load of a row does.
func BenchmarkHydrate(b *testing.B) {
	m := MustRegister[Encounter]("encounters")
	for _, rows := range []struct {
		name string
		n    int
	}{{"1row", 1}, {"30rows", 30}} {
		rs := &sqldb.ResultSet{Cols: []string{"id", "patient_id", "kind"}}
		for i := 0; i < rows.n; i++ {
			rs.Rows = append(rs.Rows, []sqldb.Value{int64(100 + i), int64(1), "checkup"})
		}
		b.Run(rows.name, func(b *testing.B) {
			s := NewSession(querystore.New(nil, querystore.Config{}), ModeSloth)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				es, err := m.deserialize(s, rs)
				if err != nil || len(es) != rows.n {
					b.Fatal(len(es), err)
				}
				clear(s.identity)
			}
		})
	}
}
