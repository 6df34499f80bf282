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
)

// newTyped builds an engine over a table whose match columns cover every
// key type class demux distinguishes — INT (indexed), TEXT, BOOL and a FLOAT
// column holding mostly integral values, so int keys find rows there through
// numeric promotion — each with some NULL cells.
func newTyped(t *testing.T) *driver.Conn {
	t.Helper()
	db := engine.New()
	s := db.NewSession()
	for _, ddl := range []string{
		"CREATE TABLE dm (id INT PRIMARY KEY, grp INT, tag TEXT, flag BOOL, score FLOAT)",
		"CREATE INDEX idx_dm_grp ON dm (grp)",
	} {
		if _, err := s.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	orNull := func(null bool, v sqldb.Value) sqldb.Value {
		if null {
			return nil
		}
		return v
	}
	for i := 1; i <= 60; i++ {
		score := float64(i % 8)
		if i%7 == 0 {
			score += 0.5
		}
		if _, err := s.Exec("INSERT INTO dm (id, grp, tag, flag, score) VALUES (?, ?, ?, ?, ?)",
			int64(i), orNull(i%9 == 0, int64(i%7)), orNull(i%13 == 0, fmt.Sprintf("t%d", i%5)),
			orNull(i%10 == 0, i%3 == 0), orNull(i%11 == 0, score)); err != nil {
			t.Fatal(err)
		}
	}
	clock := netsim.NewVirtualClock()
	return driver.NewServer(db, clock, driver.DefaultCostModel()).Connect(netsim.NewLink(clock, 0))
}

// genDemuxBatch draws one read batch for the typed table: equality and
// aggregate templates over int, string, bool and float keys, int keys
// against the FLOAT column, and a range template that never merges. Key
// domains are small, so duplicates (dedup is off: each statement is
// submitted as drawn) and keys with no rows are common. One batch in four is a single family of 70..170
// members over a wide key domain, so its IN list splits at MaxInWidth and
// most of its aggregate keys need a synthesized zero row.
func genDemuxBatch(r *rand.Rand) []driver.Stmt {
	intKey := func(n int) sqldb.Value { return int64(r.Intn(n)) }
	templates := []func() driver.Stmt{
		func() driver.Stmt { return q("SELECT id, grp FROM dm WHERE grp = ?", intKey(10)) },
		func() driver.Stmt { return q("SELECT id, grp, tag FROM dm WHERE grp = ? ORDER BY id DESC", intKey(10)) },
		func() driver.Stmt { return q("SELECT id, score FROM dm WHERE score = ?", intKey(10)) },
		func() driver.Stmt { return q("SELECT id, score FROM dm WHERE score = ?", float64(r.Intn(20))/2) },
		func() driver.Stmt { return q("SELECT id, tag FROM dm WHERE tag = ?", fmt.Sprintf("t%d", r.Intn(7))) },
		func() driver.Stmt { return q("SELECT * FROM dm WHERE flag = ?", r.Intn(2) == 0) },
		func() driver.Stmt { return q("SELECT COUNT(*), SUM(score) FROM dm WHERE grp = ?", intKey(10)) },
		func() driver.Stmt {
			return q("SELECT COUNT(*) AS n, MAX(id) FROM dm WHERE tag = ?", fmt.Sprintf("t%d", r.Intn(7)))
		},
		func() driver.Stmt { return q("SELECT COUNT(*) FROM dm WHERE score = ?", intKey(10)) },
		func() driver.Stmt {
			return q("SELECT MIN(id) FROM dm WHERE flag = ? AND grp > ?", r.Intn(2) == 0, intKey(4))
		},
		func() driver.Stmt {
			lo := float64(r.Intn(16)) / 2
			return q("SELECT id, score FROM dm WHERE score BETWEEN ? AND ?", lo, lo+float64(r.Intn(4)))
		},
	}
	if r.Intn(4) == 0 {
		n := 70 + r.Intn(100)
		stmts := make([]driver.Stmt, n)
		tmpl := r.Intn(3)
		for i := range stmts {
			k := int64(r.Intn(2 * n))
			switch tmpl {
			case 0:
				stmts[i] = q("SELECT id, grp FROM dm WHERE id = ?", k)
			case 1:
				stmts[i] = q("SELECT COUNT(*) FROM dm WHERE grp = ?", k%40)
			default:
				stmts[i] = q("SELECT id, tag FROM dm WHERE tag = ?", fmt.Sprintf("t%d", k))
			}
		}
		return stmts
	}
	var pool []func() driver.Stmt
	for i := 0; i < 1+r.Intn(3); i++ {
		pool = append(pool, templates[r.Intn(len(templates))])
	}
	stmts := make([]driver.Stmt, 1+r.Intn(16))
	for i := range stmts {
		stmts[i] = pool[r.Intn(len(pool))]()
	}
	return stmts
}

// TestDemuxMatchesAloneGenerated: on seeded batches, every original gets
// from the merged statement exactly what its own execution returns —
// columns, the bag of rows in order — and the pro-rated scan counts add up
// to what the rewritten batch scanned.
func TestDemuxMatchesAloneGenerated(t *testing.T) {
	conn := newTyped(t)
	m := merge.New(merge.Config{Enabled: true})
	r := rand.New(rand.NewSource(20141022))
	split := 0 // wide batches whose one family needed more than one merged statement
	for b := 0; b < 300; b++ {
		stmts := genDemuxBatch(r)
		p := m.Rewrite(stmts)
		results, err := conn.ExecBatch(p.Stmts)
		if err != nil {
			t.Fatalf("batch %d: rewritten batch failed: %v\n%v", b, err, p.Stmts)
		}
		got, err := p.Demux(results)
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		scanned, demuxed := 0, 0
		for _, rs := range results {
			scanned += rs.RowsScanned
		}
		for i, st := range stmts {
			want, err := conn.ExecBatch([]driver.Stmt{st})
			if err != nil {
				t.Fatalf("batch %d stmt %d alone: %v", b, i, err)
			}
			if !reflect.DeepEqual(want[0].Cols, got[i].Cols) || !reflect.DeepEqual(want[0].Rows, got[i].Rows) {
				t.Fatalf("batch %d stmt %d %q %v differs under merge\nalone:  %v %v\nmerged: %v %v",
					b, i, st.SQL, st.Args, want[0].Cols, want[0].Rows, got[i].Cols, got[i].Rows)
			}
			demuxed += got[i].RowsScanned
		}
		if demuxed != scanned {
			t.Fatalf("batch %d: demuxed scan counts sum to %d, the rewritten batch scanned %d", b, demuxed, scanned)
		}
		if len(stmts) > merge.MaxInWidth && len(p.Stmts) > 1 {
			split++
		}
	}
	st := m.Stats()
	if split == 0 || st.GroupsByFamily[merge.FamilyEquality] == 0 || st.GroupsByFamily[merge.FamilyAggregate] == 0 {
		t.Errorf("generator missed a case: %d split wide batches, %+v", split, st)
	}
}

// TestDemuxTwiceErrors: a merged plan gives its working memory back at
// Demux, so a second Demux must fail instead of returning stale rows; a
// pass-through plan's Demux stays the identity.
func TestDemuxTwiceErrors(t *testing.T) {
	m := merge.New(merge.Config{Enabled: true})
	p := m.Rewrite([]driver.Stmt{point(1), point(2)})
	rs := []*sqldb.ResultSet{{Cols: []string{"id", "v"}, Rows: [][]sqldb.Value{{int64(1), "a"}, {int64(2), "b"}}}}
	if _, err := p.Demux(rs); err != nil {
		t.Fatal(err)
	}
	if out, err := p.Demux(rs); err == nil {
		t.Fatalf("second Demux of a merged plan returned %v, want an error", out)
	}

	pass := m.Rewrite([]driver.Stmt{point(1)})
	if pass.Groups() != 0 || len(pass.Stmts) != 1 {
		t.Fatalf("a lone statement must pass through: %v", pass.Stmts)
	}
	one := rs[:1]
	for range 2 {
		if out, err := pass.Demux(one); err != nil || !reflect.DeepEqual(out, one) {
			t.Fatalf("pass-through Demux = %v, %v; want the identity", out, err)
		}
	}
}

// TestInterleavedRewritesIsolated: each goroutine keeps two Mergers' plans
// open at once — rewrite on one, rewrite on the other, then demux both — so
// a scratch shared between open plans, or between goroutines, shows up as a
// wrong row here or as a race under -race.
func TestInterleavedRewritesIsolated(t *testing.T) {
	var wg sync.WaitGroup
	for g := range 3 {
		conn := newTyped(t)
		wg.Add(1)
		go func() {
			defer wg.Done()
			a, b := merge.New(merge.Config{Enabled: true}), merge.New(merge.Config{Enabled: true})
			r := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 60; i++ {
				sa, sb := genDemuxBatch(r), genDemuxBatch(r)
				pa, pb := a.Rewrite(sa), b.Rewrite(sb)
				for _, c := range []struct {
					p     *merge.Plan
					stmts []driver.Stmt
				}{{pb, sb}, {pa, sa}} {
					results, err := conn.ExecBatch(c.p.Stmts)
					if err != nil {
						t.Error(err)
						return
					}
					got, err := c.p.Demux(results)
					if err != nil {
						t.Error(err)
						return
					}
					for k, st := range c.stmts {
						want, err := conn.ExecBatch([]driver.Stmt{st})
						if err != nil || !reflect.DeepEqual(want[0].Rows, got[k].Rows) {
							t.Errorf("goroutine %d batch %d stmt %d %q %v: alone %v (%v), merged %v",
								g, i, k, st.SQL, st.Args, want[0].Rows, err, got[k].Rows)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestDemuxAllocBudget pins what demultiplexing allocates: nothing for a
// pass-through plan, and for the 1+N fan-out one Rewrite + Demux cycle
// allocates six objects — the plan, its statement list, the merged
// statement's arguments, and the output, ResultSet and row slabs (125 for
// the demux alone before it routed each row once).
func TestDemuxAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	batches := benchBatches()
	m := merge.New(merge.Config{Enabled: true})
	for name, budget := range map[string]float64{"fanout32": 6, "agg32": 7, "mixed4": 0} {
		stmts := batches[name]
		rs := results(m.Rewrite(stmts), name)
		cycle := func() {
			if _, err := m.Rewrite(stmts).Demux(rs); err != nil {
				t.Fatal(err)
			}
		}
		cycle() // warm the shape and text caches and the scratch pool
		if name == "mixed4" {
			p := m.Rewrite(stmts)
			cycle = func() {
				if _, err := p.Demux(rs); err != nil {
					t.Fatal(err)
				}
			}
		}
		if got := testing.AllocsPerRun(200, cycle); got > budget {
			t.Errorf("%s: %v allocs, budget %v", name, got, budget)
		}
	}
}
