package bench

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/apps/tpcc"
	"repro/internal/apps/tpcw"
	"repro/internal/dispatch"
	"repro/internal/driver"
	"repro/internal/merge"
	"repro/internal/netsim"
	"repro/internal/orm"
	"repro/internal/querystore"
	"repro/internal/sqldb/engine"
)

// These tests are the merge subsystem's golden-equality harness: the
// optimizer must be invisible to every page of both evaluation applications
// (byte-identical HTML) while executing strictly fewer statements on the
// 1+N list pages.

// goldenSuite loads every page with merging off and on under one dispatcher
// kind. The merger's count of what it saved must equal the statements the
// session's connection stopped sending.
func goldenSuite(t *testing.T, id AppID, kind dispatch.Kind) {
	t.Helper()
	env, err := NewEnv(id, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	rtt := 500 * time.Microsecond
	dedupCfg, mergeCfg := querystore.Config{Dispatch: kind}, MergeConfig()
	mergeCfg.Dispatch = kind
	var dedupQueries, mergeQueries, totalSaved int64
	for _, page := range env.Pages() {
		wantHTML, dedupM, err := env.LoadPageHTML(page, orm.ModeSloth, rtt, dedupCfg)
		if err != nil {
			t.Fatal(err)
		}
		gotHTML, mergeM, err := env.LoadPageHTML(page, orm.ModeSloth, rtt, mergeCfg)
		if err != nil {
			t.Fatal(err)
		}
		if wantHTML != gotHTML {
			t.Fatalf("%s %v %q: merged render differs\n--- merge off ---\n%s\n--- merge on ---\n%s",
				id, kind, page, wantHTML, gotHTML)
		}
		if mergeM.Queries > dedupM.Queries {
			t.Errorf("%s %v %q: merging increased statements: %d -> %d", id, kind, page, dedupM.Queries, mergeM.Queries)
		}
		dedupQueries += dedupM.Queries
		mergeQueries += mergeM.Queries
		totalSaved += mergeM.MergeSaved
	}
	if mergeQueries >= dedupQueries {
		t.Fatalf("%s %v: merging saved nothing across the suite: dedup %d, merge %d", id, kind, dedupQueries, mergeQueries)
	}
	if totalSaved != dedupQueries-mergeQueries {
		t.Fatalf("%s %v: MergeSaved accounting off: saved %d, query delta %d", id, kind, totalSaved, dedupQueries-mergeQueries)
	}
	t.Logf("%s %v: %d statements with dedup, %d with merge (%d saved)", id, kind, dedupQueries, mergeQueries, totalSaved)
}

func TestMergeGoldenItracker(t *testing.T) {
	goldenSuite(t, Itracker, dispatch.KindSync)
	goldenSuite(t, Itracker, dispatch.KindAsync)
}

func TestMergeGoldenOpenMRS(t *testing.T) {
	goldenSuite(t, OpenMRS, dispatch.KindSync)
	goldenSuite(t, OpenMRS, dispatch.KindAsync)
}

// TestMergeListPagesStrictlyFewer pins the acceptance criterion on the two
// scaling list pages: with merging enabled they must execute strictly fewer
// server statements than dedup-only batching, with identical output.
func TestMergeListPagesStrictlyFewer(t *testing.T) {
	cases := []struct {
		id   AppID
		page string
	}{
		{Itracker, "module-projects/list projects.jsp"},
		{Itracker, "module-projects/list issues.jsp"},
		{OpenMRS, "encounters/encounterDisplay.jsp"},
	}
	for _, tc := range cases {
		env, err := NewEnv(tc.id, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		rtt := 500 * time.Microsecond
		wantHTML, dedupM, err := env.LoadPageHTML(tc.page, orm.ModeSloth, rtt, querystore.Config{})
		if err != nil {
			t.Fatal(err)
		}
		gotHTML, mergeM, err := env.LoadPageHTML(tc.page, orm.ModeSloth, rtt, MergeConfig())
		if err != nil {
			t.Fatal(err)
		}
		if wantHTML != gotHTML {
			t.Fatalf("%s %q: merged render differs", tc.id, tc.page)
		}
		if mergeM.Queries >= dedupM.Queries {
			t.Fatalf("%s %q: want strictly fewer statements, got %d (dedup %d)",
				tc.id, tc.page, mergeM.Queries, dedupM.Queries)
		}
		t.Logf("%s %q: %d -> %d statements", tc.id, tc.page, dedupM.Queries, mergeM.Queries)
	}
}

// TestMergeAblationLadder checks the off / dedup / merge / agg report rows
// are monotone in executed statements — the agg rung (aggregate + range
// families) must cut statements beyond the equality-only merge baseline —
// and that merging also reduces charged DB time relative to dedup-only
// batching.
func TestMergeAblationLadder(t *testing.T) {
	env, err := NewEnv(Itracker, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := MergeAblation(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("want 4 rows, got %d", len(rep.Rows))
	}
	off, dedup, merged, agg := rep.Rows[0], rep.Rows[1], rep.Rows[2], rep.Rows[3]
	if !(off.Queries > dedup.Queries && dedup.Queries > merged.Queries && merged.Queries > agg.Queries) {
		t.Fatalf("statement ladder not monotone: off %d, dedup %d, merge %d, agg %d",
			off.Queries, dedup.Queries, merged.Queries, agg.Queries)
	}
	if merged.DBTime >= dedup.DBTime {
		t.Fatalf("merging did not reduce DB time: dedup %v, merge %v", dedup.DBTime, merged.DBTime)
	}
	if merged.FamilySaved[merge.FamilyAggregate] != 0 {
		t.Fatalf("equality-only rung saved %d aggregate statements", merged.FamilySaved[merge.FamilyAggregate])
	}
	if agg.FamilySaved[merge.FamilyAggregate] <= 0 {
		t.Fatalf("agg rung saved no aggregate statements: %+v", agg.FamilySaved)
	}
	var famTotal int64
	for _, n := range agg.FamilySaved {
		famTotal += n
	}
	if famTotal != agg.Saved {
		t.Fatalf("per-family saved %d does not sum to total %d", famTotal, agg.Saved)
	}
	if rep.StatementsSaved() != dedup.Queries-agg.Queries {
		t.Fatalf("StatementsSaved = %d, want %d", rep.StatementsSaved(), dedup.Queries-agg.Queries)
	}
	t.Log("\n" + rep.Format())
}

// tpcwChecksum summarizes the mutable TPC-W state touched by the mixes.
func tpcwChecksum(t *testing.T, db *engine.DB) string {
	t.Helper()
	s := db.NewSession()
	var out string
	for _, q := range []string{
		"SELECT COUNT(*) AS n, SUM(o_total) AS s FROM orders",
		"SELECT COUNT(*) AS n, SUM(ol_qty) AS s FROM order_line",
		"SELECT COUNT(*) AS n, SUM(sc_total) AS s FROM shopping_cart",
		"SELECT COUNT(*) AS n, SUM(scl_qty) AS s FROM shopping_cart_line",
	} {
		rs, err := s.Exec(q)
		if err != nil {
			t.Fatal(err)
		}
		out += rs.String()
	}
	return out
}

// TestMergeTPCWEquivalence drives the TPC-W mixes through a merge-enabled
// Sloth store and a plain Sloth store with identical seeds, requiring the
// same final database state: the optimizer must be a no-op on workloads
// that consume every result immediately.
func TestMergeTPCWEquivalence(t *testing.T) {
	run := func(cfg querystore.Config) (*engine.DB, error) {
		db := engine.New()
		if err := tpcw.Seed(db, tpcw.DefaultConfig()); err != nil {
			return nil, err
		}
		clock := netsim.NewVirtualClock()
		srv := driver.NewServer(db, clock, driver.CostModel{})
		conn := srv.Connect(netsim.NewLink(clock, 0))
		client := tpcw.NewClient(tpcc.SlothExecutor{Store: querystore.New(conn, cfg)}, tpcw.DefaultConfig(), 1)
		for _, mix := range tpcw.MixNames {
			for i := 0; i < 40; i++ {
				if err := client.RunMixStep(mix); err != nil {
					return nil, fmt.Errorf("mix %s step %d: %w", mix, i, err)
				}
			}
		}
		return db, nil
	}
	plainDB, err := run(querystore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	mergedDB, err := run(querystore.Config{Merge: merge.Config{Enabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	if want, got := tpcwChecksum(t, plainDB), tpcwChecksum(t, mergedDB); want != got {
		t.Fatalf("TPC-W state diverged under merging\nplain:\n%s\nmerged:\n%s", want, got)
	}
}

// TestMergeTPCCRuns drives every TPC-C transaction type through a
// merge-enabled store: transaction boundaries and write ordering must
// survive the rewrite pass.
func TestMergeTPCCRuns(t *testing.T) {
	db := engine.New()
	cfg := tpcc.DefaultConfig()
	if err := tpcc.Seed(db, cfg); err != nil {
		t.Fatal(err)
	}
	clock := netsim.NewVirtualClock()
	srv := driver.NewServer(db, clock, driver.CostModel{})
	conn := srv.Connect(netsim.NewLink(clock, 0))
	store := querystore.New(conn, querystore.Config{Merge: merge.Config{Enabled: true}})
	client := tpcc.NewClient(tpcc.SlothExecutor{Store: store}, cfg, 1)
	for _, txn := range tpcc.TxnNames {
		for i := 0; i < 25; i++ {
			if err := client.Run(txn); err != nil {
				t.Fatalf("tpcc %s under merge: %v", txn, err)
			}
		}
	}
	if conn.InTxn() {
		t.Fatal("transaction left open under merge")
	}
}

// TestAggregateFamilyBeatsEqualityBaselineOpenMRS pins the acceptance
// criterion on the second app: the aggregate family must cut OpenMRS
// statements beyond the equality-only baseline (the per-visit and per-user
// COUNT fan-outs).
func TestAggregateFamilyBeatsEqualityBaselineOpenMRS(t *testing.T) {
	env, err := NewEnv(OpenMRS, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := MergeAblation(env)
	if err != nil {
		t.Fatal(err)
	}
	eq, ok := rep.Row("merge")
	if !ok {
		t.Fatal("missing merge row")
	}
	agg, ok := rep.Row("agg")
	if !ok {
		t.Fatal("missing agg row")
	}
	if agg.Queries >= eq.Queries {
		t.Fatalf("aggregate family saved nothing on OpenMRS: merge %d, agg %d", eq.Queries, agg.Queries)
	}
	if agg.FamilySaved[merge.FamilyAggregate] <= 0 {
		t.Fatalf("agg rung reports no aggregate-family savings: %+v", agg.FamilySaved)
	}
	t.Log("\n" + rep.Format())
}
