package bench

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/dispatch"
	"repro/internal/netsim"
	"repro/internal/orm"
	"repro/internal/querystore"
	"repro/internal/sqldb/storage"
)

// TestShardGoldenAllPages is the sharding bar: every page of both
// applications renders byte-identical HTML at 1, 2, and 4 shards under
// every dispatch strategy, and — because the virtual timeline is
// shard-count-independent for merge-off configs — the sync-mode
// PageMetrics (total, app, db, net, trips, queries) are deep-equal to the
// unsharded baseline at every shard count.
func TestShardGoldenAllPages(t *testing.T) {
	const rtt = 500 * time.Microsecond
	kinds := []dispatch.Kind{dispatch.KindSync, dispatch.KindAsync}
	for _, app := range []AppID{Itracker, OpenMRS} {
		base, err := NewEnv(app, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		html := make(map[string]string)
		metrics := make(map[string]PageMetrics)
		for _, page := range base.Pages() {
			h, m, err := base.LoadPageHTML(page, orm.ModeSloth, rtt, querystore.Config{})
			if err != nil {
				t.Fatal(err)
			}
			html[page] = h
			metrics[page] = m
		}
		for _, shards := range []int{1, 2, 4} {
			env, err := NewEnv(app, 1, shards)
			if err != nil {
				t.Fatal(err)
			}
			// The sync pass runs first so its load sequence — and
			// therefore its virtual timeline — mirrors the baseline
			// env's exactly.
			for _, kind := range kinds {
				for _, page := range env.Pages() {
					h, m, err := env.LoadPageHTML(page, orm.ModeSloth, rtt, querystore.Config{Dispatch: kind})
					if err != nil {
						t.Fatalf("%v shards=%d %v %q: %v", app, shards, kind, page, err)
					}
					if h != html[page] {
						t.Fatalf("%v shards=%d %v %q: HTML diverged from unsharded baseline", app, shards, kind, page)
					}
					if kind == dispatch.KindSync && !reflect.DeepEqual(m, metrics[page]) {
						t.Errorf("%v shards=%d %q: metrics diverged\n got %+v\nwant %+v", app, shards, page, m, metrics[page])
					}
				}
			}
		}
	}
}

// TestShardHammerPinnedWriter is the race hammer: four sessions replay
// shard-spanning read batches (page loads fan scans across all four
// shards) while a pipelined writer mutates a single shard — every key it
// inserts hashes to shard 0. Run under `go test -race` this exercises the
// cross-shard snapshot gate against single-shard version-chain writes.
func TestShardHammerPinnedWriter(t *testing.T) {
	const rtt = 500 * time.Microsecond
	env, err := NewEnv(Itracker, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	env.Srv.SetWorkers(2)
	if _, err := env.Srv.DB().NewSession().Exec(visitSchema); err != nil {
		t.Fatal(err)
	}
	var ids []int64
	for id := int64(1); len(ids) < 128; id++ {
		if storage.ShardOf(id, 4) == 0 {
			ids = append(ids, id)
		}
	}
	pages := env.Pages()[:3]

	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			clock := netsim.NewVirtualClock()
			conn := env.Srv.Connect(netsim.NewLink(clock, rtt))
			store := querystore.New(conn, querystore.Config{Dispatch: dispatch.KindAsync})
			defer store.Close()
			sess := orm.NewSession(store, orm.ModeSloth)
			for round := 0; round < 4; round++ {
				for _, p := range pages {
					sess.Clear()
					if _, err := env.LoadInto(p, sess); err != nil {
						errc <- err
						return
					}
				}
			}
			if err := store.Flush(); err != nil {
				errc <- err
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		clock := netsim.NewVirtualClock()
		conn := env.Srv.Connect(netsim.NewLink(clock, rtt))
		store := querystore.New(conn, querystore.Config{Dispatch: dispatch.KindAsync, PipelineWrites: true})
		defer store.Close()
		sess := orm.NewSession(store, orm.ModeSloth)
		for _, id := range ids {
			if err := visitMeta.Insert(sess, &visit{ID: id, Session: 0, Page: id}); err != nil {
				errc <- err
				return
			}
		}
		if err := store.Flush(); err != nil {
			errc <- err
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	rs, err := env.Srv.DB().NewSession().Exec("SELECT id FROM access_log")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != len(ids) {
		t.Fatalf("writer landed %d rows, want %d", len(rs.Rows), len(ids))
	}
}

// TestShardThroughputWins is the performance acceptance: at 8 sessions on
// a DB-bound page (the concept-stats aggregation over the scaled
// dictionary spends ~60% of its load inside the database), partitioning
// the database 4 ways (2 workers per shard) must beat the unsharded
// server on pages per second. The win comes from the occupancy model's
// share split: each shard scans only its partition, so a scatter's
// per-lane reservation is a quarter of the batch cost and eight sessions'
// scans overlap across shard groups instead of queueing on one.
func TestShardThroughputWins(t *testing.T) {
	rep, err := ConcurrentThroughput(OpenMRS, ThroughputOptions{
		Sessions: []int{8},
		Kinds:    []dispatch.Kind{dispatch.KindSync},
		Workers:  []int{2},
		Shards:   []int{1, 4},
		Scale:    4,
		Pages:    []string{"dictionary/conceptStatsForm.jsp"},
		RTT:      500 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	one, ok := rep.RowSharded(dispatch.KindSync, false, 8, 2, 1)
	if !ok {
		t.Fatal("missing 1-shard row")
	}
	four, ok := rep.RowSharded(dispatch.KindSync, false, 8, 2, 4)
	if !ok {
		t.Fatal("missing 4-shard row")
	}
	t.Logf("1 shard: %.1f pages/s, 4 shards: %.1f pages/s (%.2fx)", one.Rate, four.Rate, four.Rate/one.Rate)
	if four.Rate <= one.Rate {
		t.Errorf("4 shards (%.1f pages/s) did not beat 1 shard (%.1f pages/s) at 8 sessions", four.Rate, one.Rate)
	}
	if four.QueueWait >= one.QueueWait {
		t.Errorf("4 shards queued %v, not less than 1 shard's %v", four.QueueWait, one.QueueWait)
	}
}
