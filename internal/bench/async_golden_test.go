package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"repro/internal/dispatch"
	"repro/internal/netsim"
	"repro/internal/orm"
	"repro/internal/querystore"
)

// TestAsyncTimelineGolden pins the deferred dispatcher's virtual timeline:
// for every Sloth-mode page of both applications at 500 µs, each load's
// HTML, its virtual-clock metrics and the dispatcher's batch counters hash
// into one digest per configuration, and the async waterfalls of the trace
// golden pages hash into one more. Where and on which goroutine a deferred
// batch executes may change; what any load observes, when it completes on
// the virtual clock and how much round-trip time it hides may not.
func TestAsyncTimelineGolden(t *testing.T) {
	async := querystore.Config{Dispatch: dispatch.KindAsync}
	pipelined := async
	pipelined.PipelineWrites = true
	merged := MergeConfig()
	merged.Dispatch = dispatch.KindAsync
	for _, tc := range []struct {
		name string
		cfg  querystore.Config
		want string
	}{
		{"async", async, "4c8bb683704112b5d4dc652a759202e981f1c47566f1608f402edb566d2a1e1f"},
		{"async+pipelined-writes", pipelined, "3f35651059e78083830e00af1c97b917ac3677b35d59182900338422a10405c4"},
		{"async+merge", merged, "e642ef4bbbaa2f2b04ccfc3ecb2a281c586495e03848ca676267e521e2e75658"},
	} {
		if got := asyncSuiteDigest(t, tc.cfg); got != tc.want {
			t.Errorf("%s: digest %s, want %s", tc.name, got, tc.want)
		}
	}

	h := sha256.New()
	for _, tc := range traceGoldenPages {
		w, _ := tracedWaterfall(t, tc.id, tc.page, dispatch.KindAsync, 1)
		fmt.Fprintf(h, "%v %q\n%s", tc.id, tc.page, w)
	}
	if got, want := hex.EncodeToString(h.Sum(nil)), "225c178ebb5600cfd86e8e94a46ffda525e982c711b73fecaa1bfa24694a2dc5"; got != want {
		t.Errorf("async waterfall: digest %s, want %s", got, want)
	}
}

// asyncSuiteDigest loads every page of both applications in Sloth mode on a
// fresh environment each, one fresh session per load that first records the
// throughput workload's visit-log write, and hashes everything the load
// observed.
func asyncSuiteDigest(t *testing.T, cfg querystore.Config) string {
	t.Helper()
	const rtt = 500 * time.Microsecond
	h := sha256.New()
	for _, id := range []AppID{Itracker, OpenMRS} {
		env := freshEnv(t, id)
		if _, err := env.Srv.DB().NewSession().Exec(visitSchema); err != nil {
			t.Fatal(err)
		}
		for p, page := range env.Pages() {
			link := netsim.NewLink(env.Clock, rtt)
			conn := env.Srv.Connect(link)
			store := querystore.New(conn, cfg)
			sess := orm.NewSession(store, orm.ModeSloth)
			dbBefore, start := env.Srv.Stats().DBTime, env.Clock.Now()
			if err := visitMeta.Insert(sess, &visit{ID: int64(p) + 1, Page: int64(p)}); err != nil {
				t.Fatalf("%v %q: visit: %v", id, page, err)
			}
			res, err := env.LoadInto(page, sess)
			if err != nil {
				t.Fatalf("%v %q: %v", id, page, err)
			}
			if err := store.Close(); err != nil {
				t.Fatalf("%v %q: close: %v", id, page, err)
			}
			qs, ms, ds := store.Stats(), store.MergeStats(), store.Dispatcher().Stats()
			fmt.Fprintf(h, "%v %q\n%s\ntotal=%v app=%v db=%v queries=%d\n%+v\n", id, page, res.HTML,
				env.Clock.Now()-start, res.AppTime, env.Srv.Stats().DBTime-dbBefore, conn.QueriesSent(), link.Stats())
			fmt.Fprintf(h, "registered=%d dedup=%d executed=%d batches=%d max=%d forced=%d thunks=%d\n",
				qs.Registered, qs.DedupHits, qs.Executed, qs.Batches, qs.MaxBatch, qs.ForcedByWrite, qs.ThunkAllocs)
			fmt.Fprintf(h, "saved=%d groups=%d families=%v\nsubmitted=%d out=%d overlap=%v\n",
				ms.Saved, ms.Groups, ms.SavedByFamily, ds.Submitted, ds.StmtsOut, ds.OverlapSaved)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
