package querystore

import (
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/dispatch"
	"repro/internal/driver"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/sqldb/engine"
)

// faultRunResult is everything one 8-session shared-dispatch run under a
// fault seed produces: per-session error sets, per-session latency samples
// and quantiles, and the hub's recovery accounting.
type faultRunResult struct {
	Errs  [8][]string
	Lats  [8][]time.Duration
	P50   [8]time.Duration
	P95   [8]time.Duration
	P99   [8]time.Duration
	Stats struct {
		Windows, Retries, Errors, Degraded, Coalesced int64
	}
}

// sampleQuantile is the nearest-rank quantile of an ascending sample: the
// ⌈q·n⌉-th smallest value.
func sampleQuantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// chaosSharedRun replays the fixed 8-session workload once. The fault
// schedule is transient-only (drops, a short outage the backoff walks out
// of, and a long outage that exhausts the retry budget) and the breaker is
// off: whole-window outcomes are then independent of entry creation order,
// which is the only scheduler-dependent input, so two runs must agree
// bit-for-bit.
func chaosSharedRun(t *testing.T) faultRunResult {
	t.Helper()
	clock := netsim.NewVirtualClock()
	db := engine.New()
	srv := driver.NewServer(db, clock, driver.DefaultCostModel())
	if _, err := db.NewSession().Exec("CREATE TABLE items (id INT PRIMARY KEY, name TEXT, qty INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.NewSession().Exec("INSERT INTO items (id, name, qty) VALUES (1, 'apple', 5), (2, 'pear', 7), (3, 'fig', 2)"); err != nil {
		t.Fatal(err)
	}
	srv.SetFaults(faults.NewPlane(faults.Config{
		Seed:            0xD15EA5E,
		ExecErrorRate:   0.15,
		LinkTimeoutRate: 0.05,
		Outages: []faults.Outage{
			{Shard: 0, From: 2 * time.Millisecond, To: 3 * time.Millisecond},
			{Shard: 0, From: 5 * time.Millisecond, To: 30 * time.Millisecond},
		},
	}))
	retry := dispatch.RetryPolicy{MaxAttempts: 3}

	hubConn := srv.Connect(netsim.NewLink(netsim.NewVirtualClock(), time.Millisecond))
	hub := dispatch.NewHub(hubConn)
	hub.SetRetry(retry)
	hub.SetWindow(8)

	var clocks [8]*netsim.VirtualClock
	var stores [8]*Store
	for s := range stores {
		clocks[s] = netsim.NewVirtualClock()
		conn := srv.Connect(netsim.NewLink(clocks[s], time.Millisecond))
		stores[s] = New(conn, Config{Dispatch: dispatch.KindShared, Hub: hub, Retry: retry})
	}
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()

	var res faultRunResult
	var mu sync.Mutex
	for round := 0; round < 6; round++ {
		var wg sync.WaitGroup
		for s := 0; s < 8; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				id, err := stores[s].Register("SELECT name FROM items WHERE id = ?", int64((s+round)%3+1))
				if err != nil {
					t.Error(err)
					return
				}
				start := clocks[s].Now()
				_, rerr := stores[s].ResultSet(id)
				lat := clocks[s].Now() - start
				mu.Lock()
				res.Lats[s] = append(res.Lats[s], lat)
				if rerr != nil {
					res.Errs[s] = append(res.Errs[s], rerr.Error())
				}
				mu.Unlock()
			}(s)
		}
		wg.Wait()
	}
	for s := range stores {
		sorted := append([]time.Duration(nil), res.Lats[s]...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		res.P50[s] = sampleQuantile(sorted, 0.50)
		res.P95[s] = sampleQuantile(sorted, 0.95)
		res.P99[s] = sampleQuantile(sorted, 0.99)
		sort.Strings(res.Errs[s])
	}
	hs := hub.Stats()
	res.Stats.Windows, res.Stats.Retries, res.Stats.Errors = hs.Windows, hs.Retries, hs.Errors
	res.Stats.Degraded, res.Stats.Coalesced = hs.Degraded, hs.Coalesced
	return res
}

// TestSharedFaultDeterminism: two runs of the 8-session shared-dispatch
// workload under a fixed fault seed produce identical per-session error
// sets, identical recovery stats, and identical latency samples and
// P50/P95/P99 — the reproducibility bar for the fault plane.
func TestSharedFaultDeterminism(t *testing.T) {
	a := chaosSharedRun(t)
	b := chaosSharedRun(t)
	if t.Failed() {
		return
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed runs diverged:\nrun1 %+v\nrun2 %+v", a, b)
	}
	// The schedule must actually have exercised recovery and failure, or
	// the determinism claim is vacuous.
	if a.Stats.Retries == 0 {
		t.Error("schedule produced no retries")
	}
	if a.Stats.Errors == 0 {
		t.Error("schedule produced no terminal errors")
	}
	var anyErr bool
	for s := range a.Errs {
		anyErr = anyErr || len(a.Errs[s]) > 0
	}
	if !anyErr {
		t.Error("no per-session error sets recorded")
	}
}
