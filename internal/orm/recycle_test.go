package orm

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dispatch"
	"repro/internal/driver"
	"repro/internal/netsim"
	"repro/internal/querystore"
)

// These tests pin request-end recycling: a session borrows its identity map
// and its store borrows a queue and dedup table; Close gives all three back.
// A session never sees an entity through a map another session borrowed,
// and a per-request cycle costs what a reused session does.

// patientRange seeds patients first..first+n-1 on srv.
func patientRange(t *testing.T, srv *driver.Server, first, n int) {
	t.Helper()
	conn := srv.Connect(netsim.NewLink(netsim.NewVirtualClock(), 0))
	for id := first; id < first+n; id++ {
		if _, err := conn.Query("INSERT INTO patients (id, name, age) VALUES (?, ?, ?)",
			int64(id), fmt.Sprintf("p%d", id), int64(id%90)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestClosedSessionStartsFresh: after its store closes, a session's next
// Find starts from an empty identity map, and the session that borrows the
// returned map sees none of the entities the first one loaded.
func TestClosedSessionStartsFresh(t *testing.T) {
	f := newFixture(FetchLazy, FetchLazy)
	srv, clock := clinic(t)
	open := func() *Session {
		conn := srv.Connect(netsim.NewLink(clock, time.Millisecond))
		return NewSession(querystore.New(conn, querystore.Config{}), ModeSloth)
	}
	first := open()
	ann, err := f.patients.FindNow(first, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	if first.identity != nil {
		t.Fatal("a closed session keeps its identity map")
	}

	second := open()
	again, err := f.patients.FindNow(second, 1)
	if err != nil {
		t.Fatal(err)
	}
	if again == ann || second.Stats().IdentityHits != 0 {
		t.Fatalf("a new session was handed the closed session's entity (hits %d)", second.Stats().IdentityHits)
	}
	after, err := f.patients.FindNow(first, 1)
	if err != nil {
		t.Fatal(err)
	}
	if after == ann || after == again || first.Stats().IdentityHits != 0 {
		t.Fatalf("the closed session found an entity it had loaded before Close (hits %d)", first.Stats().IdentityHits)
	}
	if ann.Name != "Ann" || after.Name != "Ann" {
		t.Fatalf("entities %+v, %+v", ann, after)
	}
	// A second Close gives the map back once; the session borrows again.
	first.Close()
	first.Close()
	if _, err := f.patients.FindNow(first, 2); err != nil || len(first.identity) != 1 {
		t.Fatalf("Find after a double Close: %v, map of %d", err, len(first.identity))
	}
	if _, hit := second.identityGet(&f.patients.table, 2); hit {
		t.Fatal("two open sessions share one identity map")
	}
}

// TestRequestCycleAllocatesNoGrowth: once a cycle has run, a per-request
// cycle — new store and session, Find k patients, force them, Close — pays
// the same allocations for each Find whatever k is. The queue, the dedup
// table and the identity map come back from the pools already grown;
// regrowing any of them would add an allocation per doubling of k.
func TestRequestCycleAllocatesNoGrowth(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops objects at random under the race detector")
	}
	f := newFixture(FetchLazy, FetchLazy)
	srv, clock := clinic(t)
	patientRange(t, srv, 100, 32)
	conn := srv.Connect(netsim.NewLink(clock, time.Millisecond))
	lazies := make([]Lazy[*Patient], 32)
	cycle := func(k int) func() {
		return func() {
			s := NewSession(querystore.New(conn, querystore.Config{}), ModeSloth)
			for i := range lazies[:k] {
				lazies[i] = f.patients.Find(s, int64(100+i))
			}
			for _, l := range lazies[:k] {
				if p, err := l.Get(); err != nil || p == nil {
					t.Fatal(err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	cycle(32)()
	a := map[int]float64{}
	for _, k := range []int{8, 16, 32} {
		a[k] = testing.AllocsPerRun(50, cycle(k))
	}
	if perFind, later := (a[16]-a[8])/8, (a[32]-a[16])/16; perFind != later {
		t.Fatalf("allocations per Find: %v from 8 to 16, %v from 16 to 32 (cycles of 8/16/32: %v/%v/%v)",
			perFind, later, a[8], a[16], a[32])
	}
}

// TestConcurrentRequestCyclesMatchSerial: two goroutines run per-request
// cycles against one server, drawing on the same pools, under each dispatch
// strategy; every page they build matches the one a serial run builds. Run with -race.
func TestConcurrentRequestCyclesMatchSerial(t *testing.T) {
	const workers, requests = 2, 40
	for _, kind := range []dispatch.Kind{dispatch.KindSync, dispatch.KindAsync} {
		t.Run(fmt.Sprint(kind), func(t *testing.T) {
			f := newFixture(FetchLazy, FetchLazy)
			srv, _ := clinic(t)
			patientRange(t, srv, 100, 24)
			cfg := querystore.Config{Dispatch: kind}
			// page is request r of worker g: a few patients (some twice, so
			// the identity map answers), one patient's encounters, rendered.
			page := func(conn *driver.Conn, g, r int) string {
				s := NewSession(querystore.New(conn, cfg), ModeSloth)
				defer s.Close()
				var ps []Lazy[*Patient]
				for i := 0; i < 3+(g+r)%5; i++ {
					ps = append(ps, f.patients.Find(s, int64(100+(g*7+r*3+i)%24)))
				}
				encs := f.encOf.Of(s, int64(1+r%2))
				var b strings.Builder
				for _, l := range ps {
					p, err := l.Get()
					if err != nil {
						return err.Error()
					}
					again, err := f.patients.FindNow(s, p.ID)
					if err != nil || again != p {
						return fmt.Sprintf("identity map lost %d: %v", p.ID, err)
					}
					fmt.Fprintf(&b, "%d:%s:%d;", p.ID, p.Name, p.Age)
				}
				es, err := encs.Get()
				if err != nil {
					return err.Error()
				}
				for _, e := range es {
					fmt.Fprintf(&b, "e%d:%s;", e.ID, e.Kind)
				}
				return b.String()
			}
			run := func(g int, out []string) {
				conn := srv.Connect(netsim.NewLink(netsim.NewVirtualClock(), time.Millisecond))
				for r := range out {
					out[r] = page(conn, g, r)
				}
			}
			serial := make([][]string, workers)
			concurrent := make([][]string, workers)
			for g := range serial {
				serial[g] = make([]string, requests)
				run(g, serial[g])
				concurrent[g] = make([]string, requests)
			}
			var wg sync.WaitGroup
			for g := range concurrent {
				wg.Add(1)
				go func() {
					defer wg.Done()
					run(g, concurrent[g])
				}()
			}
			wg.Wait()
			for g := range serial {
				for r := range serial[g] {
					if concurrent[g][r] != serial[g][r] {
						t.Fatalf("worker %d request %d: %q, serially %q", g, r, concurrent[g][r], serial[g][r])
					}
				}
			}
		})
	}
}
