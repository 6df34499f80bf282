package driver

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sqldb"
)

// These tests are the snapshot-isolation stress for `go test -race`:
// concurrent read batches execute on worker slots against MVCC snapshots
// while a writer pipelines multi-row statements through the serialized
// path. Each read batch must observe one consistent epoch — no torn
// multi-row updates, no phantom halves of multi-row inserts.

// TestSnapshotReadsNoTornWrites: a writer repeatedly updates two rows to a
// new common value in one UPDATE statement; reader batches SELECT both
// rows and must always see them equal.
func TestSnapshotReadsNoTornWrites(t *testing.T) {
	_, srv, setup := rig(t, 0)
	srv.SetWorkers(4)
	mustExec(t, setup, "CREATE TABLE pair (id INT PRIMARY KEY, val INT)")
	mustExec(t, setup, "INSERT INTO pair (id, val) VALUES (1, 0), (2, 0)")

	const readers, batches, writes = 4, 200, 200
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)

	wg.Add(1)
	go func() {
		defer wg.Done()
		conn := srv.Connect(netsim.NewLink(netsim.NewVirtualClock(), 0))
		for i := 1; i <= writes; i++ {
			if _, err := conn.Query("UPDATE pair SET val = ?", int64(i)); err != nil {
				errs <- err
				return
			}
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn := srv.Connect(netsim.NewLink(netsim.NewVirtualClock(), 0))
			for i := 0; i < batches; i++ {
				results, err := conn.ExecBatch([]Stmt{
					prep("SELECT val FROM pair WHERE id = 1"),
					prep("SELECT val FROM pair WHERE id = 2"),
				})
				if err != nil {
					errs <- err
					return
				}
				a := results[0].Rows[0][0]
				b := results[1].Rows[0][0]
				if a != b {
					errs <- fmt.Errorf("torn read: id 1 has val %v, id 2 has val %v", a, b)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if st := srv.Stats(); st.SnapBatches == 0 {
		t.Fatal("no batch took the snapshot path")
	}
}

// TestSnapshotReadsNoPhantomInserts: a writer inserts rows two at a time
// in single INSERT statements; reader batches run COUNT(*) twice and must
// see the same, even count both times.
func TestSnapshotReadsNoPhantomInserts(t *testing.T) {
	_, srv, setup := rig(t, 0)
	srv.SetWorkers(4)
	mustExec(t, setup, "CREATE TABLE ev (id INT PRIMARY KEY, x INT)")

	const readers, batches, writes = 4, 150, 150
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)

	wg.Add(1)
	go func() {
		defer wg.Done()
		conn := srv.Connect(netsim.NewLink(netsim.NewVirtualClock(), 0))
		for i := 0; i < writes; i++ {
			sql := fmt.Sprintf("INSERT INTO ev (id, x) VALUES (%d, 0), (%d, 0)", 2*i+1, 2*i+2)
			if _, err := conn.Query(sql); err != nil {
				errs <- err
				return
			}
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn := srv.Connect(netsim.NewLink(netsim.NewVirtualClock(), 0))
			for i := 0; i < batches; i++ {
				results, err := conn.ExecBatch([]Stmt{
					prep("SELECT COUNT(*) FROM ev"),
					prep("SELECT COUNT(*) FROM ev"),
				})
				if err != nil {
					errs <- err
					return
				}
				c1 := results[0].Rows[0][0].(int64)
				c2 := results[1].Rows[0][0].(int64)
				if c1 != c2 {
					errs <- fmt.Errorf("batch saw two epochs: counts %d and %d", c1, c2)
					return
				}
				if c1%2 != 0 {
					errs <- fmt.Errorf("phantom half-insert: count %d is odd", c1)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestWorkerStatsSizedBySetWorkers: SetWorkers sizes the per-worker stat
// slices once, before traffic, and every batch's placement, busy time and
// snapshot wall time land in them — the per-worker columns sum to the
// server totals with nothing left over.
func TestWorkerStatsSizedBySetWorkers(t *testing.T) {
	_, srv, conn := rig(t, 0)
	srv.SetWorkers(2)
	if st := srv.Stats(); len(st.WorkerBatches) != 2 || len(st.WorkerBusy) != 2 || len(st.WorkerWall) != 2 {
		t.Fatalf("per-worker stats not sized by SetWorkers: %v / %v / %v", st.WorkerBatches, st.WorkerBusy, st.WorkerWall)
	}
	for i := 0; i < 4; i++ {
		mustExec(t, conn, "SELECT v FROM kv WHERE k = 1")
	}
	st := srv.Stats()
	var placed int64
	var busy, wall time.Duration
	for i := range st.WorkerBatches {
		placed += st.WorkerBatches[i]
		busy += st.WorkerBusy[i]
		wall += st.WorkerWall[i]
	}
	if placed != st.Batches || placed != 4 {
		t.Fatalf("placed %d batches across workers, server counted %d, want 4", placed, st.Batches)
	}
	if busy != st.DBTime {
		t.Fatalf("worker busy %v != DBTime %v", busy, st.DBTime)
	}
	if wall <= 0 || st.RetiredWall != 0 {
		t.Fatalf("wall time: workers %v, retired %v; want positive and zero", wall, st.RetiredWall)
	}
}

// TestWorkerScratchNotShared: two readers run read batches at once on a
// 2-worker server, each batch sorting, grouping and deduplicating in its
// worker's scratch, and append to every result they get. Each batch must
// return what a serial run returns, and no result may change once handed
// back — under -race, any memory a result shared with a worker's scratch,
// or one worker's scratch with the other's, is reported.
func TestWorkerScratchNotShared(t *testing.T) {
	_, srv, setup := rig(t, 0)
	srv.SetWorkers(2)
	mustExec(t, setup, "CREATE TABLE m (id INT PRIMARY KEY, g INT, a INT)")
	for id := int64(1); id <= 60; id++ {
		mustExec(t, setup, "INSERT INTO m (id, g, a) VALUES (?, ?, ?)", id, id%4, id%9)
	}
	batch := []Stmt{
		prep("SELECT id, a FROM m ORDER BY a DESC, id LIMIT 25 OFFSET 5"),
		prep("SELECT DISTINCT a, g FROM m ORDER BY g, a"),
		prep("SELECT g, COUNT(*), SUM(a) FROM m GROUP BY g ORDER BY g"),
		prep("SELECT COUNT(*) FROM m WHERE a > 3"),
		prep("SELECT * FROM m WHERE g = 1 ORDER BY a + id"),
	}
	want := make([]string, len(batch))
	for i, st := range batch {
		want[i] = fmt.Sprint(mustExec(t, setup, st.SQL).Rows)
	}

	const readers, batches = 2, 100
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn := srv.Connect(netsim.NewLink(netsim.NewVirtualClock(), 0))
			type handed struct {
				rows [][]sqldb.Value
				want string
			}
			var held []handed // every result this reader got, as handed back
			for i := 0; i < batches; i++ {
				results, err := conn.ExecBatch(batch)
				if err != nil {
					errs <- err
					return
				}
				for k, rs := range results {
					if got := fmt.Sprint(rs.Rows); got != want[k] {
						errs <- fmt.Errorf("%q: got %s, want %s", batch[k].SQL, got, want[k])
						return
					}
					held = append(held, handed{rs.Rows, want[k]})
					rs.Rows = append(rs.Rows, []sqldb.Value{"appended"})
				}
			}
			for _, h := range held {
				if got := fmt.Sprint(h.rows); got != h.want {
					errs <- fmt.Errorf("a result changed after it returned: %s, want %s", got, h.want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConnsShareServerSession: every connection's serial batches run on
// the server's one engine session. Several connections run batches that
// mix writes and reads concurrently, each on its own key range; every read
// must return its own connection's last write, whether it ran in the
// write's batch (the serial executor, on the shared session's scratch) or
// in a read-only batch after it (a DB worker's snapshot).
func TestConnsShareServerSession(t *testing.T) {
	_, srv, setup := rig(t, 0)
	srv.SetWorkers(2)
	mustExec(t, setup, "CREATE TABLE acc (k INT PRIMARY KEY, owner INT, v INT)")

	const conns, rounds = 4, 150
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for c := int64(0); c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn := srv.Connect(netsim.NewLink(netsim.NewVirtualClock(), 0))
			base := c * 1000
			if _, err := conn.Query("INSERT INTO acc (k, owner, v) VALUES (?, ?, 0)", base, c); err != nil {
				errs <- err
				return
			}
			for i := int64(1); i <= rounds; i++ {
				mixed, err := conn.ExecBatch([]Stmt{
					prep("UPDATE acc SET v = ? WHERE k = ?", i, base),
					prep("INSERT INTO acc (k, owner, v) VALUES (?, ?, ?)", base+i, c, i),
					prep("SELECT v FROM acc WHERE k = ?", base),
					prep("SELECT COUNT(*) FROM acc WHERE owner = ?", c),
				})
				if err != nil {
					errs <- err
					return
				}
				reads, err := conn.ExecBatch([]Stmt{
					prep("SELECT v FROM acc WHERE k = ?", base),
					prep("SELECT v FROM acc WHERE k = ?", base+i),
				})
				if err != nil {
					errs <- err
					return
				}
				got := []sqldb.Value{mixed[2].Rows[0][0], mixed[3].Rows[0][0], reads[0].Rows[0][0], reads[1].Rows[0][0]}
				if want := []sqldb.Value{i, i + 1, i, i}; fmt.Sprint(got) != fmt.Sprint(want) {
					errs <- fmt.Errorf("conn %d round %d: reads %v, want %v", c, i, got, want)
					return
				}
				conn.Release()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.SnapBatches != conns*rounds || st.Batches != 1+conns*(1+2*rounds) {
		t.Fatalf("SnapBatches %d, Batches %d; want %d read-only batches of %d", st.SnapBatches, st.Batches, conns*rounds, 1+conns*(1+2*rounds))
	}
}
