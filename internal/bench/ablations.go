package bench

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/driver"
	"repro/internal/netsim"
	"repro/internal/sqldb/engine"
)

// This file holds the substrate-level ablations from DESIGN.md Sec. 5 that
// are not store configurations: parallel vs serial execution of batched
// reads on the database server, and thunk memoization.

// ParallelBatchReport compares server-side batch execution strategies.
type ParallelBatchReport struct {
	BatchSize  int
	ParallelDB time.Duration
	SerialDB   time.Duration
}

// ParallelBatchAblation executes the same N-statement read batch under the
// paper's parallel batch driver and under a serialized variant, reporting
// the charged DB time. The parallel driver's advantage is the second
// reason (after round-trip elimination) the paper gives for Sloth's DB
// time reduction (Sec. 6.3).
func ParallelBatchAblation(batchSize int) (ParallelBatchReport, error) {
	rep := ParallelBatchReport{BatchSize: batchSize}

	build := func() (*driver.Server, *driver.Conn, error) {
		clock := netsim.NewVirtualClock()
		db := engine.New()
		s := db.NewSession()
		if _, err := s.Exec("CREATE TABLE kv (k INT PRIMARY KEY, v INT)"); err != nil {
			return nil, nil, err
		}
		for i := 1; i <= batchSize; i++ {
			if _, err := s.Exec("INSERT INTO kv (k, v) VALUES (?, ?)", int64(i), int64(i*10)); err != nil {
				return nil, nil, err
			}
		}
		srv := driver.NewServer(db, clock, driver.DefaultCostModel())
		return srv, srv.Connect(netsim.NewLink(clock, 0)), nil
	}

	stmts := make([]driver.Stmt, batchSize)
	for i := range stmts {
		st, err := driver.Prepare("SELECT v FROM kv WHERE k = ?", int64(i+1))
		if err != nil {
			return rep, err
		}
		stmts[i] = st
	}

	// Parallel: the batch driver (one ExecBatch call).
	srv, conn, err := build()
	if err != nil {
		return rep, err
	}
	if _, err := conn.ExecBatch(stmts); err != nil {
		return rep, err
	}
	rep.ParallelDB = srv.Stats().DBTime

	// Serial: the same statements one call at a time (what a driver
	// without the extension would do server-side).
	srv2, conn2, err := build()
	if err != nil {
		return rep, err
	}
	for _, st := range stmts {
		if _, err := conn2.Query(st.SQL, st.Args...); err != nil {
			return rep, err
		}
	}
	rep.SerialDB = srv2.Stats().DBTime
	return rep, nil
}

// Format renders the comparison.
func (r ParallelBatchReport) Format() string {
	var sb strings.Builder
	sb.WriteString("== Ablation: parallel vs serial batch execution ==\n")
	fmt.Fprintf(&sb, "batch of %d point reads: parallel db time %v, serial %v (%.1fx)\n",
		r.BatchSize, r.ParallelDB.Round(time.Microsecond), r.SerialDB.Round(time.Microsecond),
		float64(r.SerialDB)/float64(r.ParallelDB))
	return sb.String()
}
