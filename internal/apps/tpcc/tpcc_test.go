package tpcc

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/driver"
	"repro/internal/netsim"
	"repro/internal/querystore"
	"repro/internal/sqldb"
	"repro/internal/sqldb/engine"
)

func rig(t *testing.T, cfg Config, wrap func(Executor) Executor, sloth bool) (*Client, *engine.DB) {
	t.Helper()
	db := engine.New()
	if err := Seed(db, cfg); err != nil {
		t.Fatal(err)
	}
	clock := netsim.NewVirtualClock()
	srv := driver.NewServer(db, clock, driver.DefaultCostModel())
	conn := srv.Connect(netsim.NewLink(clock, 0))
	var exec Executor = DirectExecutor{Conn: conn}
	if sloth {
		exec = SlothExecutor{Store: querystore.New(conn, querystore.Config{})}
	}
	if wrap != nil {
		exec = wrap(exec)
	}
	return NewClient(exec, cfg, 1), db
}

func rigDirect(t *testing.T) (*Client, *engine.DB) {
	t.Helper()
	return rig(t, DefaultConfig(), nil, false)
}

func rigSloth(t *testing.T) *Client {
	t.Helper()
	c, _ := rig(t, DefaultConfig(), nil, true)
	return c
}

// oneDistrict is a database whose every transaction lands in district
// (1, 1), seeded with 10 orders of which the last 5 are undelivered.
func oneDistrict() Config {
	cfg := DefaultConfig()
	cfg.Warehouses, cfg.DistrictsPerWH = 1, 1
	return cfg
}

// spy hands every result of the statements starting with prefix to seen.
type spy struct {
	Executor
	prefix string
	seen   func(sql string, rs *sqldb.ResultSet)
}

func (s spy) Query(sql string, args ...sqldb.Value) (*sqldb.ResultSet, error) {
	rs, err := s.Executor.Query(sql, args...)
	if err == nil && strings.HasPrefix(sql, s.prefix) {
		s.seen(sql, rs)
	}
	return rs, err
}

func mustQuery(t *testing.T, db *engine.DB, sql string, args ...sqldb.Value) *sqldb.ResultSet {
	t.Helper()
	rs, err := db.NewSession().Exec(sql, args...)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return rs
}

func TestSeedCreatesBaseData(t *testing.T) {
	db := engine.New()
	cfg := DefaultConfig()
	if err := Seed(db, cfg); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	checks := map[string]int64{
		"warehouse": int64(cfg.Warehouses),
		"district":  int64(cfg.Warehouses * cfg.DistrictsPerWH),
		"customer":  int64(cfg.Warehouses * cfg.DistrictsPerWH * cfg.CustomersPerDist),
		"item":      int64(cfg.Items),
		"stock":     int64(cfg.Warehouses * cfg.Items),
	}
	for table, want := range checks {
		rs, err := s.Exec("SELECT COUNT(*) AS n FROM " + table)
		if err != nil {
			t.Fatal(err)
		}
		if n, _ := rs.Int(0, "n"); n != want {
			t.Errorf("%s = %d rows, want %d", table, n, want)
		}
	}
}

func TestAllTransactionsRunDirect(t *testing.T) {
	c, _ := rigDirect(t)
	for _, name := range TxnNames {
		for i := 0; i < 5; i++ {
			if err := c.Run(name); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}

func TestAllTransactionsRunSloth(t *testing.T) {
	c := rigSloth(t)
	for _, name := range TxnNames {
		for i := 0; i < 5; i++ {
			if err := c.Run(name); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}

func TestNewOrderUpdatesState(t *testing.T) {
	c, db := rigDirect(t)
	s := db.NewSession()
	before, _ := s.Exec("SELECT COUNT(*) AS n FROM orders")
	nBefore, _ := before.Int(0, "n")
	if err := c.NewOrder(); err != nil {
		t.Fatal(err)
	}
	after, _ := s.Exec("SELECT COUNT(*) AS n FROM orders")
	nAfter, _ := after.Int(0, "n")
	if nAfter != nBefore+1 {
		t.Fatalf("orders %d -> %d, want +1", nBefore, nAfter)
	}
	// The order took the number the district offered, and its 5 to 14
	// lines carry it. A scan is in insertion order, so the last row is the
	// new order whatever its district.
	all := mustQuery(t, db, "SELECT o_id, o_d_id, o_ol_cnt FROM orders")
	last := all.NumRows() - 1
	oid, _ := all.Int(last, "o_id")
	did, _ := all.Int(last, "o_d_id")
	cnt, _ := all.Int(last, "o_ol_cnt")
	next := mustQuery(t, db, "SELECT d_next_o_id FROM district WHERE d_id = ?", did)
	if n, _ := next.Int(0, "d_next_o_id"); oid != did*10_000_000+n-1 || n != int64(DefaultConfig().InitialOrdersPerD)+2 {
		t.Fatalf("order %d in district %d, whose d_next_o_id is now %d", oid, did, n)
	}
	ol := mustQuery(t, db, "SELECT COUNT(*) AS n FROM order_line WHERE ol_o_id = ?", oid)
	if n, _ := ol.Int(0, "n"); n != cnt || n < 5 {
		t.Fatalf("order %d has %d lines, o_ol_cnt %d, want the same and >= 5", oid, n, cnt)
	}
}

// TestStockLevelReadsLast20Orders: whatever the district's age, the
// order-line statement of Stock-Level returns the lines of its newest
// min(20, orders) orders and nothing else (TPC-C clause 2.8.2.2).
func TestStockLevelReadsLast20Orders(t *testing.T) {
	cfg := oneDistrict()
	var got []string
	c, db := rig(t, cfg, func(e Executor) Executor {
		return spy{e, "SELECT ol_i_id FROM order_line", func(_ string, rs *sqldb.ResultSet) {
			got = got[:0]
			for i := range rs.Rows {
				iid, _ := rs.Int(i, "ol_i_id")
				got = append(got, fmt.Sprint(iid))
			}
		}}
	}, false)
	orders := cfg.InitialOrdersPerD
	for _, more := range []int{0, 4, 6, 1, 25} {
		for i := 0; i < more; i++ {
			if err := c.NewOrder(); err != nil {
				t.Fatal(err)
			}
		}
		orders += more
		if err := c.StockLevel(); err != nil {
			t.Fatal(err)
		}
		// By definition: the district's orders newest first, the first 20.
		newest := mustQuery(t, db, fmt.Sprintf("SELECT o_id FROM orders WHERE o_d_id = ? ORDER BY o_id DESC LIMIT %d", 20), distID(1, 1))
		if want := min(20, orders); newest.NumRows() != want {
			t.Fatalf("%d orders in the district, window holds %d, want %d", orders, newest.NumRows(), want)
		}
		var want []string
		for i := newest.NumRows() - 1; i >= 0; i-- {
			oid, _ := newest.Int(i, "o_id")
			lines := mustQuery(t, db, "SELECT ol_i_id FROM order_line WHERE ol_o_id = ?", oid)
			for j := range lines.Rows {
				iid, _ := lines.Int(j, "ol_i_id")
				want = append(want, fmt.Sprint(iid))
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%d orders in the district: Stock-Level read items\n %v\nthe last %d orders hold\n %v", orders, got, newest.NumRows(), want)
		}
	}
}

// TestDeliveryOldestFirst: each Delivery takes the district's oldest
// undelivered order, until none is left.
func TestDeliveryOldestFirst(t *testing.T) {
	c, db := rig(t, oneDistrict(), nil, false)
	for i := 0; i < 3; i++ {
		if err := c.NewOrder(); err != nil {
			t.Fatal(err)
		}
	}
	pending := mustQuery(t, db, "SELECT no_o_id FROM new_orders WHERE no_d_id = ? ORDER BY no_o_id", distID(1, 1))
	if pending.NumRows() != 5+3 {
		t.Fatalf("%d undelivered orders, want the 5 seeded and the 3 new", pending.NumRows())
	}
	for i := range pending.Rows {
		oldest, _ := pending.Int(i, "no_o_id")
		if err := c.Delivery(); err != nil {
			t.Fatal(err)
		}
		if rs := mustQuery(t, db, "SELECT no_o_id FROM new_orders WHERE no_o_id = ?", oldest); rs.NumRows() != 0 {
			t.Fatalf("delivery %d left the oldest order %d undelivered", i, oldest)
		}
		if left := mustQuery(t, db, "SELECT COUNT(*) AS n FROM new_orders"); left.Rows[0][0] != int64(pending.NumRows()-i-1) {
			t.Fatalf("delivery %d left %v undelivered orders, want %d", i, left.Rows[0][0], pending.NumRows()-i-1)
		}
		if rs := mustQuery(t, db, "SELECT o_carrier_id FROM orders WHERE o_id = ?", oldest); rs.Rows[0][0] == int64(0) {
			t.Fatalf("delivered order %d has no carrier", oldest)
		}
	}
	if err := c.Delivery(); err != nil { // nothing left: a no-op
		t.Fatal(err)
	}
}

func TestPaymentAdjustsBalance(t *testing.T) {
	c, db := rigDirect(t)
	s := db.NewSession()
	before, _ := s.Exec("SELECT SUM(w_ytd) AS total FROM warehouse")
	if err := c.Payment(); err != nil {
		t.Fatal(err)
	}
	after, _ := s.Exec("SELECT SUM(w_ytd) AS total FROM warehouse")
	b, _ := before.Get(0, "total")
	a, _ := after.Get(0, "total")
	if a.(float64) <= b.(float64) {
		t.Fatalf("warehouse ytd did not grow: %v -> %v", b, a)
	}
	h, _ := s.Exec("SELECT COUNT(*) AS n FROM history")
	if n, _ := h.Int(0, "n"); n != 1 {
		t.Fatalf("history rows = %d, want 1", n)
	}
}

func TestDeliveryConsumesNewOrders(t *testing.T) {
	c, db := rigDirect(t)
	s := db.NewSession()
	before, _ := s.Exec("SELECT COUNT(*) AS n FROM new_orders")
	nBefore, _ := before.Int(0, "n")
	if err := c.Delivery(); err != nil {
		t.Fatal(err)
	}
	after, _ := s.Exec("SELECT COUNT(*) AS n FROM new_orders")
	nAfter, _ := after.Int(0, "n")
	if nAfter >= nBefore {
		t.Fatalf("new_orders %d -> %d, want decrease", nBefore, nAfter)
	}
}

func TestSlothAndDirectConverge(t *testing.T) {
	// The same deterministic transaction stream must leave the same rows in
	// every table under both executors (semantic preservation).
	cDirect, dbDirect := rig(t, DefaultConfig(), nil, false)
	cSloth, dbSloth := rig(t, DefaultConfig(), nil, true)
	mix := rand.New(rand.NewSource(5))
	for i := 0; i < 30; i++ {
		name := TxnNames[mix.Intn(len(TxnNames))]
		if err := cDirect.Run(name); err != nil {
			t.Fatalf("direct %s: %v", name, err)
		}
		if err := cSloth.Run(name); err != nil {
			t.Fatalf("sloth %s: %v", name, err)
		}
	}
	for _, table := range dbDirect.Store().TableNames() {
		d := mustQuery(t, dbDirect, "SELECT * FROM "+table)
		s := mustQuery(t, dbSloth, "SELECT * FROM "+table)
		if d.String() != s.String() {
			t.Errorf("%s differs after 30 transactions:\ndirect %d rows, sloth %d rows", table, d.NumRows(), s.NumRows())
		}
	}
}

// TestStatementCostAgeFlat is the per-statement age probe: it plays the
// standard mix (45/43/4/4/4) against one database and compares, statement
// text by statement text, the rows the engine scanned per call early in the
// database's life and 2400 transactions later. No TPC-C statement may cost
// more as orders, order lines and history accumulate; run with -v for the
// table.
func TestStatementCostAgeFlat(t *testing.T) {
	type cost struct{ calls, scanned, returned int }
	var window map[string]*cost
	c, _ := rig(t, DefaultConfig(), func(e Executor) Executor {
		return spy{e, "", func(sql string, rs *sqldb.ResultSet) {
			if window == nil {
				return
			}
			k := window[sql]
			if k == nil {
				k = &cost{}
				window[sql] = k
			}
			k.calls++
			k.scanned += rs.RowsScanned
			k.returned += rs.NumRows()
		}}
	}, false)
	mix := rand.New(rand.NewSource(11))
	play := func(n int) map[string]*cost {
		window = map[string]*cost{}
		for i := 0; i < n; i++ {
			name := "New order"
			switch p := mix.Intn(100); {
			case p >= 96:
				name = "Stock level"
			case p >= 92:
				name = "Delivery"
			case p >= 88:
				name = "Order status"
			case p >= 45:
				name = "Payment"
			}
			if err := c.Run(name); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		w := window
		window = nil
		return w
	}
	play(400) // every district has its 20 orders
	early := play(400)
	play(2000)
	late := play(400)
	texts := make([]string, 0, len(early))
	for sql := range early {
		texts = append(texts, sql)
	}
	sort.Strings(texts)
	for _, sql := range texts {
		e, l := early[sql], late[sql]
		if l == nil || e.calls < 5 || l.calls < 5 {
			continue
		}
		es, ls := float64(e.scanned)/float64(e.calls), float64(l.scanned)/float64(l.calls)
		t.Logf("scanned/call %8.1f -> %8.1f  returned/call %7.1f -> %7.1f  %s",
			es, ls, float64(e.returned)/float64(e.calls), float64(l.returned)/float64(l.calls), sql)
		if ls > es*1.25+1 {
			t.Errorf("rows scanned per call grew %.1f -> %.1f with the database's age: %s", es, ls, sql)
		}
	}
}
