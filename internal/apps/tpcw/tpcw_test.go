package tpcw

import (
	"testing"

	"repro/internal/apps/tpcc"
	"repro/internal/driver"
	"repro/internal/netsim"
	"repro/internal/querystore"
	"repro/internal/sqldb/engine"
)

func rig(t *testing.T, sloth bool) (*Client, *engine.DB) {
	t.Helper()
	db := engine.New()
	cfg := DefaultConfig()
	if err := Seed(db, cfg); err != nil {
		t.Fatal(err)
	}
	clock := netsim.NewVirtualClock()
	srv := driver.NewServer(db, clock, driver.DefaultCostModel())
	conn := srv.Connect(netsim.NewLink(clock, 0))
	var exec Executor
	if sloth {
		exec = tpcc.SlothExecutor{Store: querystore.New(conn, querystore.Config{})}
	} else {
		exec = tpcc.DirectExecutor{Conn: conn}
	}
	return NewClient(exec, cfg, 3), db
}

func TestSeedStore(t *testing.T) {
	db := engine.New()
	cfg := DefaultConfig()
	if err := Seed(db, cfg); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	for table, want := range map[string]int64{
		"item": int64(cfg.Items), "customer": int64(cfg.Customers),
		"author": int64(cfg.Authors), "country": 5, "address": int64(cfg.Customers),
	} {
		rs, err := s.Exec("SELECT COUNT(*) AS n FROM " + table)
		if err != nil {
			t.Fatal(err)
		}
		if n, _ := rs.Int(0, "n"); n != want {
			t.Errorf("%s = %d, want %d", table, n, want)
		}
	}
}

func TestIndividualInteractions(t *testing.T) {
	c, _ := rig(t, false)
	interactions := []func() error{
		c.Home, c.NewProducts, c.BestSellers, c.ProductDetail,
		c.Search, c.ShoppingCart, c.BuyConfirm, c.OrderInquiry,
	}
	for i, fn := range interactions {
		if err := fn(); err != nil {
			t.Fatalf("interaction %d: %v", i, err)
		}
	}
}

func TestMixesRunBothModes(t *testing.T) {
	for _, sloth := range []bool{false, true} {
		c, _ := rig(t, sloth)
		for _, mix := range MixNames {
			for i := 0; i < 20; i++ {
				if err := c.RunMixStep(mix); err != nil {
					t.Fatalf("mix %s (sloth=%v) step %d: %v", mix, sloth, i, err)
				}
			}
		}
	}
}

func TestBuyConfirmCreatesOrder(t *testing.T) {
	c, db := rig(t, false)
	if err := c.ShoppingCart(); err != nil {
		t.Fatal(err)
	}
	if err := c.BuyConfirm(); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	rs, _ := s.Exec("SELECT COUNT(*) AS n FROM orders")
	if n, _ := rs.Int(0, "n"); n != 1 {
		t.Fatalf("orders = %d, want 1", n)
	}
	rs, _ = s.Exec("SELECT COUNT(*) AS n FROM cc_xacts")
	if n, _ := rs.Int(0, "n"); n != 1 {
		t.Fatalf("cc_xacts = %d, want 1", n)
	}
	rs, _ = s.Exec("SELECT COUNT(*) AS n FROM order_line")
	if n, _ := rs.Int(0, "n"); n < 1 {
		t.Fatalf("order_line = %d, want >= 1", n)
	}
}

func TestUnknownMixErrors(t *testing.T) {
	c, _ := rig(t, false)
	if err := c.RunMixStep("Nonsense mix"); err == nil {
		t.Fatal("unknown mix accepted")
	}
}

func TestDeterministicStreamsConverge(t *testing.T) {
	cDirect, dbDirect := rig(t, false)
	cSloth, dbSloth := rig(t, true)
	for i := 0; i < 30; i++ {
		if err := cDirect.RunMixStep("Ordering mix"); err != nil {
			t.Fatalf("direct step %d: %v", i, err)
		}
		if err := cSloth.RunMixStep("Ordering mix"); err != nil {
			t.Fatalf("sloth step %d: %v", i, err)
		}
	}
	// Every table, row for row.
	for _, table := range dbDirect.Store().TableNames() {
		d, err := dbDirect.NewSession().Exec("SELECT * FROM " + table)
		if err != nil {
			t.Fatal(err)
		}
		s, err := dbSloth.NewSession().Exec("SELECT * FROM " + table)
		if err != nil {
			t.Fatal(err)
		}
		if d.String() != s.String() {
			t.Errorf("%s differs after 30 interactions: direct %d rows, sloth %d rows", table, d.NumRows(), s.NumRows())
		}
	}
}
