// Package tpcw implements the TPC-W web-commerce workload's database
// interactions (the browsing, shopping, and ordering mixes) for the paper's
// overhead experiment (Sec. 6.6, Fig. 13). Like the tpcc package, every
// query result is consumed immediately — HTML is "generated" from each
// result as it arrives — so Sloth has no batching opportunity and the
// comparison measures pure lazy-evaluation overhead.
package tpcw

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/apps/tpcc"
	"repro/internal/sqldb"
	"repro/internal/sqldb/engine"
)

// Executor is shared with the tpcc package: direct or Sloth execution.
type Executor = tpcc.Executor

// Schema is the TPC-W DDL subset used by the interactions.
var Schema = []string{
	`CREATE TABLE customer (c_id INT PRIMARY KEY, c_uname TEXT, c_fname TEXT, c_lname TEXT, c_discount FLOAT)`,
	`CREATE TABLE address (addr_id INT PRIMARY KEY, addr_street TEXT, addr_city TEXT, addr_co_id INT)`,
	`CREATE TABLE country (co_id INT PRIMARY KEY, co_name TEXT)`,
	`CREATE TABLE author (a_id INT PRIMARY KEY, a_fname TEXT, a_lname TEXT)`,
	`CREATE TABLE item (i_id INT PRIMARY KEY, i_title TEXT, i_a_id INT, i_subject TEXT, i_cost FLOAT, i_stock INT, i_related INT)`,
	`CREATE INDEX idx_item_subject ON item (i_subject)`,
	`CREATE INDEX idx_item_author ON item (i_a_id)`,
	`CREATE TABLE orders (o_id INT PRIMARY KEY, o_c_id INT, o_total FLOAT, o_status TEXT)`,
	`CREATE INDEX idx_orders_customer ON orders (o_c_id, o_id)`,
	`CREATE TABLE order_line (ol_id INT PRIMARY KEY, ol_o_id INT, ol_i_id INT, ol_qty INT)`,
	`CREATE INDEX idx_ol_order ON order_line (ol_o_id)`,
	`CREATE TABLE cc_xacts (cx_o_id INT PRIMARY KEY, cx_type TEXT, cx_amount FLOAT)`,
	`CREATE TABLE shopping_cart (sc_id INT PRIMARY KEY, sc_c_id INT, sc_total FLOAT)`,
	`CREATE TABLE shopping_cart_line (scl_id INT PRIMARY KEY, scl_sc_id INT, scl_i_id INT, scl_qty INT)`,
	`CREATE INDEX idx_scl_cart ON shopping_cart_line (scl_sc_id)`,
}

// Config sizes the store: the paper used 10,000 items; the default here is
// laptop-scale.
type Config struct {
	Items     int
	Customers int
	Authors   int
	Subjects  int
}

// DefaultConfig is the standard benchmark store.
func DefaultConfig() Config {
	return Config{Items: 500, Customers: 100, Authors: 50, Subjects: 10}
}

// Seed loads the store directly through the engine.
func Seed(db *engine.DB, cfg Config) error {
	s := db.NewSession()
	for _, ddl := range Schema {
		if _, err := s.Exec(ddl); err != nil {
			return fmt.Errorf("tpcw: schema: %w", err)
		}
	}
	rng := rand.New(rand.NewSource(123))
	exec := func(sql string, args ...any) error {
		vals := make([]sqldb.Value, len(args))
		for i, a := range args {
			vals[i] = a
		}
		if _, err := s.Exec(sql, vals...); err != nil {
			return fmt.Errorf("tpcw: seed: %w", err)
		}
		return nil
	}
	for i := 1; i <= 5; i++ {
		if err := exec("INSERT INTO country (co_id, co_name) VALUES (?, ?)", int64(i), fmt.Sprintf("country-%d", i)); err != nil {
			return err
		}
	}
	for a := 1; a <= cfg.Authors; a++ {
		if err := exec("INSERT INTO author (a_id, a_fname, a_lname) VALUES (?, ?, ?)",
			int64(a), fmt.Sprintf("AF%d", a), fmt.Sprintf("AL%d", a)); err != nil {
			return err
		}
	}
	for i := 1; i <= cfg.Items; i++ {
		if err := exec("INSERT INTO item (i_id, i_title, i_a_id, i_subject, i_cost, i_stock, i_related) VALUES (?, ?, ?, ?, ?, ?, ?)",
			int64(i), fmt.Sprintf("title-%d", i), int64(1+rng.Intn(cfg.Authors)),
			fmt.Sprintf("subj-%d", 1+rng.Intn(cfg.Subjects)), 5.0+float64(rng.Intn(5000))/100,
			int64(10+rng.Intn(100)), int64(1+rng.Intn(cfg.Items))); err != nil {
			return err
		}
	}
	for c := 1; c <= cfg.Customers; c++ {
		if err := exec("INSERT INTO customer (c_id, c_uname, c_fname, c_lname, c_discount) VALUES (?, ?, ?, ?, ?)",
			int64(c), fmt.Sprintf("user%d", c), fmt.Sprintf("F%d", c), fmt.Sprintf("L%d", c), float64(rng.Intn(20))/100); err != nil {
			return err
		}
		if err := exec("INSERT INTO address (addr_id, addr_street, addr_city, addr_co_id) VALUES (?, ?, ?, ?)",
			int64(c), fmt.Sprintf("street-%d", c), "city", int64(1+rng.Intn(5))); err != nil {
			return err
		}
	}
	return nil
}

// Client executes TPC-W interactions. The html strings it builds stand in
// for the servlet output that consumes results immediately.
type Client struct {
	exec Executor
	cfg  Config
	rng  *rand.Rand

	nextOrder int64
	nextOL    int64
	nextCart  int64
	nextSCL   int64
	html      strings.Builder
}

// NewClient creates a client with a deterministic RNG stream.
func NewClient(exec Executor, cfg Config, seed int64) *Client {
	return &Client{exec: exec, cfg: cfg, rng: rand.New(rand.NewSource(seed)),
		nextOrder: 1_000_000 + seed*100_000, nextOL: 4_000_000 + seed*400_000,
		nextCart: 7_000_000 + seed*100_000, nextSCL: 8_000_000 + seed*400_000}
}

// emit simulates writing markup from a result immediately.
func (c *Client) emit(rs *sqldb.ResultSet) {
	c.html.Reset()
	for i := 0; i < rs.NumRows() && i < 5; i++ {
		fmt.Fprintf(&c.html, "<td>%v</td>", rs.Rows[i])
	}
}

// Home renders the home interaction: customer greeting plus promotions.
func (c *Client) Home() error {
	cid := int64(1 + c.rng.Intn(c.cfg.Customers))
	rs, err := c.exec.Query("SELECT c_fname, c_lname FROM customer WHERE c_id = ?", cid)
	if err != nil {
		return err
	}
	c.emit(rs)
	rs, err = c.exec.Query("SELECT i_id, i_title FROM item WHERE i_id IN (?, ?, ?, ?, ?)",
		int64(1+c.rng.Intn(c.cfg.Items)), int64(1+c.rng.Intn(c.cfg.Items)), int64(1+c.rng.Intn(c.cfg.Items)),
		int64(1+c.rng.Intn(c.cfg.Items)), int64(1+c.rng.Intn(c.cfg.Items)))
	if err != nil {
		return err
	}
	c.emit(rs)
	return nil
}

// NewProducts renders the new-products listing for a random subject.
func (c *Client) NewProducts() error {
	subj := fmt.Sprintf("subj-%d", 1+c.rng.Intn(c.cfg.Subjects))
	rs, err := c.exec.Query("SELECT i_id, i_title, i_cost FROM item WHERE i_subject = ? ORDER BY i_id DESC LIMIT 20", subj)
	if err != nil {
		return err
	}
	c.emit(rs)
	for i := 0; i < rs.NumRows() && i < 5; i++ {
		iid, _ := rs.Int(i, "i_id")
		ar, err := c.exec.Query("SELECT a_fname, a_lname FROM author WHERE a_id = ?", iid%int64(c.cfg.Authors)+1)
		if err != nil {
			return err
		}
		c.emit(ar)
	}
	return nil
}

// BestSellers aggregates recent order lines.
func (c *Client) BestSellers() error {
	rs, err := c.exec.Query("SELECT ol_i_id, SUM(ol_qty) AS sold FROM order_line GROUP BY ol_i_id ORDER BY sold DESC LIMIT 10")
	if err != nil {
		return err
	}
	c.emit(rs)
	return nil
}

// ProductDetail renders one item with its author and related item.
func (c *Client) ProductDetail() error {
	iid := int64(1 + c.rng.Intn(c.cfg.Items))
	rs, err := c.exec.Query("SELECT i_title, i_a_id, i_cost, i_related FROM item WHERE i_id = ?", iid)
	if err != nil {
		return err
	}
	c.emit(rs)
	if rs.NumRows() == 0 {
		return nil
	}
	aid, _ := rs.Int(0, "i_a_id")
	ar, err := c.exec.Query("SELECT a_fname, a_lname FROM author WHERE a_id = ?", aid)
	if err != nil {
		return err
	}
	c.emit(ar)
	rel, _ := rs.Int(0, "i_related")
	rr, err := c.exec.Query("SELECT i_title FROM item WHERE i_id = ?", rel)
	if err != nil {
		return err
	}
	c.emit(rr)
	return nil
}

// Search looks items up by title prefix.
func (c *Client) Search() error {
	prefix := fmt.Sprintf("title-%d%%", 1+c.rng.Intn(9))
	rs, err := c.exec.Query("SELECT i_id, i_title FROM item WHERE i_title LIKE ? LIMIT 20", prefix)
	if err != nil {
		return err
	}
	c.emit(rs)
	return nil
}

// ShoppingCart creates a cart and adds items.
func (c *Client) ShoppingCart() error {
	c.nextCart++
	cartID := c.nextCart
	cid := int64(1 + c.rng.Intn(c.cfg.Customers))
	if _, err := c.exec.Query("INSERT INTO shopping_cart (sc_id, sc_c_id, sc_total) VALUES (?, ?, 0)", cartID, cid); err != nil {
		return err
	}
	n := 1 + c.rng.Intn(4)
	total := 0.0
	for i := 0; i < n; i++ {
		iid := int64(1 + c.rng.Intn(c.cfg.Items))
		ir, err := c.exec.Query("SELECT i_cost, i_stock FROM item WHERE i_id = ?", iid)
		if err != nil {
			return err
		}
		cost, _ := ir.Get(0, "i_cost")
		qty := int64(1 + c.rng.Intn(3))
		total += cost.(float64) * float64(qty)
		c.nextSCL++
		if _, err := c.exec.Query("INSERT INTO shopping_cart_line (scl_id, scl_sc_id, scl_i_id, scl_qty) VALUES (?, ?, ?, ?)",
			c.nextSCL, cartID, iid, qty); err != nil {
			return err
		}
	}
	_, err := c.exec.Query("UPDATE shopping_cart SET sc_total = ? WHERE sc_id = ?", total, cartID)
	return err
}

// BuyConfirm converts the latest cart into an order.
func (c *Client) BuyConfirm() error {
	cartID := c.nextCart
	if cartID == 7_000_000 {
		if err := c.ShoppingCart(); err != nil {
			return err
		}
		cartID = c.nextCart
	}
	cr, err := c.exec.Query("SELECT sc_c_id, sc_total FROM shopping_cart WHERE sc_id = ?", cartID)
	if err != nil {
		return err
	}
	if cr.NumRows() == 0 {
		return nil
	}
	cid, _ := cr.Int(0, "sc_c_id")
	total, _ := cr.Get(0, "sc_total")
	c.nextOrder++
	oid := c.nextOrder
	if _, err := c.exec.Query("INSERT INTO orders (o_id, o_c_id, o_total, o_status) VALUES (?, ?, ?, 'PENDING')",
		oid, cid, total); err != nil {
		return err
	}
	lines, err := c.exec.Query("SELECT scl_i_id, scl_qty FROM shopping_cart_line WHERE scl_sc_id = ?", cartID)
	if err != nil {
		return err
	}
	for i := 0; i < lines.NumRows(); i++ {
		iid, _ := lines.Int(i, "scl_i_id")
		qty, _ := lines.Int(i, "scl_qty")
		c.nextOL++
		if _, err := c.exec.Query("INSERT INTO order_line (ol_id, ol_o_id, ol_i_id, ol_qty) VALUES (?, ?, ?, ?)",
			c.nextOL, oid, iid, qty); err != nil {
			return err
		}
		if _, err := c.exec.Query("UPDATE item SET i_stock = i_stock - ? WHERE i_id = ?", qty, iid); err != nil {
			return err
		}
	}
	tf := 0.0
	if f, ok := total.(float64); ok {
		tf = f
	}
	_, err = c.exec.Query("INSERT INTO cc_xacts (cx_o_id, cx_type, cx_amount) VALUES (?, 'VISA', ?)", oid, tf)
	return err
}

// OrderInquiry shows the customer's most recent order.
func (c *Client) OrderInquiry() error {
	cid := int64(1 + c.rng.Intn(c.cfg.Customers))
	rs, err := c.exec.Query("SELECT o_id, o_total, o_status FROM orders WHERE o_c_id = ? ORDER BY o_id DESC LIMIT 1", cid)
	if err != nil {
		return err
	}
	c.emit(rs)
	if rs.NumRows() == 0 {
		return nil
	}
	oid, _ := rs.Int(0, "o_id")
	lr, err := c.exec.Query("SELECT ol_i_id, ol_qty FROM order_line WHERE ol_o_id = ?", oid)
	if err != nil {
		return err
	}
	c.emit(lr)
	return nil
}

// MixNames lists the three TPC-W mixes in the paper's Fig. 13 order.
var MixNames = []string{"Browsing mix", "Shopping mix", "Ordering mix"}

// RunMixStep executes one interaction drawn from the named mix.
func (c *Client) RunMixStep(mix string) error {
	p := c.rng.Intn(100)
	switch mix {
	case "Browsing mix": // 95% browse / 5% order
		switch {
		case p < 25:
			return c.Home()
		case p < 45:
			return c.NewProducts()
		case p < 60:
			return c.BestSellers()
		case p < 80:
			return c.ProductDetail()
		case p < 95:
			return c.Search()
		default:
			return c.ShoppingCart()
		}
	case "Shopping mix": // 80% browse / 20% shop
		switch {
		case p < 20:
			return c.Home()
		case p < 35:
			return c.NewProducts()
		case p < 50:
			return c.ProductDetail()
		case p < 65:
			return c.Search()
		case p < 85:
			return c.ShoppingCart()
		case p < 95:
			return c.BuyConfirm()
		default:
			return c.OrderInquiry()
		}
	case "Ordering mix": // 50% ordering
		switch {
		case p < 15:
			return c.Home()
		case p < 30:
			return c.ProductDetail()
		case p < 50:
			return c.ShoppingCart()
		case p < 80:
			return c.BuyConfirm()
		default:
			return c.OrderInquiry()
		}
	default:
		return fmt.Errorf("tpcw: unknown mix %q", mix)
	}
}
