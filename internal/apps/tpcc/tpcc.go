// Package tpcc implements the five TPC-C transaction types over the
// reproduction's SQL engine, used by the paper's overhead experiment
// (Sec. 6.6, Fig. 13). The implementation issues queries through a pluggable
// executor and consumes every result immediately, so there is nothing for
// Sloth to batch — running it under lazy semantics measures pure runtime
// overhead, exactly as in the paper.
//
// Keys. TPC-C's composite keys are packed into single INT primary keys:
// distID(w, d) = w·100 + d, custID(w, d, c), stockID(w, i), and
// orderID(w, d, o) = distID(w, d)·10^7 + o, where o is the district's own
// order number — d_next_o_id, read and incremented by New-Order, as the
// specification has it (clause 2.4.2.2). An order's id therefore ascends
// with its age inside its district and nowhere else, which is what three
// statements rely on and three two-column indexes serve: Stock-Level reads
// the order lines of the district's last 20 orders (clause 2.8.2.2) as the
// window orderID(w, d, next−20) <= ol_o_id < orderID(w, d, next) over
// idx_ol_d (ol_d_id, ol_o_id); Delivery takes the district's oldest
// undelivered order, ORDER BY no_o_id LIMIT 1 over idx_no_d (no_d_id,
// no_o_id); Order-Status the customer's newest, ORDER BY o_id DESC LIMIT 1
// over idx_orders_c (o_c_id, o_id). None of the three grows with the
// database's age.
package tpcc

import (
	"fmt"
	"math/rand"

	"repro/internal/driver"
	"repro/internal/querystore"
	"repro/internal/sqldb"
	"repro/internal/sqldb/engine"
	"repro/internal/thunk"
)

// Executor abstracts how the workload reaches the database: directly
// through the conventional driver (original) or through thunks over the
// query store (Sloth-compiled).
type Executor interface {
	// Query executes one statement and returns its result.
	Query(sql string, args ...sqldb.Value) (*sqldb.ResultSet, error)
}

// DirectExecutor is the original application: one conventional driver call
// per statement.
type DirectExecutor struct{ Conn *driver.Conn }

// Query implements Executor.
func (e DirectExecutor) Query(sql string, args ...sqldb.Value) (*sqldb.ResultSet, error) {
	return e.Conn.Query(sql, args...)
}

// SlothExecutor is the Sloth-compiled application: every statement becomes
// a thunk registered with the query store and forced immediately (results
// are consumed right away, so laziness buys nothing — only overhead).
// Because the result is consumed at once, the statement is the request: the
// store is told so once the thunk is forced, and a long-lived store holds
// one statement's results rather than every result it has fetched.
type SlothExecutor struct{ Store *querystore.Store }

// Query implements Executor.
func (e SlothExecutor) Query(sql string, args ...sqldb.Value) (*sqldb.ResultSet, error) {
	th := querystore.Lazy(e.Store, sql, args...)
	_ = thunk.IsThunk(th) // the thunk is the unit of laziness being priced
	res := th.Force()
	e.Store.EndRequest()
	return res.RS, res.Err
}

// Schema is the TPC-C DDL (columns trimmed to those the transactions use).
var Schema = []string{
	`CREATE TABLE warehouse (w_id INT PRIMARY KEY, w_name TEXT, w_tax FLOAT, w_ytd FLOAT)`,
	`CREATE TABLE district (d_id INT PRIMARY KEY, d_w_id INT, d_name TEXT, d_tax FLOAT, d_ytd FLOAT, d_next_o_id INT)`,
	`CREATE INDEX idx_district_w ON district (d_w_id)`,
	`CREATE TABLE customer (c_id INT PRIMARY KEY, c_d_id INT, c_w_id INT, c_last TEXT, c_balance FLOAT, c_ytd_payment FLOAT, c_payment_cnt INT, c_delivery_cnt INT)`,
	`CREATE INDEX idx_customer_d ON customer (c_d_id)`,
	`CREATE TABLE history (h_id INT PRIMARY KEY, h_c_id INT, h_d_id INT, h_w_id INT, h_amount FLOAT)`,
	`CREATE TABLE orders (o_id INT PRIMARY KEY, o_d_id INT, o_w_id INT, o_c_id INT, o_ol_cnt INT, o_carrier_id INT)`,
	`CREATE INDEX idx_orders_c ON orders (o_c_id, o_id)`,
	`CREATE INDEX idx_orders_d ON orders (o_d_id)`,
	`CREATE TABLE new_orders (no_o_id INT PRIMARY KEY, no_d_id INT, no_w_id INT)`,
	`CREATE INDEX idx_no_d ON new_orders (no_d_id, no_o_id)`,
	`CREATE TABLE order_line (ol_id INT PRIMARY KEY, ol_o_id INT, ol_d_id INT, ol_i_id INT, ol_qty INT, ol_amount FLOAT)`,
	`CREATE INDEX idx_ol_o ON order_line (ol_o_id)`,
	`CREATE INDEX idx_ol_d ON order_line (ol_d_id, ol_o_id)`,
	`CREATE TABLE item (i_id INT PRIMARY KEY, i_name TEXT, i_price FLOAT)`,
	`CREATE TABLE stock (s_id INT PRIMARY KEY, s_i_id INT, s_w_id INT, s_quantity INT, s_ytd INT)`,
	`CREATE INDEX idx_stock_i ON stock (s_i_id)`,
}

// Config sizes the generated database.
type Config struct {
	Warehouses        int
	DistrictsPerWH    int
	CustomersPerDist  int
	Items             int
	InitialOrdersPerD int
}

// DefaultConfig is a laptop-scale TPC-C load (the paper used 20 warehouses
// on a server-class machine).
func DefaultConfig() Config {
	return Config{Warehouses: 2, DistrictsPerWH: 4, CustomersPerDist: 30, Items: 200, InitialOrdersPerD: 10}
}

// ids encodes composite TPC-C keys into single int64 primary keys.
func distID(w, d int) int64    { return int64(w*100 + d) }
func custID(w, d, c int) int64 { return int64(w*1_000_000 + d*10_000 + c) }
func stockID(w, i int) int64   { return int64(w*1_000_000 + i) }

// orderID packs a district and its o-th order; o comes from d_next_o_id.
func orderID(w, d int, o int64) int64 { return distID(w, d)*10_000_000 + o }

// Seed loads the database directly through the engine.
func Seed(db *engine.DB, cfg Config) error {
	s := db.NewSession()
	for _, ddl := range Schema {
		if _, err := s.Exec(ddl); err != nil {
			return fmt.Errorf("tpcc: schema: %w", err)
		}
	}
	rng := rand.New(rand.NewSource(99))
	exec := func(sql string, args ...any) error {
		vals := make([]sqldb.Value, len(args))
		for i, a := range args {
			vals[i] = a
		}
		if _, err := s.Exec(sql, vals...); err != nil {
			return fmt.Errorf("tpcc: seed: %w", err)
		}
		return nil
	}

	for i := 1; i <= cfg.Items; i++ {
		if err := exec("INSERT INTO item (i_id, i_name, i_price) VALUES (?, ?, ?)",
			int64(i), fmt.Sprintf("item-%d", i), 1.0+float64(rng.Intn(9900))/100); err != nil {
			return err
		}
	}
	olID := int64(0)
	for w := 1; w <= cfg.Warehouses; w++ {
		if err := exec("INSERT INTO warehouse (w_id, w_name, w_tax, w_ytd) VALUES (?, ?, ?, 0)",
			int64(w), fmt.Sprintf("wh-%d", w), float64(rng.Intn(20))/100); err != nil {
			return err
		}
		for i := 1; i <= cfg.Items; i++ {
			if err := exec("INSERT INTO stock (s_id, s_i_id, s_w_id, s_quantity, s_ytd) VALUES (?, ?, ?, ?, 0)",
				stockID(w, i), int64(i), int64(w), int64(10+rng.Intn(90))); err != nil {
				return err
			}
		}
		for d := 1; d <= cfg.DistrictsPerWH; d++ {
			nextO := cfg.InitialOrdersPerD + 1
			if err := exec("INSERT INTO district (d_id, d_w_id, d_name, d_tax, d_ytd, d_next_o_id) VALUES (?, ?, ?, ?, 0, ?)",
				distID(w, d), int64(w), fmt.Sprintf("dist-%d-%d", w, d), float64(rng.Intn(20))/100, int64(nextO)); err != nil {
				return err
			}
			for c := 1; c <= cfg.CustomersPerDist; c++ {
				if err := exec("INSERT INTO customer (c_id, c_d_id, c_w_id, c_last, c_balance, c_ytd_payment, c_payment_cnt, c_delivery_cnt) VALUES (?, ?, ?, ?, -10.0, 10.0, 1, 0)",
					custID(w, d, c), distID(w, d), int64(w), fmt.Sprintf("LAST%d", c%10)); err != nil {
					return err
				}
			}
			for o := 1; o <= cfg.InitialOrdersPerD; o++ {
				oID := orderID(w, d, int64(o))
				nLines := 5 + rng.Intn(5)
				if err := exec("INSERT INTO orders (o_id, o_d_id, o_w_id, o_c_id, o_ol_cnt, o_carrier_id) VALUES (?, ?, ?, ?, ?, 0)",
					oID, distID(w, d), int64(w), custID(w, d, 1+rng.Intn(cfg.CustomersPerDist)), int64(nLines)); err != nil {
					return err
				}
				if o > cfg.InitialOrdersPerD/2 {
					if err := exec("INSERT INTO new_orders (no_o_id, no_d_id, no_w_id) VALUES (?, ?, ?)",
						oID, distID(w, d), int64(w)); err != nil {
						return err
					}
				}
				for l := 0; l < nLines; l++ {
					olID++
					if err := exec("INSERT INTO order_line (ol_id, ol_o_id, ol_d_id, ol_i_id, ol_qty, ol_amount) VALUES (?, ?, ?, ?, ?, ?)",
						olID, oID, distID(w, d), int64(1+rng.Intn(cfg.Items)), int64(1+rng.Intn(10)), float64(rng.Intn(10000))/100); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// Client runs TPC-C transactions against an Executor. Not safe for
// concurrent use; give each simulated terminal its own Client.
type Client struct {
	exec Executor
	cfg  Config
	rng  *rand.Rand

	nextOLID   int64
	nextHistID int64
}

// NewClient creates a client with a deterministic RNG stream.
func NewClient(exec Executor, cfg Config, seed int64) *Client {
	return &Client{exec: exec, cfg: cfg, rng: rand.New(rand.NewSource(seed)),
		nextOLID: 5_000_000 + seed*200_000, nextHistID: 9_000_000 + seed*100_000}
}

func (c *Client) randWDC() (int, int, int) {
	return 1 + c.rng.Intn(c.cfg.Warehouses), 1 + c.rng.Intn(c.cfg.DistrictsPerWH), 1 + c.rng.Intn(c.cfg.CustomersPerDist)
}

// NewOrder runs the new-order transaction: read warehouse/district/customer,
// take the district's next order number, insert order + lines, update stock
// per line.
func (c *Client) NewOrder() error {
	w, d, cu := c.randWDC()
	if _, err := c.exec.Query("SELECT w_tax FROM warehouse WHERE w_id = ?", int64(w)); err != nil {
		return err
	}
	dist, err := c.exec.Query("SELECT d_tax, d_next_o_id FROM district WHERE d_id = ?", distID(w, d))
	if err != nil {
		return err
	}
	if dist.NumRows() == 0 {
		return fmt.Errorf("tpcc: district %d missing", distID(w, d))
	}
	nextO, _ := dist.Int(0, "d_next_o_id")
	oid := orderID(w, d, nextO)
	if _, err := c.exec.Query("UPDATE district SET d_next_o_id = d_next_o_id + 1 WHERE d_id = ?", distID(w, d)); err != nil {
		return err
	}
	if _, err := c.exec.Query("SELECT c_last, c_balance FROM customer WHERE c_id = ?", custID(w, d, cu)); err != nil {
		return err
	}
	nLines := 5 + c.rng.Intn(10)
	if _, err := c.exec.Query("INSERT INTO orders (o_id, o_d_id, o_w_id, o_c_id, o_ol_cnt, o_carrier_id) VALUES (?, ?, ?, ?, ?, 0)",
		oid, distID(w, d), int64(w), custID(w, d, cu), int64(nLines)); err != nil {
		return err
	}
	if _, err := c.exec.Query("INSERT INTO new_orders (no_o_id, no_d_id, no_w_id) VALUES (?, ?, ?)",
		oid, distID(w, d), int64(w)); err != nil {
		return err
	}
	for l := 0; l < nLines; l++ {
		item := 1 + c.rng.Intn(c.cfg.Items)
		ir, err := c.exec.Query("SELECT i_price FROM item WHERE i_id = ?", int64(item))
		if err != nil {
			return err
		}
		price, _ := ir.Get(0, "i_price")
		sr, err := c.exec.Query("SELECT s_quantity FROM stock WHERE s_id = ?", stockID(w, item))
		if err != nil {
			return err
		}
		qty, _ := sr.Int(0, "s_quantity")
		orderQty := int64(1 + c.rng.Intn(10))
		newQty := qty - orderQty
		if newQty < 10 {
			newQty += 91
		}
		if _, err := c.exec.Query("UPDATE stock SET s_quantity = ?, s_ytd = s_ytd + ? WHERE s_id = ?",
			newQty, orderQty, stockID(w, item)); err != nil {
			return err
		}
		c.nextOLID++
		amount := float64(orderQty) * price.(float64)
		if _, err := c.exec.Query("INSERT INTO order_line (ol_id, ol_o_id, ol_d_id, ol_i_id, ol_qty, ol_amount) VALUES (?, ?, ?, ?, ?, ?)",
			c.nextOLID, oid, distID(w, d), int64(item), orderQty, amount); err != nil {
			return err
		}
	}
	return nil
}

// Payment runs the payment transaction.
func (c *Client) Payment() error {
	w, d, cu := c.randWDC()
	amount := float64(1+c.rng.Intn(5000)) / 100
	if _, err := c.exec.Query("UPDATE warehouse SET w_ytd = w_ytd + ? WHERE w_id = ?", amount, int64(w)); err != nil {
		return err
	}
	if _, err := c.exec.Query("UPDATE district SET d_ytd = d_ytd + ? WHERE d_id = ?", amount, distID(w, d)); err != nil {
		return err
	}
	cr, err := c.exec.Query("SELECT c_balance, c_ytd_payment FROM customer WHERE c_id = ?", custID(w, d, cu))
	if err != nil {
		return err
	}
	if cr.NumRows() == 0 {
		return fmt.Errorf("tpcc: customer %d missing", custID(w, d, cu))
	}
	if _, err := c.exec.Query("UPDATE customer SET c_balance = c_balance - ?, c_ytd_payment = c_ytd_payment + ?, c_payment_cnt = c_payment_cnt + 1 WHERE c_id = ?",
		amount, amount, custID(w, d, cu)); err != nil {
		return err
	}
	c.nextHistID++
	_, err = c.exec.Query("INSERT INTO history (h_id, h_c_id, h_d_id, h_w_id, h_amount) VALUES (?, ?, ?, ?, ?)",
		c.nextHistID, custID(w, d, cu), distID(w, d), int64(w), amount)
	return err
}

// OrderStatus runs the order-status transaction (read-only).
func (c *Client) OrderStatus() error {
	w, d, cu := c.randWDC()
	if _, err := c.exec.Query("SELECT c_balance, c_last FROM customer WHERE c_id = ?", custID(w, d, cu)); err != nil {
		return err
	}
	or, err := c.exec.Query("SELECT o_id, o_carrier_id FROM orders WHERE o_c_id = ? ORDER BY o_id DESC LIMIT 1", custID(w, d, cu))
	if err != nil {
		return err
	}
	if or.NumRows() == 0 {
		return nil // customer has no orders yet
	}
	oid, _ := or.Int(0, "o_id")
	_, err = c.exec.Query("SELECT ol_i_id, ol_qty, ol_amount FROM order_line WHERE ol_o_id = ?", oid)
	return err
}

// Delivery runs the delivery transaction over every district of a random
// warehouse.
func (c *Client) Delivery() error {
	w := 1 + c.rng.Intn(c.cfg.Warehouses)
	for d := 1; d <= c.cfg.DistrictsPerWH; d++ {
		nr, err := c.exec.Query("SELECT no_o_id FROM new_orders WHERE no_d_id = ? ORDER BY no_o_id LIMIT 1", distID(w, d))
		if err != nil {
			return err
		}
		if nr.NumRows() == 0 {
			continue
		}
		oid, _ := nr.Int(0, "no_o_id")
		if _, err := c.exec.Query("DELETE FROM new_orders WHERE no_o_id = ?", oid); err != nil {
			return err
		}
		if _, err := c.exec.Query("UPDATE orders SET o_carrier_id = ? WHERE o_id = ?", int64(1+c.rng.Intn(10)), oid); err != nil {
			return err
		}
		or, err := c.exec.Query("SELECT o_c_id FROM orders WHERE o_id = ?", oid)
		if err != nil {
			return err
		}
		if or.NumRows() == 0 {
			continue
		}
		cid, _ := or.Int(0, "o_c_id")
		sum, err := c.exec.Query("SELECT SUM(ol_amount) AS total FROM order_line WHERE ol_o_id = ?", oid)
		if err != nil {
			return err
		}
		total, _ := sum.Get(0, "total")
		amt := 0.0
		if f, ok := total.(float64); ok {
			amt = f
		}
		if _, err := c.exec.Query("UPDATE customer SET c_balance = c_balance + ?, c_delivery_cnt = c_delivery_cnt + 1 WHERE c_id = ?", amt, cid); err != nil {
			return err
		}
	}
	return nil
}

// StockLevel runs the stock-level transaction (read-only): the stock of the
// items on the district's last 20 orders.
func (c *Client) StockLevel() error {
	w, d, _ := c.randWDC()
	dr, err := c.exec.Query("SELECT d_next_o_id FROM district WHERE d_id = ?", distID(w, d))
	if err != nil {
		return err
	}
	nextO, _ := dr.Int(0, "d_next_o_id")
	lines, err := c.exec.Query("SELECT ol_i_id FROM order_line WHERE ol_d_id = ? AND ol_o_id >= ? AND ol_o_id < ?",
		distID(w, d), orderID(w, d, nextO-20), orderID(w, d, nextO))
	if err != nil {
		return err
	}
	threshold := int64(10 + c.rng.Intn(10))
	seen := make(map[int64]bool)
	low := 0
	for i := 0; i < lines.NumRows(); i++ {
		iid, _ := lines.Int(i, "ol_i_id")
		if seen[iid] {
			continue
		}
		seen[iid] = true
		sr, err := c.exec.Query("SELECT s_quantity FROM stock WHERE s_id = ?", stockID(w, int(iid)))
		if err != nil {
			return err
		}
		if q, _ := sr.Int(0, "s_quantity"); q < threshold {
			low++
		}
	}
	return nil
}

// TxnNames lists the five transaction types in the paper's Fig. 13 order.
var TxnNames = []string{"New order", "Order status", "Stock level", "Payment", "Delivery"}

// Run executes one named transaction.
func (c *Client) Run(name string) error {
	switch name {
	case "New order":
		return c.NewOrder()
	case "Order status":
		return c.OrderStatus()
	case "Stock level":
		return c.StockLevel()
	case "Payment":
		return c.Payment()
	case "Delivery":
		return c.Delivery()
	default:
		return fmt.Errorf("tpcc: unknown transaction %q", name)
	}
}
