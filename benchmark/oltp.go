package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/apps/tpcc"
	"repro/internal/apps/tpcw"
	"repro/internal/driver"
	"repro/internal/netsim"
	"repro/internal/querystore"
	"repro/internal/sqldb/engine"
)

// oltp_sloth runs TPC-C and TPC-W through the Sloth-compiled executor on a
// zero cost model and a zero-latency link, exactly as the paper's overhead
// experiment (Fig. 13): host time is all there is to measure.

const (
	tpccPerPass = 200
	tpcwPerPass = 200
	tpcwMix     = "Shopping mix"
)

// TPC-C transaction types, with how many of each one pass holds: the
// standard mix, 45/43/4/4/4 of tpccPerPass. A pass plays a shuffled deck of
// exactly these cards (the TPC-C specification's own card-deck method), so
// every pass, whatever the seed, does the same number of each transaction
// and only their order and their keys vary.
const (
	txNewOrder = iota
	txPayment
	txOrderStatus
	txDelivery
	txStockLevel
	nTx
)

var (
	txNames = [nTx]string{"New order", "Payment", "Order status", "Delivery", "Stock level"}
	txCards = [nTx]int{90, 86, 8, 8, 8}
)

// newDeck returns one pass's TPC-C cards, unshuffled.
func newDeck() []int {
	deck := make([]int, 0, tpccPerPass)
	for tx, n := range txCards {
		for i := 0; i < n; i++ {
			deck = append(deck, tx)
		}
	}
	return deck
}

// oltpSide is one executor's whole world: both databases, their servers,
// the TPC clients and the generator that draws the transaction mix. The
// Sloth side is what the workload measures; a Direct side fed the same
// seeds is its reference.
type oltpSide struct {
	dbs   []*engine.DB     // tpcc, tpcw
	srvs  []*driver.Server // tpcc, tpcw
	sess  []*session       // tpcc, tpcw
	clock *netsim.VirtualClock
	mix   *rand.Rand
	deck  []int
	c     *tpcc.Client
	w     *tpcw.Client
	// txRun counts executed TPC-C transactions per type.
	txRun [nTx]int64
}

func newOLTPSide(seed int64, sloth bool, tr *tracer, rec *corpus) (*oltpSide, error) {
	side := &oltpSide{clock: netsim.NewVirtualClock()}
	ccfg, wcfg := tpcc.DefaultConfig(), tpcw.DefaultConfig()
	cdb, wdb := engine.New(), engine.New()
	if err := tpcc.Seed(cdb, ccfg); err != nil {
		return nil, err
	}
	if err := tpcw.Seed(wdb, wcfg); err != nil {
		return nil, err
	}
	side.dbs = []*engine.DB{cdb, wdb}
	execs := make([]tpcc.Executor, 2)
	for i, db := range side.dbs {
		srv := driver.NewServer(db, side.clock, driver.CostModel{})
		side.srvs = append(side.srvs, srv)
		if !sloth {
			execs[i] = tpcc.DirectExecutor{Conn: srv.Connect(netsim.NewLink(side.clock, 0))}
			continue
		}
		var cfg querystore.Config
		if rec != nil {
			cfg.Record = rec.recorder(i)
		}
		s := openSession(srv, side.clock, 0, cfg, tr)
		side.sess = append(side.sess, s)
		execs[i] = tpcc.SlothExecutor{Store: s.store}
		if tr != nil {
			execs[i] = tracedExecutor{execs[i], tr}
		}
	}
	// The program receives only generated inputs: the clients' own streams
	// and the mix are all drawn from the one seeded generator. The TPC
	// clients derive key ranges from their seed, so keep it small.
	rng := rand.New(rand.NewSource(seed))
	side.c = tpcc.NewClient(execs[0], ccfg, 1+rng.Int63n(1<<16))
	side.w = tpcw.NewClient(execs[1], wcfg, 1+rng.Int63n(1<<16))
	side.mix = rand.New(rand.NewSource(rng.Int63()))
	side.deck = newDeck()
	return side, nil
}

// shuffle deals the next pass's TPC-C deck.
func (s *oltpSide) shuffle() {
	s.mix.Shuffle(len(s.deck), func(i, j int) { s.deck[i], s.deck[j] = s.deck[j], s.deck[i] })
}

// tpccOp runs card i of the pass's deck.
func (s *oltpSide) tpccOp(i int) error {
	tx := s.deck[i]
	s.txRun[tx]++
	if err := s.c.Run(txNames[tx]); err != nil {
		return fmt.Errorf("tpcc %s: %w", txNames[tx], err)
	}
	return nil
}

func (s *oltpSide) tpcwOp() error {
	if err := s.w.RunMixStep(tpcwMix); err != nil {
		return fmt.Errorf("tpcw %s: %w", tpcwMix, err)
	}
	return nil
}

// runPass runs one pass with no bookkeeping: the reference side's loop.
func (s *oltpSide) runPass() error {
	s.shuffle()
	for i := 0; i < tpccPerPass; i++ {
		if err := s.tpccOp(i); err != nil {
			return err
		}
	}
	for i := 0; i < tpcwPerPass; i++ {
		if err := s.tpcwOp(); err != nil {
			return err
		}
	}
	return nil
}

// digests hashes both databases.
func (s *oltpSide) digests() [2]string {
	var out [2]string
	for i, db := range s.dbs {
		out[i] = dbDigest(db)
	}
	return out
}

// tableRows reports one TPC-C table's row count.
func (s *oltpSide) tableRows(name string) int64 {
	t, _ := s.dbs[0].Store().Table(name)
	return int64(t.NumRows())
}

type oltpInstance struct {
	sloth *oltpSide
	// direct is the DirectExecutor reference fed the same seeds. It is
	// dropped after set-up unless the traced run keeps it to replay the
	// measured passes.
	direct *oltpSide
	cl     *oltpClient
	rec    *corpus // nil unless traced
	base   counters
	// Row counts and transaction counts at the start of the measured
	// window, for verify's conservation checks.
	baseOrders, baseHistory int64
	baseTx                  [nTx]int64
}

// setupOLTP seeds a Sloth side and a Direct side alike, warms both up with
// the same seeded sequence and requires their databases to digest equal.
func setupOLTP(seed int64, tc *traceCfg) (*oltpInstance, error) {
	inst := &oltpInstance{}
	var tr *tracer
	if tc != nil {
		tr = newTracer(tc.origin)
		inst.rec = &corpus{on: true}
	}
	var err error
	if inst.sloth, err = newOLTPSide(seed, true, tr, inst.rec); err != nil {
		return nil, err
	}
	if inst.direct, err = newOLTPSide(seed, false, nil, nil); err != nil {
		return nil, err
	}
	inst.cl = &oltpClient{side: inst.sloth, tr: tr}
	if m := measure(inst, limit{passes: warmupPasses}); m.failed > 0 {
		return nil, fmt.Errorf("warm-up: %w", m.failure())
	}
	for i := 0; i < warmupPasses; i++ {
		if err := inst.direct.runPass(); err != nil {
			return nil, fmt.Errorf("direct warm-up: %w", err)
		}
	}
	if err := inst.compareDirect(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if tc == nil {
		inst.direct = nil
	} else {
		inst.rec.on = false
		tr.reset()
	}
	return inst, nil
}

// compareDirect requires the Sloth side's databases to hold exactly the
// rows of the Direct side's.
func (in *oltpInstance) compareDirect() error {
	if got, want := in.sloth.digests(), in.direct.digests(); got != want {
		return fmt.Errorf("sloth and direct executors diverged: database digests %v vs %v", got, want)
	}
	return nil
}

func (in *oltpInstance) clients() []client         { return []client{in.cl} }
func (in *oltpInstance) servers() []*driver.Server { return in.sloth.srvs }
func (in *oltpInstance) dbs() []*engine.DB         { return in.sloth.dbs }
func (in *oltpInstance) corpus() *corpus           { return in.rec }

func (in *oltpInstance) cumulative() counters {
	var c counters
	for _, s := range in.sloth.sess {
		c.add(sessionCounters(s))
	}
	return c
}

func (in *oltpInstance) resetCounters() {
	in.base = in.cumulative()
	in.baseOrders, in.baseHistory = in.sloth.tableRows("orders"), in.sloth.tableRows("history")
	in.baseTx = in.sloth.txRun
}

func (in *oltpInstance) sessionCounters() counters {
	c := in.cumulative()
	c.sub(in.base)
	return c
}

// verify checks conservation over the measured window: every New order
// added exactly one orders row, every Payment one history row, and the
// warehouse and district year-to-date totals, which Payment raises by the
// same amount, still agree.
func (in *oltpInstance) verify() error {
	s := in.sloth
	if got, want := s.tableRows("orders")-in.baseOrders, s.txRun[txNewOrder]-in.baseTx[txNewOrder]; got != want {
		return fmt.Errorf("tpcc: %d new orders rows for %d New order transactions", got, want)
	}
	if got, want := s.tableRows("history")-in.baseHistory, s.txRun[txPayment]-in.baseTx[txPayment]; got != want {
		return fmt.Errorf("tpcc: %d new history rows for %d Payment transactions", got, want)
	}
	sess := s.dbs[0].NewSession()
	w, err := sess.Exec("SELECT SUM(w_ytd) AS t FROM warehouse")
	if err != nil {
		return err
	}
	d, err := sess.Exec("SELECT SUM(d_ytd) AS t FROM district")
	if err != nil {
		return err
	}
	wv, _ := w.Get(0, "t")
	dv, _ := d.Get(0, "t")
	wf, _ := wv.(float64)
	df, _ := dv.(float64)
	if diff := wf - df; diff > 1e-6*wf || -diff > 1e-6*wf {
		return fmt.Errorf("tpcc: warehouse ytd %v != district ytd %v", wf, df)
	}
	return nil
}

func (in *oltpInstance) close() {
	for _, s := range in.sloth.sess {
		s.store.Close()
	}
}

// oltpClient is the one closed-loop terminal: each pass it runs
// tpccPerPass TPC-C transactions, then tpcwPerPass TPC-W interactions.
type oltpClient struct {
	side *oltpSide
	r    recorder
	tr   *tracer
}

func (c *oltpClient) rec() *recorder         { return &c.r }
func (c *oltpClient) virtNow() time.Duration { return c.side.clock.Now() }

func (c *oltpClient) spans() []span { return c.tr.log() }

func (c *oltpClient) pass() {
	c.side.shuffle()
	for i := 0; i < tpccPerPass; i++ {
		op := c.tr.begin(spanOp)
		err := c.side.tpccOp(i)
		c.tr.end(op)
		c.r.op(0, err)
	}
	for i := 0; i < tpcwPerPass; i++ {
		op := c.tr.begin(spanOp)
		err := c.side.tpcwOp()
		c.tr.end(op)
		c.r.op(0, err)
	}
}
