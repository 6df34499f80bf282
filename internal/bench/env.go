// Package bench is the experiment harness: it reproduces every table and
// figure in the paper's evaluation (Sec. 6) on top of the reproduction's
// substrates. Each experiment is a function returning a typed report with a
// Format method that prints rows in the paper's layout; cmd/slothbench is
// the one command that runs and prints them.
package bench

import (
	"fmt"
	"time"

	"repro/internal/apps/itracker"
	"repro/internal/apps/openmrs"
	"repro/internal/driver"
	"repro/internal/faults"
	"repro/internal/merge"
	"repro/internal/netsim"
	"repro/internal/orm"
	"repro/internal/querystore"
	"repro/internal/sqldb/engine"
	"repro/internal/webapp"
)

// AppID selects one of the two evaluation applications.
type AppID int

const (
	// Itracker is the 38-page issue tracker.
	Itracker AppID = iota
	// OpenMRS is the 112-page medical record system.
	OpenMRS
)

// String names the application.
func (a AppID) String() string {
	if a == Itracker {
		return "itracker"
	}
	return "OpenMRS"
}

// appAdapter is the common surface of the two applications.
type appAdapter interface {
	Pages() []string
	Load(name string, req webapp.Params, sess *orm.Session) (*webapp.Result, error)
}

// Env is one application wired to a server over a virtual clock: the
// equivalent of the paper's web host + database host pair.
type Env struct {
	ID    AppID
	Clock *netsim.VirtualClock
	Srv   *driver.Server
	// DB is the engine behind Srv; NewEnv partitions its storage when
	// asked for shards, and the merge wiring asks it for a shard router.
	DB *engine.DB
	// StoreCfg is the query-store configuration RunSuite and Throughput
	// load pages under; the zero value is the paper's configuration. The
	// slothbench -merge and -dispatch flags set it.
	StoreCfg querystore.Config
	app      appAdapter
	req      webapp.Params
}

// NewEnv builds and seeds an environment. scale multiplies the default data
// sizes for the scaling experiment; pass 1 for the standard database.
// shards > 1 partitions the database horizontally: every table's rows hash
// across shards stores, each with its own version chains and GC, and the
// driver models shards independent worker groups. Rendering is
// byte-identical at any shard count; only the occupancy model (and
// therefore throughput under concurrency) changes.
func NewEnv(id AppID, scale, shards int) (*Env, error) {
	if scale < 1 {
		scale = 1
	}
	clock := netsim.NewVirtualClock()
	db := engine.NewSharded(shards)
	env := &Env{ID: id, Clock: clock, DB: db}
	switch id {
	case Itracker:
		size := itracker.DefaultSize()
		size.Projects *= scale
		if err := itracker.Seed(db, size); err != nil {
			return nil, err
		}
		env.app = itracker.Build(clock, webapp.DefaultCostProfile())
		env.req = webapp.Params{"projectId": itracker.MainProjectID, "issueId": itracker.MainIssueID}
	case OpenMRS:
		size := openmrs.DefaultSize()
		size.ObsPerEncounter *= scale
		// The paper's growing batches (68 → 1880 queries) imply the
		// observation concepts stay largely distinct as data grows, so the
		// dictionary scales with the observations.
		size.Concepts *= scale
		if err := openmrs.Seed(db, size); err != nil {
			return nil, err
		}
		env.app = openmrs.Build(clock, webapp.DefaultCostProfile())
		env.req = webapp.Params{"patientId": openmrs.DashboardPatientID}
	default:
		return nil, fmt.Errorf("bench: unknown app %d", id)
	}
	env.Srv = driver.NewServer(db, clock, driver.DefaultCostModel())
	return env, nil
}

// Pages lists the benchmark pages.
func (e *Env) Pages() []string { return e.app.Pages() }

// SetFaults installs a deterministic fault plane built from cfg on the
// env's server. Call e.Srv.SetFaults(nil) to remove injection entirely.
// Loads issued after this call see injected faults; pair it with
// StoreCfg.Retry so sessions can recover.
func (e *Env) SetFaults(cfg faults.Config) {
	e.Srv.SetFaults(faults.NewPlane(cfg))
}

// LoadInto replays one page into an existing session — the concurrent
// throughput experiment's entry point, where sessions keep their own
// clocks, connections, and dispatchers across a whole replay.
func (e *Env) LoadInto(page string, sess *orm.Session) (*webapp.Result, error) {
	return e.app.Load(page, e.req, sess)
}

// PageMetrics reports one page load.
type PageMetrics struct {
	Page       string
	Total      time.Duration
	AppTime    time.Duration
	DBTime     time.Duration
	DBRows     int64 // physical rows the executor visited
	NetTime    time.Duration
	RoundTrips int64
	Timeouts   int64 // round trips that failed at the link (injected)
	Queries    int64 // statements executed at the database
	MaxBatch   int
	// Batches, Retries and Errors are the dispatcher's counts
	// (dispatch.Stats): batches submitted, backed-off re-attempts and
	// terminal batch failures.
	Batches, Retries, Errors int64
	MergeSaved               int64 // statements eliminated by the merge optimizer
	// MergeFamilySaved breaks MergeSaved down per merge family
	// (merge.FamilyID-indexed).
	MergeFamilySaved [merge.NumFamilies]int64
}

// LoadPageHTML runs one page in the given mode at the given RTT under the
// given query-store configuration, on a fresh link, connection, store and
// session (the paper restarts state between measurements), and returns the
// rendered output alongside the metrics. It is the only single-session
// load: the suite, every figure and ablation, the fault sweep, and the
// golden-equality tests that assert neither the merge optimizer nor any
// dispatch strategy changes what a page renders. A failed load still
// reports what it cost (time, retries, errors) beside the error.
func (e *Env) LoadPageHTML(page string, mode orm.Mode, rtt time.Duration, cfg querystore.Config) (string, PageMetrics, error) {
	link := netsim.NewLink(e.Clock, rtt)
	conn := e.Srv.Connect(link)
	store := querystore.New(conn, cfg)
	defer store.Close()
	sess := orm.NewSession(store, mode)
	before := e.Srv.Stats()
	start := e.Clock.Now()
	res, err := e.app.Load(page, e.req, sess)
	// The link, connection and store are fresh per load, so their totals
	// are this page's; the server's are deltas.
	after, ls, ds, ms, qs := e.Srv.Stats(), link.Stats(), store.Dispatcher().Stats(), store.MergeStats(), store.Stats()
	m := PageMetrics{
		Page:             page,
		Total:            e.Clock.Now() - start,
		DBTime:           after.DBTime - before.DBTime,
		DBRows:           after.Rows - before.Rows,
		NetTime:          ls.NetTime,
		RoundTrips:       ls.RoundTrips,
		Timeouts:         ls.Timeouts,
		Queries:          conn.QueriesSent(),
		MaxBatch:         qs.MaxBatch,
		Batches:          qs.Batches,
		Retries:          ds.Retries,
		Errors:           ds.Errors,
		MergeSaved:       ms.Saved,
		MergeFamilySaved: ms.SavedByFamily,
	}
	if mode == orm.ModeOriginal {
		m.MaxBatch = 1
	}
	if err != nil {
		return "", m, fmt.Errorf("bench: %s page %q: %w", mode2str(mode), page, err)
	}
	m.AppTime = res.AppTime
	return res.HTML, m, nil
}

func mode2str(m orm.Mode) string {
	if m == orm.ModeOriginal {
		return "original"
	}
	return "sloth"
}

// Comparison pairs the two modes for one page.
type Comparison struct {
	Page  string
	Orig  PageMetrics
	Sloth PageMetrics
}

// Speedup is the paper's load-time ratio (original / sloth).
func (c Comparison) Speedup() float64 {
	if c.Sloth.Total == 0 {
		return 0
	}
	return float64(c.Orig.Total) / float64(c.Sloth.Total)
}

// TripRatio is the round-trip ratio (original / sloth).
func (c Comparison) TripRatio() float64 {
	if c.Sloth.RoundTrips == 0 {
		return 0
	}
	return float64(c.Orig.RoundTrips) / float64(c.Sloth.RoundTrips)
}

// QueryRatio is the total-issued-queries ratio (original / sloth).
func (c Comparison) QueryRatio() float64 {
	if c.Sloth.Queries == 0 {
		return 0
	}
	return float64(c.Orig.Queries) / float64(c.Sloth.Queries)
}

// suiteSum loads every page once in one mode at the paper's 500µs RTT under
// cfg and sums the pages' metrics (MaxBatch and the dispatcher counts stay
// zero): the aggregate the throughput model and the store and merge
// ablations read.
func (e *Env) suiteSum(mode orm.Mode, cfg querystore.Config) (PageMetrics, error) {
	var sum PageMetrics
	for _, page := range e.Pages() {
		_, m, err := e.LoadPageHTML(page, mode, 500*time.Microsecond, cfg)
		if err != nil {
			return sum, err
		}
		sum.Total += m.Total
		sum.AppTime += m.AppTime
		sum.DBTime += m.DBTime
		sum.DBRows += m.DBRows
		sum.NetTime += m.NetTime
		sum.RoundTrips += m.RoundTrips
		sum.Queries += m.Queries
		sum.MergeSaved += m.MergeSaved
		for f, n := range m.MergeFamilySaved {
			sum.MergeFamilySaved[f] += n
		}
	}
	return sum, nil
}

// RunSuite loads every page in both modes at the given RTT under StoreCfg.
func (e *Env) RunSuite(rtt time.Duration) ([]Comparison, error) {
	var out []Comparison
	for _, page := range e.Pages() {
		_, orig, err := e.LoadPageHTML(page, orm.ModeOriginal, rtt, e.StoreCfg)
		if err != nil {
			return nil, err
		}
		_, sloth, err := e.LoadPageHTML(page, orm.ModeSloth, rtt, e.StoreCfg)
		if err != nil {
			return nil, err
		}
		out = append(out, Comparison{Page: page, Orig: orig, Sloth: sloth})
	}
	return out, nil
}
