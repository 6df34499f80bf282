// Package bench is the experiment harness: it reproduces every table and
// figure in the paper's evaluation (Sec. 6) on top of the reproduction's
// substrates. Each experiment has a Run function returning a typed report
// with a Format method that prints rows in the paper's layout, and a
// corresponding benchmark in the repository root.
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
	// DB is the engine behind Srv; the sharded constructors partition its
	// storage, and the merge wiring asks it for a shard router.
	DB *engine.DB
	// StoreCfg is the query-store configuration used by LoadPage for
	// Sloth-mode loads; the zero value is the paper's configuration. The
	// slothbench -merge flag sets StoreCfg.Merge.Enabled here.
	StoreCfg querystore.Config
	app      appAdapter
	req      webapp.Params
}

// NewEnv builds and seeds an environment. scale multiplies the default data
// sizes for the scaling experiment; pass 1 for the standard database.
func NewEnv(id AppID, scale int) (*Env, error) {
	return NewEnvSharded(id, scale, 1)
}

// NewEnvSharded is NewEnv over a horizontally partitioned database: every
// table's rows hash across shards stores, each with its own version
// chains and GC, and the driver models shards independent worker groups.
// Rendering is byte-identical to the unsharded environment at any shard
// count; only the occupancy model (and therefore throughput under
// concurrency) changes. shards <= 1 yields the plain single-store env.
func NewEnvSharded(id AppID, scale, shards int) (*Env, error) {
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

// shardCfg completes a store config against this env: when the merge
// optimizer runs over a sharded database it needs the engine's shard
// router so merge families split per shard before any IN-list rewrite
// (ShardRouter is nil on an unsharded env, so this is a no-op there).
func (e *Env) shardCfg(cfg querystore.Config) querystore.Config {
	if cfg.Merge.Enabled && cfg.Merge.ShardOf == nil {
		cfg.Merge.ShardOf = e.DB.ShardRouter()
	}
	return cfg
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
	NetTime    time.Duration
	RoundTrips int64
	Queries    int64 // statements executed at the database
	MaxBatch   int
	MergeSaved int64 // statements eliminated by the merge optimizer
	// MergeFamilySaved breaks MergeSaved down per merge family
	// (merge.FamilyID-indexed).
	MergeFamilySaved [merge.NumFamilies]int64
}

// LoadPage runs one page in the given mode at the given RTT, on a fresh
// connection and session (the paper restarts state between measurements).
func (e *Env) LoadPage(page string, mode orm.Mode, rtt time.Duration) (PageMetrics, error) {
	_, m, err := e.LoadPageHTML(page, mode, rtt, e.StoreCfg)
	return m, err
}

// loadPageWithStore runs one Sloth-mode page load with a custom query-store
// configuration (the store and merge ablations).
func loadPageWithStore(e *Env, page string, cfg querystore.Config) (PageMetrics, error) {
	_, m, err := e.LoadPageHTML(page, orm.ModeSloth, 500*time.Microsecond, cfg)
	return m, err
}

// LoadPageHTML runs one page load and returns the rendered output alongside
// the metrics. It is the single load implementation (LoadPage and the
// ablation loaders delegate here) and the golden-equality hook used to
// assert that neither the merge optimizer nor any dispatch strategy
// changes what a page renders.
func (e *Env) LoadPageHTML(page string, mode orm.Mode, rtt time.Duration, cfg querystore.Config) (string, PageMetrics, error) {
	cfg = e.shardCfg(cfg)
	link := netsim.NewLink(e.Clock, rtt)
	conn := e.Srv.Connect(link)
	store := querystore.New(conn, cfg)
	defer store.Close()
	sess := orm.NewSession(store, mode)
	dbBefore := e.Srv.Stats().DBTime
	start := e.Clock.Now()
	res, err := e.app.Load(page, e.req, sess)
	if err != nil {
		return "", PageMetrics{}, fmt.Errorf("bench: %s page %q: %w", mode2str(mode), page, err)
	}
	// The store is fresh per load, so its merger's totals are this page's.
	ms := store.MergeStats()
	m := PageMetrics{
		Page:             page,
		Total:            e.Clock.Now() - start,
		AppTime:          res.AppTime,
		DBTime:           e.Srv.Stats().DBTime - dbBefore,
		NetTime:          link.Stats().NetTime,
		RoundTrips:       link.Stats().RoundTrips,
		Queries:          conn.QueriesSent(),
		MaxBatch:         store.Stats().MaxBatch,
		MergeSaved:       ms.Saved,
		MergeFamilySaved: ms.SavedByFamily,
	}
	if mode == orm.ModeOriginal {
		m.MaxBatch = 1
	}
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

// RunSuite loads every page in both modes at the given RTT.
func (e *Env) RunSuite(rtt time.Duration) ([]Comparison, error) {
	var out []Comparison
	for _, page := range e.Pages() {
		orig, err := e.LoadPage(page, orm.ModeOriginal, rtt)
		if err != nil {
			return nil, err
		}
		sloth, err := e.LoadPage(page, orm.ModeSloth, rtt)
		if err != nil {
			return nil, err
		}
		out = append(out, Comparison{Page: page, Orig: orig, Sloth: sloth})
	}
	return out, nil
}
