package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/apps/itracker"
	"repro/internal/apps/openmrs"
	"repro/internal/dispatch"
	"repro/internal/driver"
	"repro/internal/merge"
	"repro/internal/netsim"
	"repro/internal/orm"
	"repro/internal/querystore"
	"repro/internal/sqldb/engine"
	"repro/internal/webapp"
)

// The three page workloads replay the paper's 150 benchmark pages (38
// itracker + 112 OpenMRS) against two long-lived database servers, one per
// application. They differ only in pageSpec.

// pageSpec is what distinguishes the page workloads.
type pageSpec struct {
	clients int
	shards  int
	cfg     querystore.Config
	// longLived keeps one clock/link/conn/store/session per client and app
	// for the whole run (identity map cleared per page, stores flushed at
	// pass end) instead of opening fresh ones per load.
	longLived bool
	// writes adds one access_log INSERT through the ORM to every op.
	writes bool
}

// mergeAll turns the merge optimizer on with all three families (equality,
// aggregate, range) at the default IN-list width.
var mergeAll = merge.Config{Enabled: true}

var pageSpecs = map[string]pageSpec{
	wlPagesSloth: {clients: 1, shards: 1},
	wlPagesMerge: {clients: 1, shards: 1, cfg: querystore.Config{Merge: mergeAll}},
	wlSessionsRW: {clients: 2, shards: 2, longLived: true, writes: true,
		cfg: querystore.Config{Dispatch: dispatch.KindAsync, PipelineWrites: true}},
}

// warmupPasses are run, untimed, on every fresh deployment before it is
// measured: caches fill and lazy set-up finishes during set-up.
const warmupPasses = 3

// visit is the access-log row sessions_rw inserts once per page load (the
// audit/analytics INSERT a production handler makes).
type visit struct {
	ID      int64 `orm:"id,pk"`
	Session int64 `orm:"session_id"`
	Page    int64 `orm:"page_id"`
}

var visitMeta = orm.MustRegister[visit]("access_log")

const visitSchema = "CREATE TABLE access_log (id INT PRIMARY KEY, session_id INT, page_id INT)"

// appDep is one application deployed on its own database server.
type appDep struct {
	name string
	db   *engine.DB
	srv  *driver.Server
	load func(page string, sess *orm.Session) (*webapp.Result, error)
}

// pageRef names one benchmark page: pages are kept in canonical order
// (itracker's registration order, then OpenMRS's) and referred to by index.
type pageRef struct {
	app  int
	name string
}

type pagesInstance struct {
	spec  pageSpec
	apps  []*appDep
	pages []pageRef
	ref   []string // reference HTML per page, from the original-mode pass
	// origVirt is each page's virtual load time in original mode, from the
	// set-up pass; clients keep the workload-mode time of each page's last
	// load (pageClient.pageVirt).
	origVirt []time.Duration
	cls      []*pageClient
	rec      *corpus // nil unless traced
}

// newAppDeps seeds both applications at their standard sizes.
func newAppDeps(spec pageSpec) ([]*appDep, []pageRef, error) {
	profile := webapp.DefaultCostProfile()

	idb := engine.NewSharded(spec.shards)
	if err := itracker.Seed(idb, itracker.DefaultSize()); err != nil {
		return nil, nil, err
	}
	iapp := itracker.Build(netsim.NewVirtualClock(), profile)
	ireq := webapp.Params{"projectId": itracker.MainProjectID, "issueId": itracker.MainIssueID}

	odb := engine.NewSharded(spec.shards)
	if err := openmrs.Seed(odb, openmrs.DefaultSize()); err != nil {
		return nil, nil, err
	}
	oapp := openmrs.Build(netsim.NewVirtualClock(), profile)
	oreq := webapp.Params{"patientId": openmrs.DashboardPatientID}

	apps := []*appDep{
		{name: "itracker", db: idb, load: func(p string, s *orm.Session) (*webapp.Result, error) { return iapp.Load(p, ireq, s) }},
		{name: "openmrs", db: odb, load: func(p string, s *orm.Session) (*webapp.Result, error) { return oapp.Load(p, oreq, s) }},
	}
	var pages []pageRef
	for i, names := range [][]string{iapp.Pages(), oapp.Pages()} {
		for _, n := range names {
			pages = append(pages, pageRef{app: i, name: n})
		}
	}
	for _, a := range apps {
		if spec.writes {
			// Created directly in the engine, like the seed fixtures: DDL
			// through a timed connection would occupy a worker lane.
			if _, err := a.db.NewSession().Exec(visitSchema); err != nil {
				return nil, nil, err
			}
		}
		// One DB worker per shard (NewServer's default), default cost model.
		a.srv = driver.NewServer(a.db, netsim.NewVirtualClock(), driver.DefaultCostModel())
	}
	return apps, pages, nil
}

// setupPages builds a page workload's deployment: seed, load every page
// once in original (eager) mode for the reference bytes and the baseline
// virtual times, check those bytes against golden.json, then warm up the
// workload's own clients, which compare every page with the reference.
func setupPages(spec pageSpec, seed int64, tc *traceCfg) (*pagesInstance, error) {
	apps, pages, err := newAppDeps(spec)
	if err != nil {
		return nil, err
	}
	inst := &pagesInstance{spec: spec, apps: apps, pages: pages,
		ref: make([]string, len(pages)), origVirt: make([]time.Duration, len(pages))}

	clock := netsim.NewVirtualClock()
	for i, p := range pages {
		s := openSession(apps[p.app].srv, clock, pageRTT, querystore.Config{}, nil)
		start := clock.Now()
		res, err := apps[p.app].load(p.name, orm.NewSession(s.store, orm.ModeOriginal))
		if err != nil {
			return nil, fmt.Errorf("original-mode %s/%s: %w", apps[p.app].name, p.name, err)
		}
		if err := s.store.Close(); err != nil {
			return nil, err
		}
		inst.ref[i], inst.origVirt[i] = res.HTML, clock.Now()-start
	}
	if err := checkGolden(pages, inst.ref); err != nil {
		return nil, err
	}

	if tc != nil {
		inst.rec = &corpus{on: true}
	}
	rng := rand.New(rand.NewSource(seed))
	for id := 0; id < spec.clients; id++ {
		c := &pageClient{inst: inst, id: id, rng: rand.New(rand.NewSource(rng.Int63())),
			clock: netsim.NewVirtualClock(), pageVirt: make([]time.Duration, len(pages)),
			cfgs: make([]querystore.Config, len(apps))}
		// Start after the original-mode pass on the servers' timelines, so
		// its occupancy never queues a workload batch.
		c.clock.Advance(clock.Now())
		if tc != nil {
			c.tr = newTracer(tc.origin)
		}
		for a := range apps {
			c.cfgs[a] = spec.cfg
			if inst.rec != nil && id == 0 {
				c.cfgs[a].Record = inst.rec.recorder(a)
			}
		}
		if spec.longLived {
			for a, app := range apps {
				s := openSession(app.srv, c.clock, pageRTT, c.cfgs[a], c.tr)
				s.orm = orm.NewSession(s.store, orm.ModeSloth)
				c.live = append(c.live, s)
			}
		}
		inst.cls = append(inst.cls, c)
	}
	if m := measure(inst, limit{passes: warmupPasses}); m.failed > 0 {
		return nil, fmt.Errorf("warm-up: %w", m.failure())
	}
	if inst.rec != nil {
		inst.rec.on = false
	}
	for _, c := range inst.cls {
		c.tr.reset()
	}
	return inst, nil
}

func (in *pagesInstance) clients() []client {
	out := make([]client, len(in.cls))
	for i, c := range in.cls {
		out[i] = c
	}
	return out
}

func (in *pagesInstance) servers() []*driver.Server {
	return []*driver.Server{in.apps[0].srv, in.apps[1].srv}
}

func (in *pagesInstance) dbs() []*engine.DB {
	return []*engine.DB{in.apps[0].db, in.apps[1].db}
}

func (in *pagesInstance) corpus() *corpus { return in.rec }

func (in *pagesInstance) resetCounters() {
	for _, c := range in.cls {
		c.ctr = counters{}
		for _, s := range c.live {
			c.ctr.sub(sessionCounters(s))
		}
	}
}

func (in *pagesInstance) sessionCounters() counters {
	var total counters
	for _, c := range in.cls {
		total.add(c.ctr)
		for _, s := range c.live {
			total.add(sessionCounters(s))
		}
	}
	return total
}

// verify has nothing to add: every op's HTML was compared with the
// reference bytes when it completed.
func (in *pagesInstance) verify() error { return nil }

func (in *pagesInstance) close() {
	for _, c := range in.cls {
		for _, s := range c.live {
			s.store.Close()
		}
	}
}

// speedups returns original / workload-mode virtual load time per page,
// from the set-up pass and each page's last load.
func (in *pagesInstance) speedups() []float64 {
	out := make([]float64, 0, len(in.pages))
	for i := range in.pages {
		if v := in.cls[0].pageVirt[i]; v > 0 {
			out = append(out, float64(in.origVirt[i])/float64(v))
		}
	}
	return out
}

// pageClient is one closed-loop browser-side client: each pass it loads
// every page once, in its own seeded order.
type pageClient struct {
	inst  *pagesInstance
	id    int
	rng   *rand.Rand
	clock *netsim.VirtualClock
	cfgs  []querystore.Config // per app
	live  []*session          // per app; nil unless the spec is long-lived
	// nextVisit numbers this client's access_log rows.
	nextVisit int64
	r         recorder
	ctr       counters
	pageVirt  []time.Duration
	tr        *tracer
}

func (c *pageClient) rec() *recorder         { return &c.r }
func (c *pageClient) virtNow() time.Duration { return c.clock.Now() }

func (c *pageClient) spans() []span { return c.tr.log() }

func (c *pageClient) pass() {
	for _, pi := range c.rng.Perm(len(c.inst.pages)) {
		c.load(pi)
	}
	for _, s := range c.live {
		// Quiesce: pipelined writes land, and report any deferred failure.
		if err := s.store.Flush(); err != nil {
			c.r.fail(fmt.Errorf("client %d pass-end flush: %w", c.id, err))
		}
	}
}

// load is one op: one page load (plus the access-log write where the spec
// asks for it), its HTML compared with the reference bytes.
func (c *pageClient) load(pi int) {
	p := c.inst.pages[pi]
	app := c.inst.apps[p.app]
	op := c.tr.begin(spanOp)
	var s *session
	if c.live != nil {
		s = c.live[p.app]
		// The identity map is per request: every load re-fetches.
		s.orm.Clear()
	} else {
		s = openSession(app.srv, c.clock, pageRTT, c.cfgs[p.app], c.tr)
		s.orm = orm.NewSession(s.store, orm.ModeSloth)
	}
	start := c.clock.Now()
	res, err := app.load(p.name, s.orm)
	if err == nil && c.inst.spec.writes {
		c.nextVisit++
		err = visitMeta.Insert(s.orm, &visit{ID: int64(c.id)<<40 | c.nextVisit, Session: int64(c.id), Page: int64(pi)})
	}
	virt := c.clock.Now() - start
	if err == nil && res.HTML != c.inst.ref[pi] {
		err = fmt.Errorf("%s/%s: rendered HTML differs from the original-mode reference", app.name, p.name)
	}
	if res != nil {
		c.ctr.v[cModelPuts] += int64(res.ModelPuts)
		c.ctr.v[cRendered] += int64(res.Rendered)
		c.ctr.v[cHTMLBytes] += int64(len(res.HTML))
	}
	if c.live == nil {
		c.ctr.add(sessionCounters(s))
		if cerr := s.store.Close(); err == nil {
			err = cerr
		}
	}
	c.tr.end(op)
	c.pageVirt[pi] = virt
	c.r.op(virt, err)
}
