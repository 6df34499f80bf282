package webapp

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/orm"
)

// Params carries request parameters (the form values the benchmark harness
// fills with valid database ids, as in paper Sec. 6.1).
type Params map[string]int64

// Get returns a parameter or a default.
func (p Params) Get(name string, def int64) int64 {
	if v, ok := p[name]; ok {
		return v
	}
	return def
}

// Model is the MVC model map. Under Sloth, values are typically unforced
// orm.Lazy thunks.
type Model map[string]any

// Ctx is the per-request context handed to controllers. Load recycles it,
// with its Model, once the page is rendered, so neither may be kept past
// the load that handed it out.
type Ctx struct {
	Session *orm.Session
	Req     Params
	Model   Model

	puts int
}

// Put stores a model entry (counted for the app-server cost model).
func (c *Ctx) Put(key string, v any) {
	c.puts++
	c.Model[key] = v
}

// Controller builds the model for a page.
type Controller func(*Ctx) error

// View renders the model through the writer.
type View func(w *ThunkWriter, m Model)

// Page is one benchmark page: a named controller/view pair.
type Page struct {
	Name       string
	Controller Controller
	View       View
}

// CostProfile prices app-server computation on the virtual clock. The
// reproduction charges per logical operation rather than measuring Go wall
// time so results are deterministic; the constants are calibrated in
// DESIGN.md to land the paper's time-breakdown shares (Fig. 8).
type CostProfile struct {
	// ControllerBase is charged once per page load (framework dispatch,
	// auth checks, template setup).
	ControllerBase time.Duration
	// PerOp is charged per model put and per rendered value.
	PerOp time.Duration
	// PerEntity is charged per entity deserialized from result sets.
	PerEntity time.Duration
	// PerThunk is charged per thunk allocated — the lazy-evaluation
	// overhead (paper Sec. 6.6). Zero for original-mode apps.
	PerThunk time.Duration
	// PerRoundTrip is the client-side driver cost of one database round
	// trip (JDBC-style marshaling and blocking). The original application
	// pays it per query; Sloth pays it per batch — the reason the paper's
	// Fig. 8 shows absolute app-server time FALLING under Sloth even
	// though its share rises.
	PerRoundTrip time.Duration
}

// DefaultCostProfile mirrors the calibration in DESIGN.md: app-server work
// dominates page time at data-center RTT (as in the paper's Fig. 8 where
// the app server holds ~40-60% of load time), and thunk overhead is large
// enough that Sloth's app-server share exceeds the original's.
func DefaultCostProfile() CostProfile {
	return CostProfile{
		ControllerBase: 22 * time.Millisecond,
		PerOp:          60 * time.Microsecond,
		PerEntity:      200 * time.Microsecond,
		// One orm.Lazy value stands for the cloud of fine-grained thunks
		// the Sloth compiler would emit for the statements deriving it, so
		// its unit price is high (see DESIGN.md calibration).
		PerThunk:     300 * time.Microsecond,
		PerRoundTrip: 350 * time.Microsecond,
	}
}

// Result reports one page load.
type Result struct {
	HTML string
	// AppTime is the app-server compute charged for this load.
	AppTime time.Duration
	// ModelPuts, Rendered, ThunkAllocs, Entities are the operation counts
	// that produced AppTime.
	ModelPuts   int
	Rendered    int
	ThunkAllocs int64
	Entities    int64
}

// App is a registered set of pages sharing a clock and cost profile.
type App struct {
	pages   map[string]*Page
	order   []string
	clock   netsim.Clock
	profile CostProfile
}

// New creates an app server.
func New(clock netsim.Clock, profile CostProfile) *App {
	return &App{pages: make(map[string]*Page), clock: clock, profile: profile}
}

// RegisterPage adds a page; duplicate names are an error.
func (a *App) RegisterPage(p Page) error {
	if p.Name == "" || p.Controller == nil || p.View == nil {
		return fmt.Errorf("webapp: page needs name, controller, and view")
	}
	if _, dup := a.pages[p.Name]; dup {
		return fmt.Errorf("webapp: duplicate page %q", p.Name)
	}
	cp := p
	a.pages[p.Name] = &cp
	a.order = append(a.order, p.Name)
	return nil
}

// MustRegisterPage panics on registration errors (static page tables).
func (a *App) MustRegisterPage(p Page) {
	if err := a.RegisterPage(p); err != nil {
		panic(err)
	}
}

// PageNames lists pages in registration order — the benchmark list.
func (a *App) PageNames() []string {
	out := make([]string, len(a.order))
	copy(out, a.order)
	return out
}

// Load executes one page request in the given session. The session's mode
// decides original vs Sloth behaviour; the writer defers thunks exactly
// when the session is a Sloth session.
//
// App-server time is charged to the session's own clock (the clock behind
// its connection), in two steps whose sum is unchanged from the original
// single lump: the ControllerBase share lands between the controller and
// the view — the framework's template-setup window — and the remainder
// lands after rendering. Splitting matters for the deferred dispatch
// strategies: the query store's pipelined-flush hint fires right before
// the template-setup charge, so the accumulated batch crosses the network
// and executes while the virtual clock advances through setup, and the
// first force pays only whatever completion time is left. Under the
// synchronous dispatcher the hint is a no-op and the charges commute, so
// timing and results are identical to the pre-pipeline behaviour.
func (a *App) Load(name string, req Params, sess *orm.Session) (*Result, error) {
	page, ok := a.pages[name]
	if !ok {
		return nil, fmt.Errorf("webapp: no page %q", name)
	}
	r := requests.Get().(*request)
	defer r.release()
	return a.load(r, page, req, sess)
}

// request is the scratch a load borrows: the controller's context with its
// model map, and the view's writer with its part list and value buffer.
// Nothing in it outlives the load — the page string Flush returns and the
// Result are allocated fresh — so Load gives it back, emptied, on every
// return path, and what a load allocates for its page is what it keeps.
type request struct {
	ctx Ctx
	w   ThunkWriter
}

var requests = sync.Pool{New: func() any { return &request{ctx: Ctx{Model: make(Model)}} }}

// reset empties r for its next load, keeping the model map's and the
// writer's storage and dropping every reference to what the load built.
func (r *request) reset() {
	clear(r.ctx.Model)
	r.ctx = Ctx{Model: r.ctx.Model}
	r.w.reset()
}

// release resets r and returns it to the pool.
func (r *request) release() {
	r.reset()
	requests.Put(r)
}

// load is Load on a borrowed request.
func (a *App) load(r *request, page *Page, req Params, sess *orm.Session) (*Result, error) {
	name := page.Name
	clock := a.clock
	if c := sess.Conn().Clock(); c != nil {
		clock = c
	}

	// Per-session + per-store counters, not the process-global thunk
	// counter: concurrent sessions would otherwise bleed allocations into
	// each other's deltas and make per-page app time nondeterministic.
	thunksBefore := sess.Stats().ThunkAllocs + sess.Store().Stats().ThunkAllocs
	entitiesBefore := sess.Stats().Deserialized
	tripsBefore := sess.Conn().Link().Stats().RoundTrips
	batchesBefore := sess.Store().Stats().Batches

	// Page root span: the top of this load's trace tree. The store and
	// the connection get the root as their parent context for the load's
	// duration — flush/force spans (Sloth) and per-query round trips
	// (original mode) both land under it — and the previous contexts are
	// restored on exit so nested or sequential loads never cross-link.
	store := sess.Store()
	var pctx obs.Ctx
	if tr := store.Tracer(); tr != nil {
		mode := "original"
		if sess.Sloth() {
			mode = "sloth"
		}
		pctx = tr.Root(store.TraceTrack(), "page", name, clock.Now(),
			obs.Arg{K: "mode", V: mode})
		prevStore, prevConn := store.TraceCtx(), sess.Conn().TraceCtx()
		store.SetTraceCtx(pctx)
		sess.Conn().SetTraceCtx(pctx)
		defer func() {
			store.SetTraceCtx(prevStore)
			sess.Conn().SetTraceCtx(prevConn)
			pctx.End(clock.Now())
		}()
	}

	ctx := &r.ctx
	ctx.Session, ctx.Req = sess, req
	cctx := pctx.Child("app", "controller", clock.Now())
	if err := page.Controller(ctx); err != nil {
		return nil, fmt.Errorf("webapp: page %q controller: %w", name, err)
	}
	cctx.EndArgs(clock.Now(), obs.Arg{K: "puts", V: ctx.puts})

	// Pipelined flush (paper Sec. 5, "async" extension): the model is
	// complete, so everything registered so far can start executing while
	// the view is prepared. Deferred dispatchers overlap it; the
	// synchronous dispatcher ignores the hint.
	if sess.Sloth() {
		sess.Store().FlushAsync()
	}
	clock.Advance(a.profile.ControllerBase)

	vctx := pctx.Child("app", "view", clock.Now())
	w := &r.w
	w.deferred = sess.Sloth()
	page.View(w, ctx.Model)
	html, err := w.Flush()
	rendered := w.Rendered()
	if err != nil {
		return nil, fmt.Errorf("webapp: page %q: %w", name, err)
	}
	vctx.EndArgs(clock.Now(), obs.Arg{K: "rendered", V: rendered})

	res := &Result{
		HTML:        html,
		ModelPuts:   ctx.puts,
		Rendered:    rendered,
		ThunkAllocs: sess.Stats().ThunkAllocs + sess.Store().Stats().ThunkAllocs - thunksBefore,
		Entities:    sess.Stats().Deserialized - entitiesBefore,
	}
	// PerRoundTrip is the client-side driver work of shipping one batch. A
	// Sloth session counts the batches it SUBMITTED (deterministic — a
	// deferred dispatcher's worker may still be crossing the link for
	// speculative batches when the page finishes, and shared windows cross
	// on the hub's link, not the session's); an original-mode session
	// counts its link round trips, which it always blocked for.
	trips := sess.Store().Stats().Batches - batchesBefore
	if !sess.Sloth() {
		trips = sess.Conn().Link().Stats().RoundTrips - tripsBefore
	}
	res.AppTime = a.profile.ControllerBase +
		time.Duration(res.ModelPuts+res.Rendered)*a.profile.PerOp +
		time.Duration(res.Entities)*a.profile.PerEntity +
		time.Duration(trips)*a.profile.PerRoundTrip
	if sess.Sloth() {
		// Thunk allocation cost is the lazy-evaluation overhead; original-
		// mode code has no thunks (its Lazy wrappers model plain values).
		res.AppTime += time.Duration(res.ThunkAllocs) * a.profile.PerThunk
	}
	clock.Advance(res.AppTime - a.profile.ControllerBase)
	return res, nil
}
