package webapp

import (
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/driver"
	"repro/internal/netsim"
	"repro/internal/orm"
	"repro/internal/querystore"
	"repro/internal/sqldb/engine"
	"repro/internal/thunk"
)

type Item struct {
	ID   int64  `orm:"id,pk"`
	Name string `orm:"name"`
}

var items = orm.MustRegister[Item]("items")

// rig wires an app + session over a seeded database.
func rig(t *testing.T, mode orm.Mode) (*App, *orm.Session, *netsim.Link, *netsim.VirtualClock) {
	t.Helper()
	clock := netsim.NewVirtualClock()
	db := engine.New()
	srv := driver.NewServer(db, clock, driver.DefaultCostModel())
	// Seed over a connection of its own, so the test link's counters
	// start at zero.
	seed := srv.Connect(netsim.NewLink(clock, time.Millisecond))
	for _, sql := range []string{
		"CREATE TABLE items (id INT PRIMARY KEY, name TEXT)",
		"INSERT INTO items (id, name) VALUES (1, 'alpha'), (2, 'beta'), (3, 'gamma')",
	} {
		if _, err := seed.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	link := netsim.NewLink(clock, time.Millisecond)
	conn := srv.Connect(link)
	sess := orm.NewSession(querystore.New(conn, querystore.Config{}), mode)
	app := New(clock, DefaultCostProfile())
	return app, sess, link, clock
}

// itemPage is a page loading three items into the model.
func itemPage() Page {
	return Page{
		Name: "items.jsp",
		Controller: func(c *Ctx) error {
			for i := int64(1); i <= 3; i++ {
				c.Put("item"+string(rune('0'+i)), items.Find(c.Session, i))
			}
			return nil
		},
		View: func(w *ThunkWriter, m Model) {
			w.WriteString("<html><body>")
			for _, key := range []string{"item1", "item2", "item3"} {
				w.WriteString("<div>")
				w.WriteValue(m[key])
				w.WriteString("</div>")
			}
			w.WriteString("</body></html>")
		},
	}
}

func TestThunkWriterDeferredBuffersThunks(t *testing.T) {
	w := NewThunkWriter(true)
	forced := false
	w.WriteString("a")
	w.WriteValue(thunk.New(func() string { forced = true; return "b" }))
	if forced {
		t.Fatal("deferred writer forced at write time")
	}
	if w.Buffered() != 1 {
		t.Fatalf("buffered = %d", w.Buffered())
	}
	out, err := w.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if !forced || out != "ab" {
		t.Fatalf("flush = %q forced=%v", out, forced)
	}
}

func TestThunkWriterEagerForcesAtWrite(t *testing.T) {
	w := NewThunkWriter(false)
	forced := false
	w.WriteValue(thunk.New(func() string { forced = true; return "x" }))
	if !forced {
		t.Fatal("eager writer did not force at write time")
	}
	if w.Buffered() != 0 {
		t.Fatal("eager writer buffered a thunk")
	}
}

func TestThunkWriterRendersKinds(t *testing.T) {
	w := NewThunkWriter(false)
	w.WriteValue(nil)
	w.WriteValue("s")
	w.WriteValue([]string{"a", "b"})
	w.WriteValue(int64(7))
	out, _ := w.Flush()
	if out != "sa, b7" {
		t.Fatalf("out = %q", out)
	}
}

func TestThunkWriterFlushConvertsPanics(t *testing.T) {
	w := NewThunkWriter(true)
	w.WriteValue(thunk.New(func() string { panic("boom") }))
	if _, err := w.Flush(); err == nil {
		t.Fatal("panic not converted to error")
	}
}

// TestRecycledWriterAllocatesOnlyThePage: once reset, a writer renders a
// page — markup, eager values, thunks buffered and forced at Flush — into
// one allocation, the page it returns; and a reset writer holds no
// reference to what it rendered. (App.Load recycles writers through a
// sync.Pool, which the race detector makes drop some at random, so the
// count is taken on one writer reset by hand.)
func TestRecycledWriterAllocatesOnlyThePage(t *testing.T) {
	e := &Item{ID: 7, Name: "seven"}
	lazy := thunk.New(func() *Item { return e })
	var page string
	w := NewThunkWriter(true)
	render := func() {
		w.reset()
		w.deferred = true
		w.WriteString("<ul>")
		for i := 0; i < 40; i++ {
			w.WriteString("<li>")
			w.WriteValue(lazy)
			w.WriteValue(e)
			w.WriteString("</li>")
		}
		w.WriteString("</ul>")
		var err error
		if page, err = w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	render()
	if n := testing.AllocsPerRun(100, render); n != 1 {
		t.Errorf("a recycled render allocates %v objects, want 1 (the page)", n)
	}
	if want := "<ul>" + strings.Repeat("<li>{7 seven}{7 seven}</li>", 40) + "</ul>"; page != want {
		t.Fatalf("page = %q, want %q", page, want)
	}
	w.reset()
	for i, p := range w.parts[:cap(w.parts)] {
		if p != (part{}) {
			t.Fatalf("reset writer keeps part %d: %+v", i, p)
		}
	}
}

// TestRecycledLoadAllocatesNoModelGrowth: a load on a recycled request
// allocates the same whether its controller puts none or 64 model entries —
// the context and model map are the request's, emptied by reset — and the
// reset request holds nothing the load built, on the error paths too. (As
// above, the request is reset by hand rather than drawn from the pool.)
func TestRecycledLoadAllocatesNoModelGrowth(t *testing.T) {
	app, sess, _, _ := rig(t, orm.ModeSloth)
	keys := make([]string, 64)
	vals := make([]any, len(keys))
	for i := range keys {
		keys[i], vals[i] = "k"+strconv.Itoa(i), &Item{ID: int64(i)}
	}
	errController, errView := errors.New("controller failed"), errors.New("view failed")
	page := func(puts int, fail error) *Page {
		return &Page{
			Name: "model.jsp",
			Controller: func(c *Ctx) error {
				for i := 0; i < puts; i++ {
					c.Put(keys[i], vals[i])
				}
				if fail == errController {
					return fail
				}
				return nil
			},
			View: func(w *ThunkWriter, m Model) {
				w.WriteString("<p>")
				if fail == errView {
					w.WriteValue(thunk.New(func() string { panic(fail) }))
				}
			},
		}
	}
	var r request
	r.ctx.Model = make(Model)
	allocs := func(p *Page) float64 {
		load := func() {
			app.load(&r, p, nil, sess)
			r.reset()
		}
		load()
		return testing.AllocsPerRun(100, load)
	}
	if none, full := allocs(page(0, nil)), allocs(page(len(keys), nil)); full != none {
		t.Errorf("a recycled load with %d puts allocates %v objects, with none %v", len(keys), full, none)
	}
	for _, fail := range []error{nil, errController, errView} {
		res, err := app.load(&r, page(len(keys), fail), nil, sess)
		if !errors.Is(err, fail) || (fail == nil) != (res != nil) {
			t.Fatalf("load failing with %v: %v, %v", fail, res, err)
		}
		r.reset()
		if len(r.ctx.Model) != 0 || r.ctx.Session != nil || r.ctx.puts != 0 || len(r.w.parts) != 0 {
			t.Fatalf("reset after a load failing with %v keeps %+v", fail, r.ctx)
		}
	}
}

func TestPageLoadSlothBatchesQueries(t *testing.T) {
	app, sess, link, _ := rig(t, orm.ModeSloth)
	app.MustRegisterPage(itemPage())
	res, err := app.Load("items.jsp", nil, sess)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.HTML, "alpha") || !strings.Contains(res.HTML, "gamma") {
		t.Fatalf("html = %q", res.HTML)
	}
	// All three finds batch into one round trip at writer flush.
	if got := link.Stats().RoundTrips; got != 1 {
		t.Fatalf("sloth round trips = %d, want 1", got)
	}
}

func TestPageLoadOriginalOneTripPerQuery(t *testing.T) {
	app, sess, link, _ := rig(t, orm.ModeOriginal)
	app.MustRegisterPage(itemPage())
	if _, err := app.Load("items.jsp", nil, sess); err != nil {
		t.Fatal(err)
	}
	if got := link.Stats().RoundTrips; got != 3 {
		t.Fatalf("original round trips = %d, want 3", got)
	}
}

func TestLoadChargesAppTime(t *testing.T) {
	app, sess, _, clock := rig(t, orm.ModeSloth)
	app.MustRegisterPage(itemPage())
	before := clock.Now()
	res, err := app.Load("items.jsp", nil, sess)
	if err != nil {
		t.Fatal(err)
	}
	if res.AppTime <= 0 {
		t.Fatal("no app time charged")
	}
	if clock.Now()-before < res.AppTime {
		t.Fatal("clock did not advance by app time")
	}
	if res.ModelPuts != 3 || res.Rendered != 3 {
		t.Fatalf("ops = %+v", res)
	}
}

func TestSlothThunkOverheadCharged(t *testing.T) {
	// With the per-round-trip driver cost zeroed out, the only mode
	// difference is thunk overhead, so Sloth app time must be higher.
	profile := DefaultCostProfile()
	profile.PerRoundTrip = 0
	load := func(mode orm.Mode) *Result {
		clock := netsim.NewVirtualClock()
		db := engine.New()
		srv := driver.NewServer(db, clock, driver.DefaultCostModel())
		conn := srv.Connect(netsim.NewLink(clock, time.Millisecond))
		for _, sql := range []string{
			"CREATE TABLE items (id INT PRIMARY KEY, name TEXT)",
			"INSERT INTO items (id, name) VALUES (1, 'alpha'), (2, 'beta'), (3, 'gamma')",
		} {
			if _, err := conn.Query(sql); err != nil {
				t.Fatal(err)
			}
		}
		sess := orm.NewSession(querystore.New(conn, querystore.Config{}), mode)
		app := New(clock, profile)
		app.MustRegisterPage(itemPage())
		res, err := app.Load("items.jsp", nil, sess)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	resS := load(orm.ModeSloth)
	resO := load(orm.ModeOriginal)
	if resS.AppTime <= resO.AppTime {
		t.Fatalf("sloth app time %v not above original %v", resS.AppTime, resO.AppTime)
	}
}

func TestOriginalPaysPerTripDriverCost(t *testing.T) {
	// With the default profile, the original's many round trips carry
	// client-side driver cost, so its app time exceeds Sloth's when thunk
	// counts are small.
	appO, sessO, _, _ := rig(t, orm.ModeOriginal)
	appO.MustRegisterPage(itemPage())
	resO, err := appO.Load("items.jsp", nil, sessO)
	if err != nil {
		t.Fatal(err)
	}
	base := DefaultCostProfile()
	perTrip := 3 * base.PerRoundTrip // 3 trips for the original's 3 queries
	if resO.AppTime < base.ControllerBase+perTrip {
		t.Fatalf("original app time %v missing per-trip driver cost", resO.AppTime)
	}
}

func TestRegisterPageValidation(t *testing.T) {
	app, _, _, _ := rig(t, orm.ModeSloth)
	if err := app.RegisterPage(Page{Name: "x"}); err == nil {
		t.Fatal("page without controller accepted")
	}
	p := itemPage()
	if err := app.RegisterPage(p); err != nil {
		t.Fatal(err)
	}
	if err := app.RegisterPage(p); err == nil {
		t.Fatal("duplicate page accepted")
	}
}

func TestLoadUnknownPage(t *testing.T) {
	app, sess, _, _ := rig(t, orm.ModeSloth)
	if _, err := app.Load("missing.jsp", nil, sess); err == nil {
		t.Fatal("unknown page accepted")
	}
}

func TestControllerErrorPropagates(t *testing.T) {
	app, sess, _, _ := rig(t, orm.ModeSloth)
	app.MustRegisterPage(Page{
		Name:       "bad.jsp",
		Controller: func(c *Ctx) error { return errBoom },
		View:       func(w *ThunkWriter, m Model) {},
	})
	if _, err := app.Load("bad.jsp", nil, sess); err == nil {
		t.Fatal("controller error swallowed")
	}
}

var errBoom = &boomErr{}

type boomErr struct{}

func (*boomErr) Error() string { return "boom" }

func TestParams(t *testing.T) {
	p := Params{"patientId": 7}
	if p.Get("patientId", 1) != 7 {
		t.Fatal("param lookup failed")
	}
	if p.Get("missing", 42) != 42 {
		t.Fatal("default not returned")
	}
}

func TestPageNamesInOrder(t *testing.T) {
	app, _, _, _ := rig(t, orm.ModeSloth)
	app.MustRegisterPage(Page{Name: "a", Controller: func(*Ctx) error { return nil }, View: func(*ThunkWriter, Model) {}})
	app.MustRegisterPage(Page{Name: "b", Controller: func(*Ctx) error { return nil }, View: func(*ThunkWriter, Model) {}})
	names := app.PageNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("names = %v", names)
	}
}

func TestModelValueNeverRenderedNeverForced(t *testing.T) {
	// A model entry the view ignores must stay unforced under Sloth: its
	// query is registered but only executes if a sibling forces the batch.
	app, sess, link, _ := rig(t, orm.ModeSloth)
	app.MustRegisterPage(Page{
		Name: "partial.jsp",
		Controller: func(c *Ctx) error {
			c.Put("used", items.Find(c.Session, 1))
			c.Put("unused", items.Find(c.Session, 2))
			return nil
		},
		View: func(w *ThunkWriter, m Model) {
			w.WriteValue(m["used"]) // "unused" is never written
		},
	})
	if _, err := app.Load("partial.jsp", nil, sess); err != nil {
		t.Fatal(err)
	}
	// One round trip; the batch carried both queries (the unused one is
	// executed wastefully — the paper's "Sloth may issue more queries").
	if got := link.Stats().RoundTrips; got != 1 {
		t.Fatalf("round trips = %d, want 1", got)
	}
	if got := sess.Store().Conn().QueriesSent(); got != 2 {
		t.Fatalf("executed = %d, want 2 (batch includes unused)", got)
	}
}
