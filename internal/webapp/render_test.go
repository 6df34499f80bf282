package webapp_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/apps/itracker"
	"repro/internal/apps/openmrs"
	"repro/internal/driver"
	"repro/internal/netsim"
	"repro/internal/orm"
	"repro/internal/querystore"
	"repro/internal/sqldb/engine"
	"repro/internal/thunk"
	"repro/internal/webapp"
)

// referenceRender is the renderer as it stood before pages were appended
// straight into the page builder: every value boxed through Interface()
// and, past pointers and slices, formatted by fmt. It is kept here as the
// specification the strconv walk is compared against.
func referenceRender(v any) string {
	switch x := v.(type) {
	case nil:
		return ""
	case string:
		return x
	case []string:
		return strings.Join(x, ", ")
	case fmt.Stringer:
		return x.String()
	}
	rv := reflect.ValueOf(v)
	switch rv.Kind() {
	case reflect.Pointer:
		if rv.IsNil() {
			return ""
		}
		return referenceRender(rv.Elem().Interface())
	case reflect.Slice:
		parts := make([]string, rv.Len())
		for i := range parts {
			parts[i] = referenceRender(rv.Index(i).Interface())
		}
		return "[" + strings.Join(parts, ", ") + "]"
	}
	return fmt.Sprintf("%v", v)
}

// render is the production renderer applied to one value.
func render(v any) string {
	return string(webapp.AppendValue(nil, v))
}

type entity struct {
	ID     int64
	Name   string
	Score  float64
	Active bool
}

type named int64
type label string

type valueStringer struct{ n int64 }

func (v valueStringer) String() string { return fmt.Sprintf("<v%d>", v.n) }

type pointerStringer struct{ n int64 }

func (p *pointerStringer) String() string { return fmt.Sprintf("<p%d>", p.n) }

type stringerField struct {
	ID int64
	V  valueStringer
}

type stringerKind int64

func (k stringerKind) String() string { return "kind!" }

type methodful struct{ ID int64 }

func (methodful) Error() string { return "methodful error" }

type hiddenFields struct {
	id   int64
	name string
	s    stringerKind
}

type unsupportedField struct {
	ID   int64
	Tags []string
	Ptr  *int64
	Sub  entity
	M    map[string]int64
}

var interestingFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 2.5, 1e21, 1e20, 1e-7, 1e-4, 1e-5, 123456789.125,
	math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64, 0.1 + 0.2,
}

// randomValue builds a value of the shapes pages render — and the shapes
// around them that must fall back to fmt unchanged.
func randomValue(rng *rand.Rand, depth int) any {
	randFloat := func() float64 {
		if rng.Intn(2) == 0 {
			return interestingFloats[rng.Intn(len(interestingFloats))]
		}
		return math.Float64frombits(rng.Uint64())
	}
	randEntity := func() entity {
		return entity{ID: rng.Int63n(2000) - 1000, Name: fmt.Sprintf("n%d", rng.Intn(50)), Score: randFloat(), Active: rng.Intn(2) == 0}
	}
	n := 22
	if depth > 2 {
		n = 12 // leaves only
	}
	switch rng.Intn(n) {
	case 0:
		return nil
	case 1:
		return rng.Int63() - math.MaxInt64/2
	case 2:
		return fmt.Sprintf("s%d", rng.Intn(100))
	case 3:
		return randFloat()
	case 4:
		return rng.Intn(2) == 0
	case 5:
		return randEntity()
	case 6:
		return named(rng.Intn(100))
	case 7:
		return label("lbl")
	case 8:
		return []any{valueStringer{3}, &pointerStringer{4}, pointerStringer{5}, stringerKind(6), stringerField{1, valueStringer{2}}}[rng.Intn(5)]
	case 9:
		return []any{methodful{1}, hiddenFields{1, "h", 2}, unsupportedField{ID: 1, Tags: []string{"a"}, M: map[string]int64{"k": 1}}, struct{}{}}[rng.Intn(4)]
	case 10:
		return []any{int(5), int32(-6), uint8(7), float32(1.5), 'x', errors.New("plain error"), [2]int64{1, 2}, map[string]int64{"a": 1}}[rng.Intn(8)]
	case 11:
		return []any{(*entity)(nil), []*entity(nil), []entity{}, []string(nil), []string{"a", "b"}, []any(nil)}[rng.Intn(6)]
	case 12:
		e := randEntity()
		return &e
	case 13:
		es := make([]*entity, rng.Intn(4))
		for i := range es {
			if rng.Intn(5) > 0 {
				e := randEntity()
				es[i] = &e
			}
		}
		return es
	case 14:
		es := make([]entity, rng.Intn(4))
		for i := range es {
			es[i] = randEntity()
		}
		return es
	case 15:
		vs := make([]any, rng.Intn(5))
		for i := range vs {
			vs[i] = randomValue(rng, depth+1)
		}
		return vs
	case 16:
		v := randomValue(rng, depth+1)
		return &v // pointer to interface
	case 17:
		e := randEntity()
		p := &e
		return &p // pointer to pointer
	case 18:
		return [][]int64{{1, 2}, nil, {}}
	case 19:
		return []fmt.Stringer{valueStringer{1}, nil, &pointerStringer{2}}
	case 20:
		return []float64{randFloat(), randFloat()}
	default:
		s := fmt.Sprintf("p%d", rng.Intn(9))
		return &s
	}
}

// TestRenderMatchesReferenceOnGeneratedValues: the walk and the reference
// produce the same bytes for every generated value.
func TestRenderMatchesReferenceOnGeneratedValues(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20000; i++ {
		v := randomValue(rng, 0)
		if got, want := render(v), referenceRender(v); got != want {
			t.Fatalf("value %d %#v: rendered %q, reference %q", i, v, got, want)
		}
	}
	for _, f := range interestingFloats {
		for _, v := range []any{f, &f, entity{Score: f}, []float64{f}} {
			if got, want := render(v), referenceRender(v); got != want {
				t.Fatalf("%#v: rendered %q, reference %q", v, got, want)
			}
		}
	}
}

// TestRenderMatchesReferenceOnGoldenPages builds every page of both
// evaluation applications, renders each buffered value through both
// renderers, and checks that the reference assembly of the page is what
// Flush and a real App.Load produce.
func TestRenderMatchesReferenceOnGoldenPages(t *testing.T) {
	type app struct {
		web   *webapp.App
		pages []string
		load  func(string, webapp.Params, *orm.Session) (*webapp.Result, error)
		req   webapp.Params
		db    *engine.DB
		clock *netsim.VirtualClock
	}
	var apps []app
	{
		clock, db := netsim.NewVirtualClock(), engine.New()
		if err := itracker.Seed(db, itracker.DefaultSize()); err != nil {
			t.Fatal(err)
		}
		a := itracker.Build(clock, webapp.DefaultCostProfile())
		apps = append(apps, app{a.Web, a.Pages(), a.Load,
			webapp.Params{"projectId": itracker.MainProjectID, "issueId": itracker.MainIssueID}, db, clock})
	}
	{
		clock, db := netsim.NewVirtualClock(), engine.New()
		if err := openmrs.Seed(db, openmrs.DefaultSize()); err != nil {
			t.Fatal(err)
		}
		a := openmrs.Build(clock, webapp.DefaultCostProfile())
		apps = append(apps, app{a.Web, a.Pages(), a.Load,
			webapp.Params{"patientId": openmrs.DashboardPatientID}, db, clock})
	}
	pages, values := 0, 0
	for _, a := range apps {
		srv := driver.NewServer(a.db, a.clock, driver.DefaultCostModel())
		session := func() *orm.Session {
			conn := srv.Connect(netsim.NewLink(a.clock, 500*time.Microsecond))
			return orm.NewSession(querystore.New(conn, querystore.Config{}), orm.ModeSloth)
		}
		for _, name := range a.pages {
			page := a.web.PageByName(name)
			ctx := &webapp.Ctx{Session: session(), Req: a.req, Model: webapp.Model{}}
			if err := page.Controller(ctx); err != nil {
				t.Fatal(err)
			}
			w := webapp.NewThunkWriter(true)
			page.View(w, ctx.Model)
			var want strings.Builder
			for _, p := range w.Parts() {
				switch x := p.(type) {
				case string:
					want.WriteString(x)
				case thunk.Any:
					v := x.ForceAny()
					ref := referenceRender(v)
					if got := render(v); got != ref {
						t.Fatalf("%q value %#v: rendered %q, reference %q", name, v, got, ref)
					}
					want.WriteString(ref)
					values++
				}
			}
			if html, err := w.Flush(); err != nil || html != want.String() {
				t.Fatalf("%q: Flush differs from the reference assembly (%v)", name, err)
			}
			res, err := a.load(name, a.req, session())
			if err != nil || res.HTML != want.String() {
				t.Fatalf("%q: App.Load differs from the reference assembly (%v)", name, err)
			}
			pages++
		}
	}
	if pages != 150 || values == 0 {
		t.Fatalf("compared %d pages and %d values, want the 150 golden pages", pages, values)
	}
}

// TestLoadKeepsForceErrorChain: a Lazy carried across Session.Clear fails at
// force time with the store's typed error, and App.Load's wrapping keeps it
// matchable.
func TestLoadKeepsForceErrorChain(t *testing.T) {
	type item struct {
		ID   int64  `orm:"id,pk"`
		Name string `orm:"name"`
	}
	items := orm.MustRegister[item]("items")
	clock := netsim.NewVirtualClock()
	srv := driver.NewServer(engine.New(), clock, driver.DefaultCostModel())
	conn := srv.Connect(netsim.NewLink(clock, time.Millisecond))
	for _, sql := range []string{
		"CREATE TABLE items (id INT PRIMARY KEY, name TEXT)",
		"INSERT INTO items (id, name) VALUES (1, 'alpha')",
	} {
		if _, err := conn.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	sess := orm.NewSession(querystore.New(conn, querystore.Config{}), orm.ModeSloth)
	// Resolved in one request, carried into the next: the store has released
	// its result, and a second lazy on the same id was never forced.
	carried := items.Where(sess, "id = ?", int64(1))
	if _, err := items.Where(sess, "id = ?", int64(1)).Get(); err != nil {
		t.Fatal(err)
	}
	sess.Clear()

	app := webapp.New(clock, webapp.DefaultCostProfile())
	app.MustRegisterPage(webapp.Page{
		Name:       "stale.jsp",
		Controller: func(c *webapp.Ctx) error { c.Put("item", carried); return nil },
		View:       func(w *webapp.ThunkWriter, m webapp.Model) { w.WriteValue(m["item"]) },
	})
	_, err := app.Load("stale.jsp", nil, sess)
	if !errors.Is(err, querystore.ErrUnknownQueryID) {
		t.Fatalf("errors.Is(%v, ErrUnknownQueryID) = false", err)
	}
	if !strings.Contains(err.Error(), "webapp: render failed: ") {
		t.Fatalf("message lost its prefix: %v", err)
	}
}

// BenchmarkRender measures page rendering alone: forced values appended to
// a buffer that already has room, as in the middle of a page.
func BenchmarkRender(b *testing.B) {
	e := &entity{ID: 1234, Name: "Glucose", Score: 5.25, Active: true}
	list := make([]*entity, 30)
	for i := range list {
		list[i] = &entity{ID: int64(i), Name: "Observation", Score: float64(i) / 4, Active: i%2 == 0}
	}
	for _, c := range []struct {
		name string
		vals []any
	}{
		{"entity", []any{e}},
		{"entity-slice", []any{list}},
		{"scalars", []any{int64(42), "label", 2.5, true}},
	} {
		b.Run(c.name, func(b *testing.B) {
			buf := make([]byte, 0, 1<<17)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if len(buf) > 1<<16 {
					buf = buf[:0]
				}
				for _, v := range c.vals {
					buf = webapp.AppendValue(buf, v)
				}
			}
		})
	}
}
