package orm

import (
	"errors"
	"testing"
	"time"

	"repro/internal/driver"
	"repro/internal/netsim"
	"repro/internal/querystore"
	"repro/internal/sqldb/engine"
)

// Test entities mirroring the paper's OpenMRS fragment.
type Patient struct {
	ID   int64  `orm:"id,pk"`
	Name string `orm:"name"`
	Age  int64  `orm:"age"`
}

type Encounter struct {
	ID        int64  `orm:"id,pk"`
	PatientID int64  `orm:"patient_id"`
	Kind      string `orm:"kind"`
}

type Visit struct {
	ID        int64 `orm:"id,pk"`
	PatientID int64 `orm:"patient_id"`
	Active    bool  `orm:"active"`
}

// fixture builds metas fresh per test (eager loaders mutate metas, so they
// must not be shared between tests with different fetch modes).
type fixture struct {
	patients   *Meta[Patient]
	encounters *Meta[Encounter]
	visits     *Meta[Visit]
	encOf      *HasMany[Patient, Encounter]
	visitsOf   *HasMany[Patient, Visit]
}

func newFixture(encMode, visitMode FetchMode) *fixture {
	f := &fixture{
		patients:   MustRegister[Patient]("patients"),
		encounters: MustRegister[Encounter]("encounters"),
		visits:     MustRegister[Visit]("visits"),
	}
	f.encOf = NewHasMany(f.patients, f.encounters, "patient_id", encMode)
	f.visitsOf = NewHasMany(f.patients, f.visits, "patient_id", visitMode)
	return f
}

// rig seeds the clinic schema and opens a session in the given mode.
func rig(t *testing.T, mode Mode) (*Session, *netsim.Link) {
	t.Helper()
	srv, clock := clinic(t)
	link := netsim.NewLink(clock, time.Millisecond)
	conn := srv.Connect(link)
	store := querystore.New(conn, querystore.Config{})
	return NewSession(store, mode), link
}

// clinic serves a database seeded with the clinic schema.
func clinic(t *testing.T) (*driver.Server, *netsim.VirtualClock) {
	t.Helper()
	clock := netsim.NewVirtualClock()
	db := engine.New()
	srv := driver.NewServer(db, clock, driver.DefaultCostModel())
	// Seed over a connection of its own, so a test link's counters
	// start at zero.
	seed := srv.Connect(netsim.NewLink(clock, time.Millisecond))
	for _, sql := range []string{
		"CREATE TABLE patients (id INT PRIMARY KEY, name TEXT, age INT)",
		"CREATE TABLE encounters (id INT PRIMARY KEY, patient_id INT, kind TEXT)",
		"CREATE INDEX ie ON encounters (patient_id)",
		"CREATE TABLE visits (id INT PRIMARY KEY, patient_id INT, active BOOL)",
		"CREATE INDEX iv ON visits (patient_id)",
		"INSERT INTO patients (id, name, age) VALUES (1, 'Ann', 30), (2, 'Bob', 45)",
		"INSERT INTO encounters (id, patient_id, kind) VALUES (10, 1, 'checkup'), (11, 1, 'xray'), (12, 2, 'lab')",
		"INSERT INTO visits (id, patient_id, active) VALUES (20, 1, TRUE), (21, 1, FALSE)",
	} {
		if _, err := seed.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	return srv, clock
}

func TestRegisterRejectsBadTypes(t *testing.T) {
	type NoPK struct {
		Name string `orm:"name"`
	}
	if _, err := Register[NoPK]("t"); err == nil {
		t.Error("entity without pk accepted")
	}
	type NoCols struct{ X int }
	if _, err := Register[NoCols]("t"); err == nil {
		t.Error("entity without mapped columns accepted")
	}
	type BadField struct {
		ID int64 `orm:"id,pk"`
		M  []int `orm:"m"`
	}
	if _, err := Register[BadField]("t"); err == nil {
		t.Error("unsupported field type accepted")
	}
	type StringPK struct {
		ID string `orm:"id,pk"`
	}
	if _, err := Register[StringPK]("t"); err == nil {
		t.Error("non-int64 pk accepted")
	}
	type TwoPK struct {
		A int64 `orm:"a,pk"`
		B int64 `orm:"b,pk"`
	}
	if _, err := Register[TwoPK]("t"); err == nil {
		t.Error("two pks accepted")
	}
}

func TestFindOriginalModeImmediate(t *testing.T) {
	f := newFixture(FetchLazy, FetchLazy)
	s, link := rig(t, ModeOriginal)
	p := f.patients.Find(s, 1)
	if link.Stats().RoundTrips != 1 { // ran at Find, not at Get
		t.Fatalf("round trips = %d, want 1", link.Stats().RoundTrips)
	}
	got, err := p.Get()
	if err != nil || got.Name != "Ann" || got.Age != 30 {
		t.Fatalf("patient = %+v, %v", got, err)
	}
}

func TestFindSlothModeDefers(t *testing.T) {
	f := newFixture(FetchLazy, FetchLazy)
	s, link := rig(t, ModeSloth)
	p := f.patients.Find(s, 1)
	if link.Stats().RoundTrips != 0 {
		t.Fatal("query executed before force")
	}
	if st := s.Store().Stats(); st.Registered != 1 || st.Executed != 0 {
		t.Fatalf("store registered %d, executed %d; want 1 pending", st.Registered, st.Executed)
	}
	got, err := p.Get()
	if err != nil || got.Name != "Ann" {
		t.Fatalf("patient = %+v, %v", got, err)
	}
	if link.Stats().RoundTrips != 1 {
		t.Fatalf("round trips = %d, want 1", link.Stats().RoundTrips)
	}
}

func TestSlothBatchesAcrossEntities(t *testing.T) {
	// The paper's Fig. 2 pattern: load patient (forced to build the next
	// queries), then register encounters + visits + active visits; all
	// three go out in ONE round trip when any is used.
	f := newFixture(FetchLazy, FetchLazy)
	s, link := rig(t, ModeSloth)

	p, err := f.patients.FindNow(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	encs := f.encOf.Of(s, p.ID)
	visits := f.visitsOf.Of(s, p.ID)
	active := f.visitsOf.OfWhere(s, p.ID, "active = TRUE")
	if got := link.Stats().RoundTrips; got != 1 {
		t.Fatalf("round trips before view = %d, want 1 (just the patient)", got)
	}
	// "View rendering" now forces one of them — the whole batch flushes.
	es, err := encs.Get()
	if err != nil || len(es) != 2 {
		t.Fatalf("encounters = %v, %v", es, err)
	}
	if got := link.Stats().RoundTrips; got != 2 {
		t.Fatalf("round trips after force = %d, want 2", got)
	}
	vs := visits.Must()
	av := active.Must()
	if len(vs) != 2 || len(av) != 1 {
		t.Fatalf("visits = %d, active = %d", len(vs), len(av))
	}
	if got := link.Stats().RoundTrips; got != 2 {
		t.Fatalf("siblings re-fetched: %d trips", got)
	}
}

func TestOriginalModeOneTripPerQuery(t *testing.T) {
	f := newFixture(FetchLazy, FetchLazy)
	s, link := rig(t, ModeOriginal)
	p, _ := f.patients.FindNow(s, 1)
	f.encOf.Of(s, p.ID).Must()
	f.visitsOf.Of(s, p.ID).Must()
	f.visitsOf.OfWhere(s, p.ID, "active = TRUE").Must()
	if got := link.Stats().RoundTrips; got != 4 {
		t.Fatalf("round trips = %d, want 4 (original: one per query)", got)
	}
}

func TestIdentityMapHit(t *testing.T) {
	f := newFixture(FetchLazy, FetchLazy)
	s, link := rig(t, ModeOriginal)
	f.patients.FindNow(s, 1)
	f.patients.FindNow(s, 1) // session cache: no second query
	if got := link.Stats().RoundTrips; got != 1 {
		t.Fatalf("round trips = %d, want 1", got)
	}
	if s.Stats().IdentityHits != 1 {
		t.Fatalf("identity hits = %d", s.Stats().IdentityHits)
	}
	s.Clear()
	f.patients.FindNow(s, 1)
	if got := link.Stats().RoundTrips; got != 2 {
		t.Fatalf("round trips after Clear = %d, want 2", got)
	}
}

func TestEagerFetchCascadesInOriginalMode(t *testing.T) {
	f := newFixture(FetchEager, FetchEager)
	s, link := rig(t, ModeOriginal)
	f.patients.FindNow(s, 1)
	// 1 patient query + 2 eager association queries.
	if got := link.Stats().RoundTrips; got != 3 {
		t.Fatalf("round trips = %d, want 3 (eager cascade)", got)
	}
	if s.Stats().EagerLoads != 2 {
		t.Fatalf("eager loads = %d", s.Stats().EagerLoads)
	}
}

func TestEagerFetchIgnoredInSlothMode(t *testing.T) {
	f := newFixture(FetchEager, FetchEager)
	s, link := rig(t, ModeSloth)
	p, err := f.patients.FindNow(s, 1)
	if err != nil || p.Name != "Ann" {
		t.Fatalf("patient = %+v, %v", p, err)
	}
	// Only the patient query itself: Sloth skips the eager cascade.
	if got := link.Stats().RoundTrips; got != 1 {
		t.Fatalf("round trips = %d, want 1 (no cascade)", got)
	}
	if s.Stats().EagerLoads != 0 {
		t.Fatalf("eager loads = %d, want 0", s.Stats().EagerLoads)
	}
}

// TestFindNotFound: the missing-row failure matches ErrNotFound through
// errors.Is, in both modes, and keeps its historical spelling.
func TestFindNotFound(t *testing.T) {
	f := newFixture(FetchLazy, FetchLazy)
	for _, mode := range []Mode{ModeOriginal, ModeSloth} {
		s, _ := rig(t, mode)
		_, err := f.patients.FindNow(s, 999)
		if !errors.Is(err, ErrNotFound) {
			t.Fatalf("mode %v: errors.Is(%v, ErrNotFound) = false", mode, err)
		}
		if err.Error() != "orm: patients id 999 not found" {
			t.Fatalf("mode %v: message %q", mode, err)
		}
	}
}

func TestWhereAndCount(t *testing.T) {
	f := newFixture(FetchLazy, FetchLazy)
	s, _ := rig(t, ModeSloth)
	older := f.patients.Where(s, "age > ?", int64(40))
	n := f.patients.CountWhere(s, "age > ?", int64(40))
	got := older.Must()
	if len(got) != 1 || got[0].Name != "Bob" {
		t.Fatalf("where = %+v", got)
	}
	if n.Must() != 1 {
		t.Fatalf("count = %d", n.Must())
	}
}

func TestAllEntities(t *testing.T) {
	f := newFixture(FetchLazy, FetchLazy)
	s, _ := rig(t, ModeOriginal)
	all := f.patients.All(s).Must()
	if len(all) != 2 {
		t.Fatalf("all = %d", len(all))
	}
}

func TestInsertUpdateDelete(t *testing.T) {
	f := newFixture(FetchLazy, FetchLazy)
	s, _ := rig(t, ModeSloth)
	if err := f.patients.Insert(s, &Patient{ID: 3, Name: "Cid", Age: 27}); err != nil {
		t.Fatal(err)
	}
	got, err := f.patients.FindNow(s, 3)
	if err != nil || got.Name != "Cid" {
		t.Fatalf("after insert: %+v, %v", got, err)
	}
	// Updates and deletes are plain statements through the session's store.
	if _, err := s.Store().Exec("UPDATE patients SET age = ? WHERE id = ?", int64(28), int64(3)); err != nil {
		t.Fatal(err)
	}
	s.Clear()
	fresh, _ := f.patients.FindNow(s, 3)
	if fresh.Age != 28 {
		t.Fatalf("age after update = %d", fresh.Age)
	}
	if _, err := s.Store().Exec("DELETE FROM patients WHERE id = ?", int64(3)); err != nil {
		t.Fatal(err)
	}
	s.Clear()
	if _, err := f.patients.FindNow(s, 3); err == nil {
		t.Fatal("deleted entity still found")
	}
}

func TestWriteFlushesPendingReads(t *testing.T) {
	// A pending lazy read must observe pre-write state when the write
	// flushes the batch (order preservation through the ORM layer).
	f := newFixture(FetchLazy, FetchLazy)
	s, _ := rig(t, ModeSloth)
	before := f.patients.Find(s, 1)
	if _, err := s.Store().Exec("UPDATE patients SET age = 99 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	// The deferred read ran before the UPDATE inside the same batch.
	if got := before.Must(); got.Age != 30 {
		t.Fatalf("age = %d, want the pre-write 30", got.Age)
	}
}

func TestBelongsTo(t *testing.T) {
	f := newFixture(FetchLazy, FetchLazy)
	patientOf := NewBelongsTo(f.encounters, f.patients, func(e *Encounter) int64 { return e.PatientID }, FetchLazy)
	s, _ := rig(t, ModeSloth)
	encs := f.encounters.Where(s, "id = ?", int64(12)).Must()
	owner := patientOf.Ref(s, encs[0].PatientID).Must()
	if owner.Name != "Bob" {
		t.Fatalf("owner = %+v", owner)
	}
}

func TestBelongsToEagerCascade(t *testing.T) {
	f := newFixture(FetchLazy, FetchLazy)
	NewBelongsTo(f.encounters, f.patients, func(e *Encounter) int64 { return e.PatientID }, FetchEager)
	s, link := rig(t, ModeOriginal)
	// Loading 3 encounters eagerly hydrates their 2 distinct patients.
	f.encounters.All(s).Must()
	// 1 (encounters) + 2 (distinct patients; identity map dedups the third).
	if got := link.Stats().RoundTrips; got != 3 {
		t.Fatalf("round trips = %d, want 3", got)
	}
}

func TestLazyMap(t *testing.T) {
	f := newFixture(FetchLazy, FetchLazy)
	s, link := rig(t, ModeSloth)
	names := Map(f.patients.All(s), func(ps []*Patient) []string {
		out := make([]string, len(ps))
		for i, p := range ps {
			out[i] = p.Name
		}
		return out
	})
	if link.Stats().RoundTrips != 0 {
		t.Fatal("Map forced the source")
	}
	got := names.Must()
	if len(got) != 2 || got[0] != "Ann" {
		t.Fatalf("names = %v", got)
	}
}

func TestLazyForceAnyPanicsOnError(t *testing.T) {
	f := newFixture(FetchLazy, FetchLazy)
	s, _ := rig(t, ModeSloth)
	bad := f.patients.Where(s, "no_such_col = 1")
	defer func() {
		if recover() == nil {
			t.Fatal("ForceAny did not panic on error")
		}
	}()
	bad.ForceAny()
}
