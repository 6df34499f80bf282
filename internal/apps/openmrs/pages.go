package openmrs

import (
	"fmt"
	"strconv"

	"repro/internal/netsim"
	"repro/internal/orm"
	"repro/internal/webapp"
)

// App bundles the entity metadata and the registered page set.
type App struct {
	M   *Metas
	Web *webapp.App
	// propNames[i] is "prop.<i>", the name of global property i: the
	// lookup keys are formatted once, here, not on every page.
	propNames []string
}

// Build constructs the application with its full 112-page benchmark set
// (the page list mirrors the paper's appendix).
func Build(clock netsim.Clock, profile webapp.CostProfile) *App {
	a := &App{M: NewMetas(), Web: webapp.New(clock, profile), propNames: numbered("prop.", DefaultSize().GlobalProps)}
	a.registerPages()
	return a
}

// numbered returns prefix+"0" … prefix+n, indexed by the number.
func numbered(prefix string, n int) []string {
	out := make([]string, n+1)
	for i := range out {
		out[i] = prefix + strconv.Itoa(i)
	}
	return out
}

// Pages returns the benchmark page names in registration order.
func (a *App) Pages() []string { return a.Web.PageNames() }

// Load runs one page request through the web framework.
func (a *App) Load(name string, req webapp.Params, sess *orm.Session) (*webapp.Result, error) {
	return a.Web.Load(name, req, sess)
}

// ---------------------------------------------------------------------------
// Reference-list loaders: the dropdown data admin pages pull in. Each loader
// returns a model key and a lazy list. Under ModeOriginal the eager
// per-item cascades (concept names, providers' persons, ...) fire
// immediately — the hydration waste that inflates original query counts.

type refLoader func(a *App, c *webapp.Ctx)

func refConcepts(n int) refLoader {
	return func(a *App, c *webapp.Ctx) {
		c.Put("conceptOptions", a.M.Concepts.Where(c.Session, "id <= ? AND retired = FALSE", int64(n)))
	}
}

func refLocations() refLoader {
	return func(a *App, c *webapp.Ctx) {
		c.Put("locationOptions", a.M.Locations.All(c.Session))
	}
}

func refVisitTypes() refLoader {
	return func(a *App, c *webapp.Ctx) {
		c.Put("visitTypeOptions", a.M.VisitTypes.Where(c.Session, "retired = FALSE"))
	}
}

func refEncounterTypes() refLoader {
	return func(a *App, c *webapp.Ctx) {
		c.Put("encounterTypeOptions", a.M.EncounterTypes.Where(c.Session, "retired = FALSE"))
	}
}

func refForms() refLoader {
	return func(a *App, c *webapp.Ctx) {
		c.Put("formOptions", a.M.Forms.Where(c.Session, "retired = FALSE"))
	}
}

func refRoles() refLoader {
	return func(a *App, c *webapp.Ctx) {
		c.Put("roleOptions", a.M.Roles.All(c.Session))
	}
}

func refDrugs() refLoader {
	return func(a *App, c *webapp.Ctx) {
		c.Put("drugOptions", a.M.Drugs.Where(c.Session, "retired = FALSE"))
	}
}

func refProviders() refLoader {
	return func(a *App, c *webapp.Ctx) {
		// Providers hydrate eagerly through persons in the original app via
		// an explicit per-row reference walk the view needs for display
		// names. The walk registers lazily, so Sloth batches it.
		providers := a.M.Providers.Where(c.Session, "retired = FALSE")
		c.Put("providerOptions", providers)
		c.Put("providerPersons", orm.Map(providers, func(ps []*Provider) []string {
			out := make([]string, len(ps))
			for i, p := range ps {
				out[i] = fmt.Sprintf("person-%d", p.PersonID)
			}
			return out
		}))
	}
}

func refPrograms() refLoader {
	return func(a *App, c *webapp.Ctx) {
		c.Put("programOptions", a.M.Programs.All(c.Session))
	}
}

func refRelTypes() refLoader {
	return func(a *App, c *webapp.Ctx) {
		c.Put("relTypeOptions", a.M.RelationshipTypes.All(c.Session))
	}
}

// ---------------------------------------------------------------------------
// Page families.

// renderStdKeys renders the standard admin-page body: preamble plus the
// model keys the family stores.
func renderStdKeys(keys ...string) webapp.View {
	open := make([]string, len(keys)) // each key's <div>, built once with the view
	for i, k := range keys {
		open[i] = "<div class='" + k + "'>"
	}
	return func(w *webapp.ThunkWriter, m webapp.Model) {
		renderPreamble(w, m)
		for i, k := range keys {
			if v, ok := m[k]; ok {
				w.WriteString(open[i])
				w.WriteValue(v)
				w.WriteString("</div>")
			}
		}
		renderFooter(w)
	}
}

// listPage is the admin list family: preamble, a listing query, a count,
// and some reference dropdowns.
func listPage[T any](a *App, name string, meta *orm.Meta[T], cond string, nGlobals int, refs ...refLoader) webapp.Page {
	return webapp.Page{
		Name: name,
		Controller: func(c *webapp.Ctx) error {
			u, err := a.preamble(c, nGlobals)
			if err != nil {
				return err
			}
			ok, err := a.hasPrivilege(c, u, "View Admin")
			if err != nil {
				return err
			}
			c.Put("canEdit", ok)
			c.Put("list", meta.Where(c.Session, cond))
			c.Put("total", meta.CountWhere(c.Session, cond))
			for _, r := range refs {
				r(a, c)
			}
			return nil
		},
		View: renderStdKeys("list", "total", "conceptOptions", "locationOptions",
			"visitTypeOptions", "encounterTypeOptions", "formOptions", "roleOptions",
			"drugOptions", "providerOptions", "programOptions", "relTypeOptions"),
	}
}

// formPage is the admin form family: preamble, the edited entity (forced —
// its fields feed validation logic), and reference dropdowns.
func formPage[T any](a *App, name string, meta *orm.Meta[T], id int64, nGlobals int, refs ...refLoader) webapp.Page {
	return webapp.Page{
		Name: name,
		Controller: func(c *webapp.Ctx) error {
			u, err := a.preamble(c, nGlobals)
			if err != nil {
				return err
			}
			if _, err := a.hasPrivilege(c, u, "Manage Forms"); err != nil {
				return err
			}
			entityID := c.Req.Get("id", id)
			// The form's subject is forced: validation inspects its fields
			// before the view renders (a dependent-query force point).
			e, err := meta.FindNow(c.Session, entityID)
			if err != nil {
				return err
			}
			c.Put("entity", fmt.Sprintf("%v", *e))
			for _, r := range refs {
				r(a, c)
			}
			return nil
		},
		View: renderStdKeys("entity", "conceptOptions", "locationOptions",
			"visitTypeOptions", "encounterTypeOptions", "formOptions", "roleOptions",
			"drugOptions", "providerOptions", "programOptions", "relTypeOptions"),
	}
}

// staticPage is the trivial-content family (help, feedback, ...): all cost
// is the framework preamble.
func staticPage(a *App, name string, nGlobals int) webapp.Page {
	return webapp.Page{
		Name: name,
		Controller: func(c *webapp.Ctx) error {
			_, err := a.preamble(c, nGlobals)
			return err
		},
		View: renderStdKeys(),
	}
}

// ---------------------------------------------------------------------------
// Hand-written headline pages.

// patientDashboard reproduces the paper's Fig. 1 fragment: the patient is
// forced (later queries need it), then encounters, visits (filtered
// lazily!), active visits, identifiers, programs, and orders all go into
// the model unforced.
func (a *App) patientDashboard() webapp.Page {
	return webapp.Page{
		Name: "patientDashboardForm.jsp",
		Controller: func(c *webapp.Ctx) error {
			u, err := a.preamble(c, 18)
			if err != nil {
				return err
			}
			allowed, err := a.hasPrivilege(c, u, "View Patients")
			if err != nil {
				return err
			}
			if !allowed {
				c.Put("error", "insufficient privileges")
				return nil
			}
			pid := c.Req.Get("patientId", DashboardPatientID)
			p, err := a.M.Patients.FindNow(c.Session, pid) // Q1: must force
			if err != nil {
				return err
			}
			c.Put("patient", a.M.Persons.Find(c.Session, p.PersonID))
			c.Put("patientEncounters", a.M.EncountersOf.Of(c.Session, p.ID)) // Q2: unforced
			visits := a.M.VisitsOf.Of(c.Session, p.ID)                       // Q3: unforced
			// CollectionUtils.filter(visits, ...) — side-effect free, so it
			// stays deferred (the delayed filtering from Sec. 2).
			c.Put("patientVisits", orm.Map(visits, func(vs []*Visit) []*Visit {
				out := vs[:0:0]
				for _, v := range vs {
					if !v.Active {
						out = append(out, v)
					}
				}
				return out
			}))
			// The visits tab lists every visit with its encounter count — the
			// per-row `SELECT COUNT(*) ... WHERE visit_id = ?` fan-out of the
			// real dashboard. The counts register first, so they reach the
			// flush batch as one aggregate merge family, then force.
			c.Put("visitSummaries", orm.Map(visits, func(vs []*Visit) []string {
				counts := make([]orm.Lazy[int64], len(vs))
				for i, v := range vs {
					counts[i] = a.M.EncountersOfVisit.CountOf(c.Session, v.ID)
				}
				out := make([]string, len(vs))
				for i, v := range vs {
					out[i] = fmt.Sprintf("visit %d type=%d encounters=%d", v.ID, v.VisitTypeID, counts[i].Must())
				}
				return out
			}))
			c.Put("activeVisits", a.M.VisitsOf.OfWhere(c.Session, p.ID, "active = TRUE")) // Q4: unforced
			c.Put("identifiers", a.M.IdentifiersOf.Of(c.Session, p.ID))
			c.Put("programs", a.M.ProgramsOf.Of(c.Session, p.ID))
			c.Put("orders", a.M.OrdersOf.Of(c.Session, p.ID))
			c.Put("obsCount", a.M.ObsOfPatient.CountOf(c.Session, p.ID))
			return nil
		},
		View: renderStdKeys("patient", "patientEncounters", "patientVisits",
			"visitSummaries", "activeVisits", "identifiers", "programs", "obsCount"),
		// note: "orders" is never rendered — registered but only executed
		// because it shares the final batch.
	}
}

// encounterDisplay reproduces Sec. 6.1's loop: every top-level observation
// is iterated and its concept fetched into a form-field map. The concept
// fetches stay unforced, so Sloth ships them as one large batch (the
// paper's 68-query batch).
func (a *App) encounterDisplay() webapp.Page {
	return webapp.Page{
		Name: "encounters/encounterDisplay.jsp",
		Controller: func(c *webapp.Ctx) error {
			u, err := a.preamble(c, 12)
			if err != nil {
				return err
			}
			if _, err := a.hasPrivilege(c, u, "View Encounters"); err != nil {
				return err
			}
			pid := c.Req.Get("patientId", DashboardPatientID)
			encs, err := a.M.EncountersOf.Of(c.Session, pid).Get() // iterated: forced
			if err != nil {
				return err
			}
			// Phase 1: gather every encounter's top-level observations (the
			// paper's getObsAtTopLevel(true)); these lists are iterated so
			// they force as they are fetched.
			var allObs []*Obs
			for _, enc := range encs {
				obsList, err := a.M.ObsOfEncounter.OfWhere(c.Session, enc.ID, "top_level = TRUE").Get()
				if err != nil {
					return err
				}
				allObs = append(allObs, obsList...)
			}
			// Phase 2: fs.getFormField(form, o.getConcept(), ...) per
			// observation — the concept fetches are registered but never
			// forced here, accumulating into one large batch (the paper's
			// 68-query batch).
			obsMap := make([]any, 0, len(allObs))
			for _, o := range allObs {
				concept := a.M.ConceptOfObs.Ref(c.Session, o.ConceptID)
				oid := o.ID
				obsMap = append(obsMap, orm.Map(concept, func(cc *Concept) string {
					return fmt.Sprintf("obs-%d:concept-%d:%s", oid, cc.ID, cc.Datatype)
				}))
			}
			c.Put("obsMap", obsMap)
			return nil
		},
		View: func(w *webapp.ThunkWriter, m webapp.Model) {
			renderPreamble(w, m)
			if entries, ok := m["obsMap"].([]any); ok {
				for _, e := range entries {
					w.WriteString("<div class='obs'>")
					w.WriteValue(e)
					w.WriteString("</div>")
				}
			}
			renderFooter(w)
		},
	}
}

// alertList is the paper's heaviest page (1705 original round trips): every
// alert for every user is listed and each alert's recipient user is
// resolved per row.
func (a *App) alertList() webapp.Page {
	return webapp.Page{
		Name: "admin/users/alertList.jsp",
		Controller: func(c *webapp.Ctx) error {
			if _, err := a.preamble(c, 10); err != nil {
				return err
			}
			alerts, err := a.M.Alerts.All(c.Session).Get() // iterated: forced
			if err != nil {
				return err
			}
			rows := make([]any, 0, len(alerts))
			for _, al := range alerts {
				user := a.M.Users.Find(c.Session, al.UserID) // unforced per row
				text := al.Text
				rows = append(rows, orm.Map(user, func(u *User) string {
					return text + "@" + u.Username
				}))
			}
			c.Put("alertRows", rows)
			return nil
		},
		View: func(w *webapp.ThunkWriter, m webapp.Model) {
			renderPreamble(w, m)
			if rows, ok := m["alertRows"].([]any); ok {
				for _, r := range rows {
					w.WriteString("<li>")
					w.WriteValue(r)
					w.WriteString("</li>")
				}
			}
			renderFooter(w)
		},
	}
}

// personObsForm lists a person's observations with per-row concept lookups
// forced in the controller (less batchable — the paper shows this page
// keeping many round trips under Sloth too).
func (a *App) personObsForm() webapp.Page {
	return webapp.Page{
		Name: "admin/observations/personObsForm.jsp",
		Controller: func(c *webapp.Ctx) error {
			if _, err := a.preamble(c, 10); err != nil {
				return err
			}
			pid := c.Req.Get("patientId", DashboardPatientID)
			obs, err := a.M.ObsOfPatient.Of(c.Session, pid).Get()
			if err != nil {
				return err
			}
			lines := make([]string, 0, len(obs))
			for _, o := range obs {
				// The controller formats each row NOW, forcing each concept
				// (a dependence Sloth cannot remove).
				cc, err := a.M.ConceptOfObs.Ref(c.Session, o.ConceptID).Get()
				if err != nil {
					return err
				}
				lines = append(lines, fmt.Sprintf("%d:%s", o.ID, cc.Class))
			}
			c.Put("obsLines", lines)
			return nil
		},
		View: renderStdKeys("obsLines"),
	}
}

// conceptStatsForm computes sequential aggregates over a concept's
// observations; each feeds the next, so batching wins little (paper: 100
// round trips original, 82 Sloth).
func (a *App) conceptStatsForm() webapp.Page {
	return webapp.Page{
		Name: "dictionary/conceptStatsForm.jsp",
		Controller: func(c *webapp.Ctx) error {
			if _, err := a.preamble(c, 8); err != nil {
				return err
			}
			conceptID := c.Req.Get("conceptId", 1)
			if _, err := a.M.Concepts.FindNow(c.Session, conceptID); err != nil {
				return err
			}
			var stats []string
			// Sequential dependent aggregates: each result gates the next
			// query (value-range refinement), forcing one at a time.
			lo, hi := int64(0), int64(200)
			for i := 0; i < 24; i++ {
				n, err := a.M.Observations.CountWhere(c.Session,
					"concept_id = ? AND value_num >= ? AND value_num < ?",
					conceptID, lo, hi).Get()
				if err != nil {
					return err
				}
				stats = append(stats, fmt.Sprintf("[%d,%d)=%d", lo, hi, n))
				if n > 2 {
					hi = (lo + hi) / 2 // refine into the dense half
				} else {
					lo = (lo + hi) / 2
				}
				if hi <= lo {
					lo, hi = 0, 200+int64(i)
				}
			}
			c.Put("histogram", stats)
			return nil
		},
		View: renderStdKeys("histogram"),
	}
}

// locationHierarchy walks the location tree; each level's children are
// demanded to recurse, so round trips scale with depth, not node count.
func (a *App) locationHierarchy() webapp.Page {
	return webapp.Page{
		Name: "admin/locations/hierarchy.jsp",
		Controller: func(c *webapp.Ctx) error {
			if _, err := a.preamble(c, 12); err != nil {
				return err
			}
			var walk func(parent int64, depth int) ([]string, error)
			walk = func(parent int64, depth int) ([]string, error) {
				if depth > 6 {
					return nil, nil
				}
				kids, err := a.M.ChildLocations.Of(c.Session, parent).Get()
				if err != nil {
					return nil, err
				}
				var out []string
				for _, k := range kids {
					if k.ID == parent {
						continue
					}
					out = append(out, k.Name)
					sub, err := walk(k.ID, depth+1)
					if err != nil {
						return nil, err
					}
					out = append(out, sub...)
				}
				return out, nil
			}
			tree, err := walk(0, 0)
			if err != nil {
				return err
			}
			c.Put("tree", tree)
			return nil
		},
		View: renderStdKeys("tree"),
	}
}

// usersList resolves each user's person per row, unforced — the 1+N pattern
// fully batched by Sloth.
func (a *App) usersList() webapp.Page {
	return webapp.Page{
		Name: "admin/users/users.jsp",
		Controller: func(c *webapp.Ctx) error {
			if _, err := a.preamble(c, 14); err != nil {
				return err
			}
			users, err := a.M.Users.Where(c.Session, "retired = FALSE").Get()
			if err != nil {
				return err
			}
			rows := make([]any, 0, len(users))
			for _, u := range users {
				person := a.M.Persons.Find(c.Session, u.PersonID)
				// Pending-alert badge per listed user: the per-row
				// `SELECT COUNT(*) ... WHERE user_id = ?` fan-out that the
				// aggregate merge family folds into one GROUP BY statement.
				alerts := a.M.AlertsOfUser.CountOf(c.Session, u.ID)
				name := u.Username
				rows = append(rows, orm.Map(person, func(p *Person) string {
					return fmt.Sprintf("%s(%s) alerts=%d", name, p.Gender, alerts.Must())
				}))
			}
			c.Put("userRows", rows)
			return nil
		},
		View: func(w *webapp.ThunkWriter, m webapp.Model) {
			renderPreamble(w, m)
			if rows, ok := m["userRows"].([]any); ok {
				for _, r := range rows {
					w.WriteString("<tr>")
					w.WriteValue(r)
					w.WriteString("</tr>")
				}
			}
			renderFooter(w)
		},
	}
}

// registerPages builds the 112-page table (names per the paper appendix).
func (a *App) registerPages() {
	reg := a.Web.MustRegisterPage
	M := a.M

	// Headline pages.
	reg(a.patientDashboard())
	reg(a.encounterDisplay())
	reg(a.alertList())
	reg(a.personObsForm())
	reg(a.conceptStatsForm())
	reg(a.locationHierarchy())
	reg(a.usersList())

	// Dictionary.
	reg(formPage(a, "dictionary/conceptForm.jsp", M.Concepts, 1, 22, refConcepts(20), refLocations()))
	reg(formPage(a, "dictionary/concept.jsp", M.Concepts, 2, 12, refConcepts(10)))

	// Top-level.
	reg(formPage(a, "optionsForm.jsp", M.Users, AdminUserID, 16, refLocations()))
	reg(staticPage(a, "help.jsp", 12))
	reg(staticPage(a, "feedback.jsp", 10))
	reg(staticPage(a, "forgotPasswordForm.jsp", 10))
	reg(formPage(a, "personDashboardForm.jsp", M.Persons, 1, 16, refRelTypes()))

	// admin/provider.
	reg(listPage(a, "admin/provider/providerAttributeTypeList.jsp", M.Providers, "retired = FALSE", 18))
	reg(formPage(a, "admin/provider/providerAttributeTypeForm.jsp", M.Providers, 1, 16))
	reg(listPage(a, "admin/provider/index.jsp", M.Providers, "retired = FALSE", 16, refProviders()))
	reg(formPage(a, "admin/provider/providerForm.jsp", M.Providers, 1, 20, refProviders()))

	// admin/concepts.
	reg(formPage(a, "admin/concepts/conceptSetDerivedForm.jsp", M.Concepts, 3, 16, refConcepts(12)))
	reg(formPage(a, "admin/concepts/conceptClassForm.jsp", M.Concepts, 4, 14, refConcepts(8)))
	reg(formPage(a, "admin/concepts/conceptReferenceTermForm.jsp", M.Concepts, 5, 20, refConcepts(12)))
	reg(listPage(a, "admin/concepts/conceptDatatypeList.jsp", M.Concepts, "retired = FALSE AND id <= 12", 16))
	reg(listPage(a, "admin/concepts/conceptMapTypeList.jsp", M.Concepts, "retired = FALSE AND id <= 16", 18))
	reg(formPage(a, "admin/concepts/conceptDatatypeForm.jsp", M.Concepts, 6, 22, refConcepts(6)))
	reg(formPage(a, "admin/concepts/conceptIndexForm.jsp", M.Concepts, 7, 18))
	reg(listPage(a, "admin/concepts/conceptProposalList.jsp", M.Concepts, "id <= 14", 18))
	reg(listPage(a, "admin/concepts/conceptDrugList.jsp", M.Drugs, "retired = FALSE", 16, refDrugs()))
	reg(formPage(a, "admin/concepts/proposeConceptForm.jsp", M.Concepts, 8, 14, refConcepts(10)))
	reg(listPage(a, "admin/concepts/conceptClassList.jsp", M.Concepts, "id <= 18", 14))
	reg(formPage(a, "admin/concepts/conceptDrugForm.jsp", M.Drugs, 1, 20, refDrugs(), refConcepts(8)))
	reg(formPage(a, "admin/concepts/conceptStopWordForm.jsp", M.Concepts, 9, 14))
	reg(formPage(a, "admin/concepts/conceptProposalForm.jsp", M.Concepts, 10, 16, refConcepts(8)))
	reg(listPage(a, "admin/concepts/conceptSourceList.jsp", M.Concepts, "id <= 10", 16))
	reg(formPage(a, "admin/concepts/conceptSourceForm.jsp", M.Concepts, 11, 16))
	reg(listPage(a, "admin/concepts/conceptReferenceTerms.jsp", M.Concepts, "id <= 20", 20, refConcepts(10)))
	reg(listPage(a, "admin/concepts/conceptStopWordList.jsp", M.Concepts, "id <= 8", 14))

	// admin/visits.
	reg(listPage(a, "admin/visits/visitTypeList.jsp", M.VisitTypes, "retired = FALSE", 16))
	reg(formPage(a, "admin/visits/visitAttributeTypeForm.jsp", M.VisitTypes, 1, 14))
	reg(formPage(a, "admin/visits/visitTypeForm.jsp", M.VisitTypes, 2, 14))
	reg(listPage(a, "admin/visits/configureVisits.jsp", M.VisitTypes, "retired = FALSE", 18, refEncounterTypes()))
	reg(formPage(a, "admin/visits/visitForm.jsp", M.Visits, 1, 18, refVisitTypes(), refLocations()))
	reg(listPage(a, "admin/visits/visitAttributeTypeList.jsp", M.VisitTypes, "retired = FALSE", 14))

	// admin/patients.
	reg(formPage(a, "admin/patients/shortPatientForm.jsp", M.Patients, DashboardPatientID, 20, refLocations(), refRelTypes()))
	reg(formPage(a, "admin/patients/patientForm.jsp", M.Patients, DashboardPatientID, 26, refLocations(), refRelTypes(), refPrograms()))
	reg(formPage(a, "admin/patients/mergePatientsForm.jsp", M.Patients, 2, 22, refLocations()))
	reg(formPage(a, "admin/patients/patientIdentifierTypeForm.jsp", M.Identifiers, 1, 18))
	reg(listPage(a, "admin/patients/patientIdentifierTypeList.jsp", M.Identifiers, "id <= 20", 16))

	// admin/modules.
	reg(formPage(a, "admin/modules/modulePropertiesForm.jsp", M.Modules, 1, 16))
	reg(listPage(a, "admin/modules/moduleList.jsp", M.Modules, "started = TRUE", 14))

	// admin/hl7.
	reg(listPage(a, "admin/hl7/hl7SourceList.jsp", M.HL7Queue, "state = 0", 14))
	reg(listPage(a, "admin/hl7/hl7OnHoldList.jsp", M.HL7Queue, "state = 0", 16))
	reg(listPage(a, "admin/hl7/hl7InQueueList.jsp", M.HL7Queue, "state = 0", 14))
	reg(listPage(a, "admin/hl7/hl7InArchiveList.jsp", M.HL7Queue, "state = 0", 14))
	reg(formPage(a, "admin/hl7/hl7SourceForm.jsp", M.HL7Queue, 1, 14))
	reg(staticPage(a, "admin/hl7/hl7InArchiveMigration.jsp", 14))
	reg(listPage(a, "admin/hl7/hl7InErrorList.jsp", M.HL7Queue, "state = 0", 16))

	// admin/forms.
	reg(formPage(a, "admin/forms/addFormResource.jsp", M.Forms, 1, 8))
	reg(listPage(a, "admin/forms/formList.jsp", M.Forms, "retired = FALSE", 14, refEncounterTypes()))
	reg(formPage(a, "admin/forms/formResources.jsp", M.Forms, 2, 8))
	reg(formPage(a, "admin/forms/formEditForm.jsp", M.Forms, 3, 30, refForms(), refEncounterTypes()))
	reg(listPage(a, "admin/forms/fieldTypeList.jsp", M.Fields, "id <= 20", 14))
	reg(formPage(a, "admin/forms/fieldTypeForm.jsp", M.Fields, 1, 14))
	reg(formPage(a, "admin/forms/fieldForm.jsp", M.Fields, 2, 18, refConcepts(10), refForms()))

	// admin index.
	reg(staticPage(a, "admin/index.jsp", 16))

	// admin/orders.
	reg(formPage(a, "admin/orders/orderForm.jsp", M.Orders, 1, 14, refDrugs(), refConcepts(8)))
	reg(listPage(a, "admin/orders/orderList.jsp", M.Orders, "active = TRUE", 16, refDrugs()))
	reg(listPage(a, "admin/orders/orderTypeList.jsp", M.Orders, "id <= 20", 14))
	reg(listPage(a, "admin/orders/orderDrugList.jsp", M.Drugs, "retired = FALSE", 18, refDrugs()))
	reg(formPage(a, "admin/orders/orderTypeForm.jsp", M.Orders, 1, 14))
	reg(formPage(a, "admin/orders/orderDrugForm.jsp", M.Drugs, 2, 20, refDrugs(), refConcepts(6)))

	// admin/programs.
	reg(listPage(a, "admin/programs/programList.jsp", M.Programs, "id >= 1", 14))
	reg(formPage(a, "admin/programs/programForm.jsp", M.Programs, 1, 18, refConcepts(8)))
	reg(formPage(a, "admin/programs/conversionForm.jsp", M.Programs, 2, 14, refPrograms()))
	reg(listPage(a, "admin/programs/conversionList.jsp", M.Programs, "id >= 1", 14))

	// admin/encounters.
	reg(listPage(a, "admin/encounters/encounterRoleList.jsp", M.EncounterTypes, "retired = FALSE", 14))
	reg(formPage(a, "admin/encounters/encounterForm.jsp", M.Encounters, 1, 24, refForms(), refProviders(), refLocations(), refEncounterTypes()))
	reg(formPage(a, "admin/encounters/encounterTypeForm.jsp", M.EncounterTypes, 1, 14))
	reg(listPage(a, "admin/encounters/encounterTypeList.jsp", M.EncounterTypes, "retired = FALSE", 16))
	reg(formPage(a, "admin/encounters/encounterRoleForm.jsp", M.EncounterTypes, 2, 14))

	// admin/observations.
	reg(formPage(a, "admin/observations/obsForm.jsp", M.Observations, 1, 20, refConcepts(12), refLocations()))

	// admin/locations (hierarchy registered above).
	reg(formPage(a, "admin/locations/locationAttributeType.jsp", M.Locations, 1, 14))
	reg(listPage(a, "admin/locations/locationAttributeTypes.jsp", M.Locations, "id >= 1", 14))
	reg(staticPage(a, "admin/locations/addressTemplate.jsp", 14))
	reg(formPage(a, "admin/locations/locationForm.jsp", M.Locations, 2, 22, refLocations()))
	reg(formPage(a, "admin/locations/locationTagEdit.jsp", M.Locations, 3, 24, refLocations()))
	reg(listPage(a, "admin/locations/locationList.jsp", M.Locations, "id >= 1", 20, refLocations()))
	reg(formPage(a, "admin/locations/locationTag.jsp", M.Locations, 4, 20))

	// admin/scheduler.
	reg(formPage(a, "admin/scheduler/schedulerForm.jsp", M.SchedulerTasks, 1, 14))
	reg(listPage(a, "admin/scheduler/schedulerList.jsp", M.SchedulerTasks, "started = TRUE", 16))

	// admin/maintenance.
	reg(staticPage(a, "admin/maintenance/implementationIdForm.jsp", 18))
	reg(staticPage(a, "admin/maintenance/serverLog.jsp", 14))
	reg(staticPage(a, "admin/maintenance/localesAndThemes.jsp", 16))
	reg(listPage(a, "admin/maintenance/currentUsers.jsp", M.Users, "retired = FALSE", 12))
	reg(listPage(a, "admin/maintenance/settings.jsp", M.GlobalProperties, "id <= 25", 14))
	reg(staticPage(a, "admin/maintenance/systemInfo.jsp", 14))
	reg(listPage(a, "admin/maintenance/quickReport.jsp", M.Encounters, "date_idx = 0", 14))
	reg(listPage(a, "admin/maintenance/globalPropsForm.jsp", M.GlobalProperties, "id >= 1", 12))
	reg(staticPage(a, "admin/maintenance/databaseChangesInfo.jsp", 12))

	// admin/person.
	reg(staticPage(a, "admin/person/addPerson.jsp", 14))
	reg(listPage(a, "admin/person/relationshipTypeList.jsp", M.RelationshipTypes, "id >= 1", 14))
	reg(formPage(a, "admin/person/relationshipTypeForm.jsp", M.RelationshipTypes, 1, 18))
	reg(formPage(a, "admin/person/relationshipTypeViewForm.jsp", M.RelationshipTypes, 2, 16))
	reg(formPage(a, "admin/person/personForm.jsp", M.Persons, 2, 22, refRelTypes(), refLocations()))
	reg(formPage(a, "admin/person/personAttributeTypeForm.jsp", M.PersonAttributes, 12, 14))
	reg(listPage(a, "admin/person/personAttributeTypeList.jsp", M.PersonAttributes, "attr_type = 'phone'", 16))

	// admin/users (alertList and users.jsp registered above).
	reg(listPage(a, "admin/users/roleList.jsp", M.Roles, "id >= 1", 16, refRoles()))
	reg(listPage(a, "admin/users/privilegeList.jsp", M.RolePrivileges, "id >= 1", 18))
	reg(formPage(a, "admin/users/userForm.jsp", M.Users, 2, 20, refRoles()))
	reg(formPage(a, "admin/users/roleForm.jsp", M.Roles, 1, 16, refRoles()))
	reg(formPage(a, "admin/users/changePasswordForm.jsp", M.Users, AdminUserID, 12))
	reg(formPage(a, "admin/users/alertForm.jsp", M.Alerts, 1, 16, refRoles()))
	reg(formPage(a, "admin/users/privilegeForm.jsp", M.RolePrivileges, 101, 12))
}
