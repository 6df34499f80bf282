package itracker

import (
	"fmt"
	"strconv"

	"repro/internal/netsim"
	"repro/internal/orm"
	"repro/internal/webapp"
)

// App bundles the entity metadata and registered pages.
type App struct {
	M   *Metas
	Web *webapp.App
	// configNames[i] is "config.<i>" and labelKeys[i] "itracker.web.<i>":
	// the lookup keys are formatted once, here, not on every page.
	configNames, labelKeys []string
}

// Build constructs the 38-page benchmark application (page names per the
// paper's appendix).
func Build(clock netsim.Clock, profile webapp.CostProfile) *App {
	size := DefaultSize()
	a := &App{M: NewMetas(), Web: webapp.New(clock, profile),
		configNames: numbered("config.", size.Configs), labelKeys: numbered("itracker.web.", size.LanguageKeys)}
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

// Load runs one page request.
func (a *App) Load(name string, req webapp.Params, sess *orm.Session) (*webapp.Result, error) {
	return a.Web.Load(name, req, sess)
}

// preamble models itracker's Struts request processing: the logged-in user
// (forced — its id drives permissions), preferences, per-project permission
// checks that force in sequence, configuration entries, and a block of
// database-backed i18n language keys that stay lazy until render.
func (a *App) preamble(c *webapp.Ctx, nKeys, nConfigs int) (*User, error) {
	u, err := a.M.Users.FindNow(c.Session, AdminUserID)
	if err != nil {
		return nil, err
	}
	c.Put("login", u.Login)
	c.Put("preferences", a.M.PrefsOfUser.Of(c.Session, u.ID))

	// Permission resolution forces: menus depend on what the user may see.
	perms, err := a.M.PermsOfUser.Of(c.Session, u.ID).Get()
	if err != nil {
		return nil, err
	}
	// The menu builder inspects each permitted project in turn; project
	// loads force one at a time (identity map collapses repeats).
	shown := 0
	for _, p := range perms {
		if shown >= 4 {
			break
		}
		if _, err := a.M.Projects.FindNow(c.Session, p.ProjectID); err != nil {
			return nil, err
		}
		shown++
	}
	c.Put("menuProjects", shown)

	// Configuration entries: the first three gate request processing (each
	// forced in turn — initialization checks the previous value before the
	// next lookup), the remainder ride in the batch.
	for i := 1; i <= 3; i++ {
		cfg, err := a.M.Configurations.Where(c.Session, "name = ?", a.configNames[i]).Get()
		if err != nil {
			return nil, err
		}
		if len(cfg) != 1 {
			return nil, fmt.Errorf("itracker: missing config.%d", i)
		}
	}
	c.Put("systemEnabled", true)
	configs := make([]any, 0, nConfigs)
	for i := 2; i <= nConfigs+1; i++ {
		configs = append(configs, a.M.Configurations.Where(c.Session, "name = ?", a.configNames[i]))
	}
	c.Put("configs", configs)

	// i18n labels: one DB lookup per message key, all lazy.
	keys := make([]any, 0, nKeys)
	for i := 1; i <= nKeys; i++ {
		keys = append(keys, a.M.LanguageKeys.Where(c.Session, "message_key = ? AND locale = 'en'", a.labelKeys[i]))
	}
	c.Put("labels", keys)
	return u, nil
}

// renderShell renders the frame shared by all pages, touching a few labels
// so the label batch flushes.
func renderShell(keys ...string) webapp.View {
	open := make([]string, len(keys)) // each key's <div>, built once with the view
	for i, k := range keys {
		open[i] = "<div class='" + k + "'>"
	}
	return func(w *webapp.ThunkWriter, m webapp.Model) {
		w.WriteString("<html><head><title>itracker</title></head><body><div id='menu'>")
		w.WriteValue(m["login"])
		w.WriteValue(m["preferences"])
		if labels, ok := m["labels"].([]any); ok {
			for i, l := range labels {
				if i >= 4 {
					break
				}
				w.WriteValue(l)
			}
		}
		w.WriteString("</div>")
		for i, k := range keys {
			if v, ok := m[k]; ok {
				w.WriteString(open[i])
				w.WriteValue(v)
				w.WriteString("</div>")
			}
		}
		w.WriteString("<div id='footer'>itracker</div></body></html>")
	}
}

// listPage: preamble + one listing + count.
func listPage[T any](a *App, name string, meta *orm.Meta[T], cond string, nKeys, nConfigs int) webapp.Page {
	return webapp.Page{
		Name: name,
		Controller: func(c *webapp.Ctx) error {
			if _, err := a.preamble(c, nKeys, nConfigs); err != nil {
				return err
			}
			c.Put("list", meta.Where(c.Session, cond))
			c.Put("total", meta.CountWhere(c.Session, cond))
			return nil
		},
		View: renderShell("list", "total"),
	}
}

// formPage: preamble + a forced subject entity + reference lists.
func formPage[T any](a *App, name string, meta *orm.Meta[T], id int64, nKeys, nConfigs int, refs ...func(c *webapp.Ctx)) webapp.Page {
	return webapp.Page{
		Name: name,
		Controller: func(c *webapp.Ctx) error {
			if _, err := a.preamble(c, nKeys, nConfigs); err != nil {
				return err
			}
			e, err := meta.FindNow(c.Session, c.Req.Get("id", id))
			if err != nil {
				return err
			}
			c.Put("entity", fmt.Sprintf("%v", *e))
			for _, r := range refs {
				r(c)
			}
			return nil
		},
		View: renderShell("entity", "components", "versions", "reports", "fields"),
	}
}

// staticPage: preamble only.
func staticPage(a *App, name string, nKeys, nConfigs int) webapp.Page {
	return webapp.Page{
		Name: name,
		Controller: func(c *webapp.Ctx) error {
			_, err := a.preamble(c, nKeys, nConfigs)
			return err
		},
		View: renderShell(),
	}
}

// listProjects is the Fig. 10 scaling benchmark page: every visible project
// with its components, versions, and issue count; component/version lists
// stay lazy per project (batched by Sloth, 1+N for the original).
func (a *App) listProjects(name string) webapp.Page {
	return webapp.Page{
		Name: name,
		Controller: func(c *webapp.Ctx) error {
			if _, err := a.preamble(c, 10, 4); err != nil {
				return err
			}
			projects, err := a.M.Projects.Where(c.Session, "status = 1").Get()
			if err != nil {
				return err
			}
			rows := make([]any, 0, len(projects))
			for _, p := range projects {
				comps := a.M.ComponentsOf.Of(c.Session, p.ID)
				vers := a.M.VersionsOf.Of(c.Session, p.ID)
				count := a.M.IssuesOf.CountOf(c.Session, p.ID)
				name := p.Name
				rows = append(rows, orm.Map(comps, func(cs []*Component) string {
					return fmt.Sprintf("%s comps=%d vers=%d issues=%d", name, len(cs), len(vers.Must()), count.Must())
				}))
			}
			c.Put("projectRows", rows)
			return nil
		},
		View: func(w *webapp.ThunkWriter, m webapp.Model) {
			renderShell()(w, m)
			if rows, ok := m["projectRows"].([]any); ok {
				for _, r := range rows {
					w.WriteString("<tr>")
					w.WriteValue(r)
					w.WriteString("</tr>")
				}
			}
		},
	}
}

// viewIssue walks issue → history → per-entry users; the history users stay
// lazy (batched), while the issue itself must force.
func (a *App) viewIssue() webapp.Page {
	return webapp.Page{
		Name: "module-projects/view issue.jsp",
		Controller: func(c *webapp.Ctx) error {
			if _, err := a.preamble(c, 14, 5); err != nil {
				return err
			}
			issue, err := a.M.Issues.FindNow(c.Session, c.Req.Get("issueId", MainIssueID))
			if err != nil {
				return err
			}
			c.Put("issue", issue.Description)
			c.Put("project", a.M.Projects.Find(c.Session, issue.ProjectID))
			c.Put("owner", a.M.Users.Find(c.Session, issue.OwnerID))
			c.Put("attachments", a.M.AttachmentsOf.Of(c.Session, issue.ID))
			hist, err := a.M.HistoryOf.Of(c.Session, issue.ID).Get()
			if err != nil {
				return err
			}
			entries := make([]any, 0, len(hist))
			for _, h := range hist {
				user := a.M.Users.Find(c.Session, h.UserID)
				action := h.Action
				entries = append(entries, orm.Map(user, func(u *User) string {
					return action + " by " + u.Login
				}))
			}
			c.Put("history", entries)
			c.Put("components", a.M.ComponentsOf.Of(c.Session, issue.ProjectID))
			c.Put("versions", a.M.VersionsOf.Of(c.Session, issue.ProjectID))
			return nil
		},
		View: func(w *webapp.ThunkWriter, m webapp.Model) {
			renderShell("issue", "project", "owner", "attachments", "components", "versions")(w, m)
			if entries, ok := m["history"].([]any); ok {
				for _, e := range entries {
					w.WriteString("<li>")
					w.WriteValue(e)
					w.WriteString("</li>")
				}
			}
		},
	}
}

// listIssues lists a project's issues; each issue's owner resolves lazily
// per row (classic 1+N, plus original-mode eager hydration of project and
// owner per issue).
func (a *App) listIssues() webapp.Page {
	return webapp.Page{
		Name: "module-projects/list issues.jsp",
		Controller: func(c *webapp.Ctx) error {
			if _, err := a.preamble(c, 12, 4); err != nil {
				return err
			}
			pid := c.Req.Get("projectId", MainProjectID)
			if _, err := a.M.Projects.FindNow(c.Session, pid); err != nil {
				return err
			}
			issues, err := a.M.IssuesOf.Of(c.Session, pid).Get()
			if err != nil {
				return err
			}
			rows := make([]any, 0, len(issues))
			for _, is := range issues {
				owner := a.M.Users.Find(c.Session, is.OwnerID)
				desc := is.Description
				rows = append(rows, orm.Map(owner, func(u *User) string {
					return desc + " -> " + u.Login
				}))
			}
			c.Put("issueRows", rows)
			return nil
		},
		View: func(w *webapp.ThunkWriter, m webapp.Model) {
			renderShell()(w, m)
			if rows, ok := m["issueRows"].([]any); ok {
				for _, r := range rows {
					w.WriteString("<tr>")
					w.WriteValue(r)
					w.WriteString("</tr>")
				}
			}
		},
	}
}

// editIssue is the paper's heaviest itracker page (129 original round
// trips): the issue plus all its reference data and per-activity users.
func (a *App) editIssue() webapp.Page {
	return webapp.Page{
		Name: "module-projects/edit issue.jsp",
		Controller: func(c *webapp.Ctx) error {
			if _, err := a.preamble(c, 16, 6); err != nil {
				return err
			}
			issue, err := a.M.Issues.FindNow(c.Session, c.Req.Get("issueId", MainIssueID))
			if err != nil {
				return err
			}
			c.Put("issue", issue.Description)
			c.Put("components", a.M.ComponentsOf.Of(c.Session, issue.ProjectID))
			c.Put("versions", a.M.VersionsOf.Of(c.Session, issue.ProjectID))
			c.Put("attachments", a.M.AttachmentsOf.Of(c.Session, issue.ID))
			c.Put("fields", a.M.CustomFields.All(c.Session))
			acts, err := a.M.ActivitiesOf.Of(c.Session, issue.ID).Get()
			if err != nil {
				return err
			}
			entries := make([]any, 0, len(acts))
			for _, act := range acts {
				user := a.M.Users.Find(c.Session, act.UserID)
				desc := act.Description
				entries = append(entries, orm.Map(user, func(u *User) string {
					return desc + "/" + u.Login
				}))
			}
			c.Put("activities", entries)
			// Owner candidates: permission holders on the project, each
			// user resolved lazily per row.
			perms, err := a.M.Permissions.Where(c.Session, "project_id = ?", issue.ProjectID).Get()
			if err != nil {
				return err
			}
			cands := make([]any, 0, len(perms))
			for _, p := range perms {
				cands = append(cands, a.M.Users.Find(c.Session, p.UserID))
			}
			c.Put("candidates", cands)
			return nil
		},
		View: func(w *webapp.ThunkWriter, m webapp.Model) {
			renderShell("issue", "components", "versions", "attachments", "fields")(w, m)
			for _, key := range []string{"activities", "candidates"} {
				if rows, ok := m[key].([]any); ok {
					for _, r := range rows {
						w.WriteString("<li>")
						w.WriteValue(r)
						w.WriteString("</li>")
					}
				}
			}
		},
	}
}

// portalHome is the landing page: the user's issues, watched projects, and
// unread counts.
func (a *App) portalHome() webapp.Page {
	return webapp.Page{
		Name: "portalhome.jsp",
		Controller: func(c *webapp.Ctx) error {
			u, err := a.preamble(c, 14, 5)
			if err != nil {
				return err
			}
			c.Put("myIssues", a.M.Issues.Where(c.Session, "owner_id = ?", u.ID))
			c.Put("created", a.M.Issues.Where(c.Session, "creator_id = ?", u.ID))
			c.Put("openCount", a.M.Issues.CountWhere(c.Session, "owner_id = ? AND status < 3", u.ID))
			c.Put("projects", a.M.Projects.Where(c.Session, "status = 1"))
			return nil
		},
		View: renderShell("myIssues", "created", "openCount", "projects"),
	}
}

func refComponents(a *App, pid int64) func(c *webapp.Ctx) {
	return func(c *webapp.Ctx) { c.Put("components", a.M.ComponentsOf.Of(c.Session, pid)) }
}

func refVersions(a *App, pid int64) func(c *webapp.Ctx) {
	return func(c *webapp.Ctx) { c.Put("versions", a.M.VersionsOf.Of(c.Session, pid)) }
}

func refReports(a *App) func(c *webapp.Ctx) {
	return func(c *webapp.Ctx) { c.Put("reports", a.M.Reports.All(c.Session)) }
}

func refFields(a *App) func(c *webapp.Ctx) {
	return func(c *webapp.Ctx) { c.Put("fields", a.M.CustomFields.All(c.Session)) }
}

// registerPages builds the 38-page table.
func (a *App) registerPages() {
	reg := a.Web.MustRegisterPage
	M := a.M

	reg(listPage(a, "module-reports/list reports.jsp", M.Reports, "id >= 1", 16, 6))
	reg(staticPage(a, "self register.jsp", 14, 5))
	reg(a.portalHome())
	reg(formPage(a, "module-searchissues/search issues form.jsp", M.Projects, MainProjectID, 14, 5, refComponents(a, MainProjectID), refVersions(a, MainProjectID)))
	reg(staticPage(a, "forgot password.jsp", 14, 5))
	reg(staticPage(a, "error.jsp", 13, 5))
	reg(staticPage(a, "unauthorized.jsp", 13, 4))
	reg(formPage(a, "module-projects/move issue.jsp", M.Issues, MainIssueID, 14, 5, refComponents(a, MainProjectID)))
	reg(a.listProjects("module-projects/list projects.jsp"))
	reg(formPage(a, "module-projects/view issue activity.jsp", M.Issues, MainIssueID, 16, 6, refFields(a)))
	reg(a.viewIssue())
	reg(a.editIssue())
	reg(formPage(a, "module-projects/create issue.jsp", M.Projects, MainProjectID, 16, 6, refComponents(a, MainProjectID), refVersions(a, MainProjectID), refFields(a)))
	reg(a.listIssues())
	reg(listPage(a, "module-admin/admin report/list reports.jsp", M.Reports, "id >= 1", 14, 5))
	reg(formPage(a, "module-admin/admin report/edit report.jsp", M.Reports, 1, 14, 5, refReports(a)))
	reg(staticPage(a, "module-admin/admin configuration/import data verify.jsp", 14, 5))
	reg(formPage(a, "module-admin/admin configuration/edit configuration.jsp", M.Configurations, 1, 13, 5))
	reg(staticPage(a, "module-admin/admin configuration/import data.jsp", 14, 5))
	reg(listPage(a, "module-admin/admin configuration/list configuration.jsp", M.Configurations, "item_type = 1", 14, 6))
	reg(listPage(a, "module-admin/admin workflow/list workflow.jsp", M.WorkflowScripts, "id >= 1", 14, 5))
	reg(formPage(a, "module-admin/admin workflow/edit workflowscript.jsp", M.WorkflowScripts, 1, 14, 5))
	reg(formPage(a, "module-admin/admin user/edit user.jsp", M.Users, 2, 16, 6))
	reg(listPage(a, "module-admin/admin user/list users.jsp", M.Users, "super_user = FALSE", 15, 6))
	reg(staticPage(a, "module-admin/unauthorized.jsp", 14, 5))
	reg(formPage(a, "module-admin/admin project/edit project.jsp", M.Projects, MainProjectID, 15, 6, refComponents(a, MainProjectID), refVersions(a, MainProjectID)))
	reg(formPage(a, "module-admin/admin project/edit projectscript.jsp", M.Projects, 2, 14, 6))
	reg(formPage(a, "module-admin/admin project/edit component.jsp", M.Components, 101, 14, 5))
	reg(formPage(a, "module-admin/admin project/edit version.jsp", M.Versions, 101, 14, 5))
	reg(a.listProjects("module-admin/admin project/list projects.jsp"))
	reg(listPage(a, "module-admin/admin attachment/list attachments.jsp", M.Attachments, "size_bytes >= 0", 15, 5))
	reg(listPage(a, "module-admin/admin scheduler/list tasks.jsp", M.ScheduledTasks, "id >= 1", 14, 6))
	reg(staticPage(a, "module-admin/adminhome.jsp", 16, 8))
	reg(listPage(a, "module-admin/admin language/list languages.jsp", M.LanguageKeys, "id <= 30", 16, 6))
	reg(formPage(a, "module-admin/admin language/create language key.jsp", M.LanguageKeys, 1, 16, 6))
	reg(formPage(a, "module-admin/admin language/edit language.jsp", M.LanguageKeys, 2, 15, 5))
	reg(formPage(a, "module-preferences/edit preferences.jsp", M.Preferences, AdminUserID, 16, 6))
	reg(listPage(a, "module-help/show help.jsp", M.LanguageKeys, "id <= 12", 14, 6))
}
