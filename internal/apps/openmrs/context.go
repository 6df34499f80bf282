package openmrs

import (
	"fmt"

	"repro/internal/orm"
	"repro/internal/webapp"
)

// This file models the framework work OpenMRS performs on every request
// (the `Context` class): authenticating the user, resolving roles and
// privileges, and reading global properties. These accesses are the bulk of
// the per-page query preamble in the original application, and the bulk of
// Sloth's batching opportunity.

// authenticate loads the logged-in user and their authorization state.
// Structure matters for round trips:
//   - the user row is forced immediately (its person_id feeds later code);
//   - the person and name entities go into the model unforced;
//   - the role list is forced (the code iterates it);
//   - each role's privileges are registered; only the first privilege check
//     forces, so the rest ride along in the batch.
func (a *App) authenticate(c *webapp.Ctx) (*User, error) {
	u, err := a.M.Users.FindNow(c.Session, AdminUserID)
	if err != nil {
		return nil, fmt.Errorf("openmrs: authenticate: %w", err)
	}
	c.Put("authenticatedUser", u.Username)
	c.Put("userPerson", a.M.Persons.Find(c.Session, u.PersonID))
	c.Put("userNames", a.M.PersonNames.Where(c.Session, "person_id = ? AND preferred = TRUE", u.PersonID))

	userRoles, err := a.M.RolesOfUser.Of(c.Session, u.ID).Get()
	if err != nil {
		return nil, err
	}
	var privs []orm.Lazy[[]*RolePrivilege]
	for _, ur := range userRoles {
		// Role entities resolve through the identity map after the first
		// load; privileges are registered per role.
		if _, err := a.M.Roles.FindNow(c.Session, ur.RoleID); err != nil {
			return nil, err
		}
		privs = append(privs, a.M.PrivsOfRole.Of(c.Session, ur.RoleID))
	}
	c.Put("rolePrivileges", len(privs))
	// hasPrivilege("View Admin"-style check): the first privilege list is
	// needed NOW, flushing whatever has accumulated.
	if len(privs) > 0 {
		if _, err := privs[0].Get(); err != nil {
			return nil, err
		}
	}
	return u, nil
}

// hasPrivilege forces the privilege lists of the user's roles until a match
// is found — the conditional query pattern from the paper's Fig. 1 that
// static prefetching cannot handle.
func (a *App) hasPrivilege(c *webapp.Ctx, u *User, privilege string) (bool, error) {
	userRoles, err := a.M.RolesOfUser.Of(c.Session, u.ID).Get()
	if err != nil {
		return false, err
	}
	for _, ur := range userRoles {
		ps, err := a.M.PrivsOfRole.Of(c.Session, ur.RoleID).Get()
		if err != nil {
			return false, err
		}
		for _, p := range ps {
			if p.Privilege == privilege {
				return true, nil
			}
		}
	}
	return false, nil
}

// loadGlobalProps registers n global-property point lookups (OpenMRS calls
// getGlobalProperty throughout page construction) and stores them in the
// model unforced; the view renders a few of them.
func (a *App) loadGlobalProps(c *webapp.Ctx, n int) {
	props := make([]any, 0, n)
	for i := 1; i <= n; i++ {
		props = append(props, a.M.GlobalProperties.Where(c.Session, "name = ?", a.propNames[i]))
	}
	c.Put("globalProps", props)
}

// preamble is the shared framework prologue: authentication, the locale
// and theme properties the dispatcher inspects immediately (forced), and
// the lazily-registered global property block. Returns the authenticated
// user.
func (a *App) preamble(c *webapp.Ctx, nGlobals int) (*User, error) {
	u, err := a.authenticate(c)
	if err != nil {
		return nil, err
	}
	// The request dispatcher needs locale and theme before building the
	// model: two sequential forced lookups (prop.1 gates prop.2).
	for i := 1; i <= 2; i++ {
		props, err := a.M.GlobalProperties.Where(c.Session, "name = ?", a.propNames[i]).Get()
		if err != nil {
			return nil, err
		}
		if len(props) != 1 {
			return nil, fmt.Errorf("openmrs: missing prop.%d", i)
		}
	}
	a.loadGlobalProps(c, nGlobals)
	return u, nil
}

// renderPreamble writes the framework-owned parts of every page: banner,
// the user's display name, and a handful of the global properties (the
// rest stay in the model and are only forced because they share the batch).
func renderPreamble(w *webapp.ThunkWriter, m webapp.Model) {
	w.WriteString("<html><head><title>openmrs</title></head><body><div id='banner'>")
	w.WriteValue(m["authenticatedUser"])
	w.WriteString("</div><div id='names'>")
	w.WriteValue(m["userNames"])
	w.WriteString("</div><div id='props'>")
	if props, ok := m["globalProps"].([]any); ok {
		for i, p := range props {
			if i >= 3 {
				break // only the first few properties appear in markup
			}
			w.WriteValue(p)
		}
		// The remaining properties are forced implicitly when the batch
		// flushes; rendering them is not required for that.
	}
	w.WriteString("</div>")
}

func renderFooter(w *webapp.ThunkWriter) {
	w.WriteString("<div id='footer'>openmrs</div></body></html>")
}
