package webapp

// AppendValue exposes the page renderer to the external tests.
var AppendValue = appendValue

// PageByName returns a registered page.
func (a *App) PageByName(name string) *Page { return a.pages[name] }

// Parts returns the writer's buffered output: strings and unforced thunks.
func (w *ThunkWriter) Parts() []any { return w.parts }
