package webapp

// AppendValue exposes the page renderer to the external tests.
var AppendValue = appendValue

// PageByName returns a registered page.
func (a *App) PageByName(name string) *Page { return a.pages[name] }

// Parts returns the writer's buffered output in page order: markup and
// eagerly rendered values as strings, buffered values as unforced thunks.
func (w *ThunkWriter) Parts() []any {
	out := make([]any, len(w.parts))
	for i, p := range w.parts {
		switch {
		case p.t != nil:
			out[i] = p.t
		case p.to > p.from:
			out[i] = string(w.vals[p.from:p.to])
		default:
			out[i] = p.text
		}
	}
	return out
}
