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

// NewThunkWriter creates a writer. With deferred=false (original
// application behaviour) lazy values are forced at write time, exactly like
// a stock JspWriter printing an entity.
func NewThunkWriter(deferred bool) *ThunkWriter {
	return &ThunkWriter{deferred: deferred}
}

// Buffered reports how many thunks were buffered unforced.
func (w *ThunkWriter) Buffered() int { return w.buffered }
