// Package webapp is the reproduction's Spring-MVC/Tomcat stand-in: pages
// are controller + view pairs, controllers populate a model map, and views
// render through a ThunkWriter. The Sloth extensions are built in: model
// maps may hold unforced thunks (the Spring extension of paper Sec. 5) and
// the ThunkWriter buffers thunk values until the final flush (the JspWriter
// writeThunk extension), which is what gives Sloth its batching window
// across the whole page build.
package webapp

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"

	"repro/internal/thunk"
)

// ThunkWriter accumulates page output as a list of parts. Markup is kept as
// the string it was given; a value written eagerly is rendered at once into
// the writer's value buffer; a lazy value is buffered unforced when deferred
// mode is on, and all of them are forced only at Flush — typically
// triggering a single batched round trip for every query still pending in
// the session's query store. Flush then writes the page once, into one
// allocation of exactly its length.
type ThunkWriter struct {
	parts    []part
	vals     []byte // rendered values; a value part is a span of it
	deferred bool
	rendered int // values written via WriteValue
	buffered int // thunk values buffered rather than forced
}

// part is one piece of the page, in page order: markup (text), a rendered
// value (vals[from:to]), or a buffered thunk (t), which Flush forces and
// renders into vals, turning it into a rendered value.
type part struct {
	text     string
	t        thunk.Any
	from, to int
}

// reset empties w for its next page, keeping its buffers and dropping its
// references to markup and thunks (and so to the entities they hold).
func (w *ThunkWriter) reset() {
	clear(w.parts)
	*w = ThunkWriter{parts: w.parts[:0], vals: w.vals[:0]}
}

// WriteString appends literal markup.
func (w *ThunkWriter) WriteString(s string) {
	w.parts = append(w.parts, part{text: s})
}

// WriteValue appends a dynamic value. Lazy values (thunk.Any) are buffered
// in deferred mode — the paper's writeThunk — and forced otherwise.
func (w *ThunkWriter) WriteValue(v any) {
	w.rendered++
	if t, ok := v.(thunk.Any); ok {
		if w.deferred {
			w.parts = append(w.parts, part{t: t})
			w.buffered++
			return
		}
		v = t.ForceAny()
	}
	from := len(w.vals)
	w.vals = appendValue(w.vals, v)
	w.parts = append(w.parts, part{from: from, to: len(w.vals)})
}

// Rendered reports how many dynamic values were written.
func (w *ThunkWriter) Rendered() int { return w.rendered }

// Flush forces every buffered thunk in page order (triggering query-store
// flushes as needed) and returns the rendered page. Force-time panics from
// lazy errors are converted to an error return that keeps the panicking
// error's chain, so errors.Is sees through it.
func (w *ThunkWriter) Flush() (page string, err error) {
	defer func() {
		switch r := recover().(type) {
		case nil:
		case error:
			err = fmt.Errorf("webapp: render failed: %w", r)
		default:
			err = fmt.Errorf("webapp: render failed: %v", r)
		}
	}()
	n := 0
	for i := range w.parts {
		p := &w.parts[i]
		if p.t != nil {
			p.from = len(w.vals)
			w.vals = appendValue(w.vals, p.t.ForceAny())
			p.to, p.t = len(w.vals), nil
		}
		n += len(p.text) + p.to - p.from
	}
	var sb strings.Builder
	sb.Grow(n)
	for _, p := range w.parts {
		sb.WriteString(p.text)
		sb.Write(w.vals[p.from:p.to])
	}
	return sb.String(), nil
}

// appendValue formats a forced value onto b. Slices render as comma-joined
// items so entity lists produce size-proportional output, and pointers
// render their referent: page bytes must be a pure function of the data
// (never of allocation addresses), which is what lets the golden equality
// tests compare optimized and unoptimized executions byte for byte. The
// bytes are fmt's %v of the data; what pages are made of — int64, string,
// float64, bool and structs of those, behind any depth of pointers and
// slices — is written with strconv, the rest is handed to fmt.
func appendValue(b []byte, v any) []byte {
	if v == nil {
		return b
	}
	return appendReflected(b, reflect.ValueOf(v))
}

var (
	stringSliceType = reflect.TypeOf([]string(nil))
	stringerType    = reflect.TypeOf((*fmt.Stringer)(nil)).Elem()
)

// appendReflected renders rv. The walk never descends through a struct
// field, so Interface is allowed on rv wherever it is needed: for a String
// method and for what is left to fmt.
func appendReflected(b []byte, rv reflect.Value) []byte {
	if rv.Kind() == reflect.Interface { // an element of a []any or the like
		if rv.IsNil() {
			return b
		}
		rv = rv.Elem()
	}
	switch t := rv.Type(); {
	case t == stringSliceType: // joined bare, without the brackets of other slices
		for i := 0; i < rv.Len(); i++ {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = append(b, rv.Index(i).String()...)
		}
	case t.Implements(stringerType):
		b = append(b, rv.Interface().(fmt.Stringer).String()...)
	case rv.Kind() == reflect.Pointer:
		if !rv.IsNil() {
			b = appendReflected(b, rv.Elem())
		}
	case rv.Kind() == reflect.Slice:
		b = append(b, '[')
		for i := 0; i < rv.Len(); i++ {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = appendReflected(b, rv.Index(i))
		}
		b = append(b, ']')
	case plain(rv):
		b = appendPlain(b, rv)
	case plainStruct(rv):
		b = append(b, '{')
		for i := 0; i < rv.NumField(); i++ {
			if i > 0 {
				b = append(b, ' ')
			}
			b = appendPlain(b, rv.Field(i))
		}
		b = append(b, '}')
	default:
		b = fmt.Append(b, rv.Interface())
	}
	return b
}

// plain reports whether %v of rv is just its value: one of the four kinds
// entities are made of, of a type with no method (Formatter, error,
// Stringer) fmt would call instead.
func plain(rv reflect.Value) bool {
	switch rv.Kind() {
	case reflect.Int64, reflect.String, reflect.Float64, reflect.Bool:
		return rv.Type().NumMethod() == 0
	}
	return false
}

// plainStruct reports whether rv is a method-less struct of plain fields,
// which %v prints as {f1 f2 ...}.
func plainStruct(rv reflect.Value) bool {
	if rv.Kind() != reflect.Struct || rv.Type().NumMethod() != 0 {
		return false
	}
	for i := 0; i < rv.NumField(); i++ {
		if !plain(rv.Field(i)) {
			return false
		}
	}
	return true
}

// appendPlain writes a plain value exactly as %v does.
func appendPlain(b []byte, rv reflect.Value) []byte {
	switch rv.Kind() {
	case reflect.Int64:
		return strconv.AppendInt(b, rv.Int(), 10)
	case reflect.String:
		return append(b, rv.String()...)
	case reflect.Float64:
		return strconv.AppendFloat(b, rv.Float(), 'g', -1, 64)
	case reflect.Bool:
		return strconv.AppendBool(b, rv.Bool())
	}
	return b
}
