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

// ThunkWriter accumulates page output. Plain strings append immediately;
// lazy values are buffered unforced when deferred mode is on, and are all
// forced only at Flush — typically triggering a single batched round trip
// for every query still pending in the session's query store.
type ThunkWriter struct {
	parts    []any // string or thunk.Any
	deferred bool
	rendered int // values written via WriteValue
	buffered int // thunk values buffered rather than forced
}

// NewThunkWriter creates a writer. With deferred=false (original
// application behaviour) lazy values are forced at write time, exactly like
// a stock JspWriter printing an entity.
func NewThunkWriter(deferred bool) *ThunkWriter {
	return &ThunkWriter{deferred: deferred}
}

// WriteString appends literal markup.
func (w *ThunkWriter) WriteString(s string) {
	w.parts = append(w.parts, s)
}

// WriteValue appends a dynamic value. Lazy values (thunk.Any) are buffered
// in deferred mode — the paper's writeThunk — and forced otherwise.
func (w *ThunkWriter) WriteValue(v any) {
	w.rendered++
	if t, ok := v.(thunk.Any); ok {
		if w.deferred {
			w.parts = append(w.parts, t)
			w.buffered++
			return
		}
		v = t.ForceAny()
	}
	var sb strings.Builder
	appendValue(&sb, v)
	w.parts = append(w.parts, sb.String())
}

// Rendered reports how many dynamic values were written.
func (w *ThunkWriter) Rendered() int { return w.rendered }

// Buffered reports how many thunks were buffered unforced.
func (w *ThunkWriter) Buffered() int { return w.buffered }

// Flush forces every buffered thunk (triggering query-store flushes as
// needed) and returns the rendered page. Force-time panics from lazy
// errors are converted to an error return that keeps the panicking error's
// chain, so errors.Is sees through it.
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
	var sb strings.Builder
	for _, p := range w.parts {
		switch x := p.(type) {
		case string:
			sb.WriteString(x)
		case thunk.Any:
			appendValue(&sb, x.ForceAny())
		}
	}
	return sb.String(), nil
}

// appendValue formats a forced value onto the page. Slices render as
// comma-joined items so entity lists produce size-proportional output, and
// pointers render their referent: page bytes must be a pure function of the
// data (never of allocation addresses), which is what lets the golden
// equality tests compare optimized and unoptimized executions byte for
// byte. The bytes are fmt's %v of the data; what pages are made of — int64,
// string, float64, bool and structs of those, behind any depth of pointers
// and slices — is written with strconv, the rest is handed to fmt.
func appendValue(sb *strings.Builder, v any) {
	if v != nil {
		appendReflected(sb, reflect.ValueOf(v))
	}
}

var (
	stringSliceType = reflect.TypeOf([]string(nil))
	stringerType    = reflect.TypeOf((*fmt.Stringer)(nil)).Elem()
)

// appendReflected renders rv. The walk never descends through a struct
// field, so Interface is allowed on rv wherever it is needed: for a String
// method and for what is left to fmt.
func appendReflected(sb *strings.Builder, rv reflect.Value) {
	if rv.Kind() == reflect.Interface { // an element of a []any or the like
		if rv.IsNil() {
			return
		}
		rv = rv.Elem()
	}
	switch t := rv.Type(); {
	case t == stringSliceType: // joined bare, without the brackets of other slices
		for i := 0; i < rv.Len(); i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(rv.Index(i).String())
		}
	case t.Implements(stringerType):
		sb.WriteString(rv.Interface().(fmt.Stringer).String())
	case rv.Kind() == reflect.Pointer:
		if !rv.IsNil() {
			appendReflected(sb, rv.Elem())
		}
	case rv.Kind() == reflect.Slice:
		sb.WriteByte('[')
		for i := 0; i < rv.Len(); i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			appendReflected(sb, rv.Index(i))
		}
		sb.WriteByte(']')
	case plain(rv):
		appendPlain(sb, rv)
	case plainStruct(rv):
		sb.WriteByte('{')
		for i := 0; i < rv.NumField(); i++ {
			if i > 0 {
				sb.WriteByte(' ')
			}
			appendPlain(sb, rv.Field(i))
		}
		sb.WriteByte('}')
	default:
		sb.WriteString(fmt.Sprint(rv.Interface()))
	}
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
func appendPlain(sb *strings.Builder, rv reflect.Value) {
	var buf [32]byte
	switch rv.Kind() {
	case reflect.Int64:
		sb.Write(strconv.AppendInt(buf[:0], rv.Int(), 10))
	case reflect.String:
		sb.WriteString(rv.String())
	case reflect.Float64:
		sb.Write(strconv.AppendFloat(buf[:0], rv.Float(), 'g', -1, 64))
	case reflect.Bool:
		sb.Write(strconv.AppendBool(buf[:0], rv.Bool()))
	}
}
