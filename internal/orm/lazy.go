// Package orm is the reproduction's Hibernate/JPA stand-in: reflection-based
// entity mapping over the SQL driver, sessions with an identity map (first-
// level cache), associations with lazy and eager fetch strategies (paper
// Sec. 1), and the Sloth JPA extensions — entity-returning calls that hand
// back thunks registered with the query store instead of executing
// immediately (paper Sec. 5, "JPA Extensions").
//
// Application code is written once against the lazy API. Under
// ModeOriginal every call executes immediately in its own round trip
// (conventional ORM behaviour, including eager-fetch cascades); under
// ModeSloth calls register queries with the session's query store and
// return unforced thunks, so queries accumulate into batches.
package orm

import "repro/internal/thunk"

// res carries a deferred value together with its deferred error.
type res[T any] struct {
	val T
	err error
}

// Lazy is a lazily-produced value of type T. In ModeOriginal the value is
// already computed; in ModeSloth forcing it may flush a query batch. Lazy
// implements thunk.Any so it can flow through model maps and the thunk-
// aware view writer without being evaluated. It is one pointer, so putting
// it in a model map or a []any stores that pointer and allocates nothing.
//
// A ModeSloth load's lazy is its cell plus the thunk's closure, and the
// closure captures only what forcing needs: the mapping, the session and
// the QueryID Register returned (and, for Find, the key) — never the
// registration's text, arguments or a result slot. A registration that
// fails yields an already-computed lazy carrying the error.
type Lazy[T any] struct{ c *lazyCell[T] }

// lazyCell is a lazy's one allocation: its thunk and, beside it, sink — the
// session's thunk-allocation counter. Derived lazies (Map) inherit sink so
// every allocation is attributed to the session whose request created it.
// The process-global thunk counter cannot give a page load its own count
// when sessions run concurrently.
type lazyCell[T any] struct {
	thunk.Thunk[res[T]]
	sink *int64
}

// lazyWith wraps a computation, attributing the allocation to sink. fn is
// the thunk's own function: a lazy costs its closure and its cell.
func lazyWith[T any](sink *int64, fn func() res[T]) Lazy[T] {
	if sink != nil {
		*sink++
	}
	return Lazy[T]{&lazyCell[T]{Thunk: thunk.Make(fn), sink: sink}}
}

// lazyOf wraps a computation for session s.
func lazyOf[T any](s *Session, fn func() res[T]) Lazy[T] {
	return lazyWith(&s.stats.ThunkAllocs, fn)
}

// lazyDone wraps an already-computed value (the ModeOriginal case,
// mirroring the paper's LiteralThunk).
func lazyDone[T any](s *Session, r res[T]) Lazy[T] {
	s.stats.ThunkAllocs++
	return Lazy[T]{&lazyCell[T]{Thunk: thunk.MakeLit(r), sink: &s.stats.ThunkAllocs}}
}

// Get forces the value.
func (l Lazy[T]) Get() (T, error) {
	r := l.c.Force()
	return r.val, r.err
}

// Must forces the value, panicking on error; for fixtures and views whose
// queries are statically known to be valid.
func (l Lazy[T]) Must() T {
	r := l.c.Force()
	if r.err != nil {
		panic(r.err)
	}
	return r.val
}

// ForceAny implements thunk.Any. Errors surface as panics at the force
// point, which the web framework converts into a rendering error.
func (l Lazy[T]) ForceAny() any { return l.Must() }

// Map derives a lazy value from l without forcing it. The derived value is
// attributed to the same session as l.
func Map[T, U any](l Lazy[T], f func(T) U) Lazy[U] {
	return lazyWith(l.c.sink, func() res[U] {
		v, err := l.Get()
		if err != nil {
			return res[U]{err: err}
		}
		return res[U]{val: f(v)}
	})
}
