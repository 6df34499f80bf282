// Package thunk implements the extended-lazy-evaluation value runtime at
// the heart of Sloth (Sec. 3 of the paper). A Thunk is a memoizing
// place-holder for a delayed computation: evaluation of a statement builds a
// thunk rather than executing it, and the computation runs only when the
// thunk is forced. Query-backed thunks additionally register their SQL with
// a query store at *creation* time so that many queries accumulate into one
// batch before any of them is forced — the paper's third class of
// computation beyond "delayable" and "eager".
//
// The package also provides LiteralThunk wrappers for already-computed
// values (used at external-call boundaries) and runtime counters used by
// the overhead experiments. The thunk blocks of Sec. 4 (thunk coalescing,
// branch deferral) belong to the kernel-language compiler: see
// internal/lazyc.
package thunk

import "sync/atomic"

// Stats holds runtime counters for lazy evaluation. The paper's overhead
// experiments (Sec. 6.6) and the thunk-coalescing optimization (Sec. 4.3)
// are quantified in terms of thunk allocations and forces.
type Stats struct {
	allocs atomic.Int64
	forces atomic.Int64
	hits   atomic.Int64 // forces satisfied by memoized values
}

// globalStats collects counters across all thunks in the process. Counters
// are atomic so concurrent page loads may share them.
var globalStats Stats

// Allocs reports the number of thunks allocated. Counters only grow:
// callers measure an interval as a before/after delta.
func (s *Stats) Allocs() int64 { return s.allocs.Load() }

// Forces reports the number of Force calls.
func (s *Stats) Forces() int64 { return s.forces.Load() }

// MemoHits reports how many Force calls returned a memoized value.
func (s *Stats) MemoHits() int64 { return s.hits.Load() }

// GlobalStats returns the process-wide thunk counters.
func GlobalStats() *Stats { return &globalStats }

// Any is the untyped view of a thunk. Containers that hold thunks of mixed
// element types (such as the web framework's model map and the ThunkWriter
// output buffer) operate through Any.
type Any interface {
	// ForceAny evaluates the delayed computation (once) and returns its
	// result as an untyped value.
	ForceAny() any
}

// Thunk is a memoizing delayed computation producing a T. The zero value is
// not useful; construct thunks with New, Lit, or the combinators.
//
// Thunks are not safe for concurrent forcing: the paper's execution model is
// one request thread evaluating its own lazy program, and avoiding
// synchronization keeps the overhead honest for the Sec. 6.6 measurements.
type Thunk[T any] struct {
	fn   func() T
	val  T
	done bool
}

// New creates a thunk whose value is computed by fn on first force.
func New[T any](fn func() T) *Thunk[T] {
	t := Make(fn)
	return &t
}

// Lit wraps an already-computed value in a thunk. This mirrors the paper's
// LiteralThunk, used to re-inject results of eagerly executed external calls
// into the lazy world (Sec. 3.4).
func Lit[T any](v T) *Thunk[T] {
	t := MakeLit(v)
	return &t
}

// Make is New by value, for a thunk embedded in a larger object that is
// allocated once (the ORM's lazy cell). It counts as an allocation like New;
// copy the result only before it is first forced.
func Make[T any](fn func() T) Thunk[T] {
	globalStats.allocs.Add(1)
	return Thunk[T]{fn: fn}
}

// MakeLit is Lit by value, under Make's rules.
func MakeLit[T any](v T) Thunk[T] {
	globalStats.allocs.Add(1)
	return Thunk[T]{val: v, done: true}
}

// Force evaluates the thunk, memoizing the result; subsequent calls return
// the memoized value without re-executing the computation (Sec. 3.2).
func (t *Thunk[T]) Force() T {
	globalStats.forces.Add(1)
	if t.done {
		globalStats.hits.Add(1)
		return t.val
	}
	t.val = t.fn()
	t.done = true
	t.fn = nil // release captured state once evaluated
	return t.val
}

// ForceAny implements Any.
func (t *Thunk[T]) ForceAny() any { return t.Force() }

// IsThunk reports whether v is a lazy value.
func IsThunk(v any) bool {
	_, ok := v.(Any)
	return ok
}
