// Package counters is the atomicfield fixture: a value updated atomically
// is a typed atomic, so sync/atomic's functions are findings and the typed
// atomics are not.
package counters

import "sync/atomic"

type Stats struct {
	hits  int64
	flags uint32
}

// One finding per function family.
func (s *Stats) Families() {
	atomic.AddInt64(&s.hits, 1)                   // want "atomic.AddInt64 takes the address of a plain value"
	_ = atomic.LoadInt64(&s.hits)                 // want "atomic.LoadInt64 takes the address of a plain value"
	atomic.StoreInt64(&s.hits, 0)                 // want "atomic.StoreInt64 takes the address of a plain value"
	_ = atomic.SwapInt64(&s.hits, 1)              // want "atomic.SwapInt64 takes the address of a plain value"
	_ = atomic.CompareAndSwapInt64(&s.hits, 1, 2) // want "atomic.CompareAndSwapInt64 takes the address of a plain value"
	_ = atomic.AndUint32(&s.flags, 1)             // want "atomic.AndUint32 takes the address of a plain value"
	_ = atomic.OrUint32(&s.flags, 2)              // want "atomic.OrUint32 takes the address of a plain value"
	_ = atomic.LoadPointer(nil)                   // want "atomic.LoadPointer takes the address of a plain value"
}

// References are banned, not just calls.
var BadRef = atomic.AddUint64 // want "atomic.AddUint64 takes the address of a plain value"

// Typed holds the typed atomics: every access goes through a method, so no
// findings here.
type Typed struct {
	hits atomic.Int64
	cfg  atomic.Value
	last atomic.Pointer[int64]
}

func (t *Typed) Use(p *int64) int64 {
	t.hits.Add(1)
	t.cfg.Store("on")
	t.last.Store(p)
	if t.hits.CompareAndSwap(1, 2) {
		t.last.Swap(nil)
	}
	_ = t.cfg.Load()
	return t.hits.Load()
}

// Allowed is a sanctioned call with a recorded reason.
func (s *Stats) Allowed() int64 {
	//slothvet:allow atomicfield(fixture: a sanctioned call with a reason)
	return atomic.LoadInt64(&s.hits)
}

// MissingReason: the reasonless annotation is itself a finding and does not
// suppress the call it sits above.
func (s *Stats) MissingReason() int64 {
	//slothvet:allow atomicfield()
	// wantprev "without a reason"
	return atomic.LoadInt64(&s.hits) // want "atomic.LoadInt64 takes the address of a plain value"
}
