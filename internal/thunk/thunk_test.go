package thunk

import (
	"testing"
	"testing/quick"
)

func TestNewDefersExecution(t *testing.T) {
	ran := false
	th := New(func() int { ran = true; return 42 })
	if ran {
		t.Fatal("computation ran before Force")
	}
	if got := th.Force(); got != 42 {
		t.Fatalf("Force() = %d, want 42", got)
	}
	if !ran {
		t.Fatal("computation did not run on Force")
	}
}

func TestForceMemoizes(t *testing.T) {
	calls := 0
	th := New(func() int { calls++; return calls })
	if th.Force() != 1 || th.Force() != 1 || th.Force() != 1 {
		t.Fatal("memoized value changed across forces")
	}
	if calls != 1 {
		t.Fatalf("computation ran %d times, want 1", calls)
	}
}

func TestLit(t *testing.T) {
	th := Lit("hello")
	if !th.Forced() {
		t.Fatal("Lit thunk should be pre-forced")
	}
	if th.Force() != "hello" {
		t.Fatalf("Force() = %q, want hello", th.Force())
	}
}

func TestForcedFlag(t *testing.T) {
	th := New(func() int { return 1 })
	if th.Forced() {
		t.Fatal("Forced() true before Force")
	}
	th.Force()
	if !th.Forced() {
		t.Fatal("Forced() false after Force")
	}
}

func TestMapIsLazy(t *testing.T) {
	baseRan, mapRan := false, false
	base := New(func() int { baseRan = true; return 10 })
	mapped := Map(base, func(v int) int { mapRan = true; return v * 2 })
	if baseRan || mapRan {
		t.Fatal("Map forced something eagerly")
	}
	if got := mapped.Force(); got != 20 {
		t.Fatalf("mapped.Force() = %d, want 20", got)
	}
	if !baseRan || !mapRan {
		t.Fatal("Map did not run both computations on force")
	}
}

func TestForceAnyThroughInterface(t *testing.T) {
	var v Any = New(func() int { return 7 })
	if got := v.ForceAny(); got != any(7) {
		t.Fatalf("ForceAny = %v, want 7", got)
	}
}

func TestForceHelper(t *testing.T) {
	if got := Force(5); got != 5 {
		t.Fatalf("Force(plain) = %v, want 5", got)
	}
	if got := Force(Lit(6)); got != any(6) {
		t.Fatalf("Force(thunk) = %v, want 6", got)
	}
}

func TestIsThunk(t *testing.T) {
	if IsThunk(3) {
		t.Fatal("IsThunk(3) = true")
	}
	if !IsThunk(Lit(3)) {
		t.Fatal("IsThunk(Lit(3)) = false")
	}
}

func TestStatsCounters(t *testing.T) {
	s := GlobalStats()
	allocs, forces, hits := s.Allocs(), s.Forces(), s.MemoHits()
	th := New(func() int { return 1 })
	_ = Lit(2)
	th.Force()
	th.Force()
	if got := s.Allocs() - allocs; got != 2 {
		t.Errorf("Allocs delta = %d, want 2", got)
	}
	if got := s.Forces() - forces; got != 2 {
		t.Errorf("Forces delta = %d, want 2", got)
	}
	if got := s.MemoHits() - hits; got != 1 {
		t.Errorf("MemoHits delta = %d, want 1", got)
	}
}

// Property: for any value, Lit then Force is the identity.
func TestQuickLitRoundTrip(t *testing.T) {
	f := func(v int64) bool { return Lit(v).Force() == v }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Map composes — Map(f) then Map(g) equals Map(g∘f).
func TestQuickMapCompose(t *testing.T) {
	f := func(v int32, a, b int32) bool {
		add := func(x int32) int32 { return x + a }
		mul := func(x int32) int32 { return x * b }
		lhs := Map(Map(Lit(v), add), mul).Force()
		rhs := Map(Lit(v), func(x int32) int32 { return mul(add(x)) }).Force()
		return lhs == rhs
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: forcing is idempotent — repeated forces yield identical values.
func TestQuickForceIdempotent(t *testing.T) {
	f := func(v uint16, reps uint8) bool {
		calls := 0
		th := New(func() uint16 { calls++; return v })
		n := int(reps%8) + 1
		for i := 0; i < n; i++ {
			if th.Force() != v {
				return false
			}
		}
		return calls == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkForceMemoized(b *testing.B) {
	th := Lit(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = th.Force()
	}
}

func BenchmarkNewAndForce(b *testing.B) {
	for i := 0; i < b.N; i++ {
		th := New(func() int { return i })
		_ = th.Force()
	}
}
