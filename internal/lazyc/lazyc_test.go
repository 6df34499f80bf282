package lazyc

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/driver"
	"repro/internal/netsim"
	"repro/internal/querystore"
	"repro/internal/sqldb/engine"
)

// rig builds a fresh database with the test table and returns a connection
// plus its link.
func rig(t testing.TB, rtt time.Duration) (*driver.Conn, *netsim.Link) {
	t.Helper()
	clock := netsim.NewVirtualClock()
	db := engine.New()
	s := db.NewSession()
	for _, sql := range []string{
		"CREATE TABLE t (id INT PRIMARY KEY, v INT, name TEXT)",
		"INSERT INTO t (id, v, name) VALUES (1, 10, 'a'), (2, 20, 'b'), (3, 30, 'c'), (4, 40, 'd'), (5, 50, 'e')",
	} {
		if _, err := s.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	srv := driver.NewServer(db, clock, driver.DefaultCostModel())
	link := netsim.NewLink(clock, rtt)
	return srv.Connect(link), link
}

// runStd executes src under standard semantics.
func runStd(t testing.TB, src string) (*StdInterp, *netsim.Link) {
	t.Helper()
	prog, err := ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	Simplify(prog)
	conn, link := rig(t, time.Millisecond)
	in := NewStd(prog, conn)
	if err := in.Run(); err != nil {
		t.Fatalf("std run: %v", err)
	}
	return in, link
}

// runLazy executes src under extended lazy semantics with the options.
func runLazy(t testing.TB, src string, opts Options) (*LazyInterp, *netsim.Link, *querystore.Store) {
	t.Helper()
	prog, err := ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	Simplify(prog)
	conn, link := rig(t, time.Millisecond)
	store := querystore.New(conn, querystore.Config{})
	in := NewLazy(prog, store, opts, nil, CostModel{})
	if err := in.Run(); err != nil {
		t.Fatalf("lazy run: %v", err)
	}
	return in, link, store
}

const basicProgram = `
fn main() {
  let x = 3 + 4;
  print(x * 2);
}
`

func TestParseAndRunBasic(t *testing.T) {
	in, _ := runStd(t, basicProgram)
	if in.Output() != "14\n" {
		t.Fatalf("output = %q", in.Output())
	}
}

func TestLazyBasicSameOutput(t *testing.T) {
	for _, opts := range []Options{{}, AllOptimizations()} {
		in, _, _ := runLazy(t, basicProgram, opts)
		if in.Output() != "14\n" {
			t.Fatalf("opts %+v: output = %q", opts, in.Output())
		}
	}
}

const queryProgram = `
fn main() {
  let rs = R("SELECT v FROM t WHERE id = 2");
  let w = R("SELECT v FROM t WHERE id = 3");
  let a = col(row(rs, 0), "v");
  let b = col(row(w, 0), "v");
  print(a + b);
}
`

func TestStdQueriesOneTripEach(t *testing.T) {
	in, link := runStd(t, queryProgram)
	if in.Output() != "50\n" {
		t.Fatalf("output = %q", in.Output())
	}
	if link.Stats().RoundTrips != 2 {
		t.Fatalf("round trips = %d, want 2", link.Stats().RoundTrips)
	}
}

func TestLazyQueriesBatchIntoOneTrip(t *testing.T) {
	in, link, store := runLazy(t, queryProgram, Options{})
	if in.Output() != "50\n" {
		t.Fatalf("output = %q", in.Output())
	}
	// Both R() register before either is forced: one batch, one trip.
	if link.Stats().RoundTrips != 1 {
		t.Fatalf("round trips = %d, want 1", link.Stats().RoundTrips)
	}
	if store.Stats().MaxBatch != 2 {
		t.Fatalf("max batch = %d, want 2", store.Stats().MaxBatch)
	}
}

const branchQueryProgram = `
fn main() {
  let q1 = R("SELECT v FROM t WHERE id = 1");
  let q2 = R("SELECT v FROM t WHERE id = 2");
  let q3 = R("SELECT v FROM t WHERE id = 4");
  let sum = col(row(q1, 0), "v") + col(row(q2, 0), "v") + col(row(q3, 0), "v");
  print(sum);
}
`

func TestLazyBatchesAcrossStatements(t *testing.T) {
	in, link, store := runLazy(t, branchQueryProgram, Options{})
	if in.Output() != "70\n" {
		t.Fatalf("output = %q", in.Output())
	}
	if link.Stats().RoundTrips != 1 || store.Stats().MaxBatch != 3 {
		t.Fatalf("trips = %d, batch = %d", link.Stats().RoundTrips, store.Stats().MaxBatch)
	}
}

const writeProgram = `
fn main() {
  let before = R("SELECT v FROM t WHERE id = 1");
  W("UPDATE t SET v = 99 WHERE id = 1");
  let after = R("SELECT v FROM t WHERE id = 1");
  print(col(row(before, 0), "v"));
  print(col(row(after, 0), "v"));
}
`

func TestWritePreservesOrder(t *testing.T) {
	for _, opts := range []Options{{}, AllOptimizations()} {
		in, _, _ := runLazy(t, writeProgram, opts)
		if in.Output() != "10\n99\n" {
			t.Fatalf("opts %+v: output = %q (write/read order broken)", opts, in.Output())
		}
	}
	std, _ := runStd(t, writeProgram)
	if std.Output() != "10\n99\n" {
		t.Fatalf("std output = %q", std.Output())
	}
}

const loopProgram = `
fn main() {
  let rs = R("SELECT id, v FROM t ORDER BY id");
  let i = 0;
  let total = 0;
  while (i < len(rs)) {
    total = total + col(row(rs, i), "v");
    i = i + 1;
  }
  print(total);
}
`

func TestLoopOverResults(t *testing.T) {
	std, _ := runStd(t, loopProgram)
	if std.Output() != "150\n" {
		t.Fatalf("std output = %q", std.Output())
	}
	lazy, _, _ := runLazy(t, loopProgram, AllOptimizations())
	if lazy.Output() != "150\n" {
		t.Fatalf("lazy output = %q", lazy.Output())
	}
}

const recordProgram = `
fn main() {
  let o = {f: 1, g: 2};
  o.f = o.g + 10;
  let arr = [o.f, o.g, 7];
  arr[2] = arr[0] + arr[1];
  print(o.f);
  print(arr[2]);
}
`

func TestHeapOperations(t *testing.T) {
	std, _ := runStd(t, recordProgram)
	want := "12\n14\n"
	if std.Output() != want {
		t.Fatalf("std output = %q, want %q", std.Output(), want)
	}
	for _, opts := range []Options{{}, {TC: true}, {BD: true}, AllOptimizations()} {
		lazy, _, _ := runLazy(t, recordProgram, opts)
		if lazy.Output() != want {
			t.Fatalf("opts %+v: lazy output = %q, want %q", opts, lazy.Output(), want)
		}
	}
}

const functionProgram = `
fn double(x) { return x * 2; }
fn fetch(id) { return R("SELECT v FROM t WHERE id = " + str(id)); }
fn log(x) { print(x); return x; }
fn main() {
  let a = double(21);
  let rs = fetch(2);
  let b = col(row(rs, 0), "v");
  let c = log(5);
  print(a + b + c);
}
`

func TestFunctionKinds(t *testing.T) {
	std, _ := runStd(t, functionProgram)
	want := "5\n67\n"
	if std.Output() != want {
		t.Fatalf("std output = %q", std.Output())
	}
	for _, opts := range []Options{{}, {SC: true}, AllOptimizations()} {
		lazy, _, _ := runLazy(t, functionProgram, opts)
		if lazy.Output() != want {
			t.Fatalf("opts %+v: output = %q, want %q", opts, lazy.Output(), want)
		}
	}
}

func TestPersistenceAnalysis(t *testing.T) {
	prog := MustParse(functionProgram)
	Simplify(prog)
	a := Analyze(prog)
	if a.Persistent["double"] {
		t.Error("double labeled persistent")
	}
	if !a.Persistent["fetch"] {
		t.Error("fetch not labeled persistent")
	}
	if !a.Persistent["main"] {
		t.Error("main not labeled persistent (calls fetch)")
	}
	if !a.Pure["double"] || !a.Pure["fetch"] {
		t.Error("pure labeling wrong for double/fetch")
	}
	if a.Pure["log"] {
		t.Error("log (prints) labeled pure")
	}
}

func TestTransitivePersistence(t *testing.T) {
	prog := MustParse(`
fn level3() { return R("SELECT v FROM t WHERE id = 1"); }
fn level2() { return level3(); }
fn level1() { return level2(); }
fn clean(x) { return x + 1; }
fn main() { print(clean(2)); let r = level1(); print(len(r)); }
`)
	Simplify(prog)
	a := Analyze(prog)
	for _, fn := range []string{"level1", "level2", "level3", "main"} {
		if !a.Persistent[fn] {
			t.Errorf("%s not persistent", fn)
		}
	}
	if a.Persistent["clean"] {
		t.Error("clean wrongly persistent")
	}
}

const deferrableBranchProgram = `
fn main() {
  let q = R("SELECT v FROM t WHERE id = 5");
  let c = 7;
  let a = 0;
  if (c > 3) { a = 1; } else { a = 2; }
  let q2 = R("SELECT v FROM t WHERE id = 4");
  print(col(row(q, 0), "v") + col(row(q2, 0), "v") + a);
}
`

func TestBranchDeferralIncreasesBatching(t *testing.T) {
	// Without BD the if forces c (no queries involved here, but the
	// structure matches Sec. 4.2's example); with BD the branch defers and
	// both queries land in one batch either way. Check BD defers: block
	// stats and identical output.
	inNoBD, _, storeNoBD := runLazy(t, deferrableBranchProgram, Options{})
	inBD, _, storeBD := runLazy(t, deferrableBranchProgram, Options{BD: true})
	if inNoBD.Output() != inBD.Output() {
		t.Fatalf("outputs differ: %q vs %q", inNoBD.Output(), inBD.Output())
	}
	if inBD.Stats().Blocks == 0 {
		t.Fatal("BD created no blocks")
	}
	if storeBD.Stats().MaxBatch < storeNoBD.Stats().MaxBatch {
		t.Fatalf("BD reduced batching: %d < %d", storeBD.Stats().MaxBatch, storeNoBD.Stats().MaxBatch)
	}
}

// The paper's Sec. 4.2 scenario where BD genuinely saves a round trip: the
// branch condition derives from a query, and the branch outcome is only
// needed after later queries are registered.
const bdRoundTripProgram = `
fn main() {
  let q1 = R("SELECT v FROM t WHERE id = 1");
  let c = col(row(q1, 0), "v");
  let a = 0;
  if (c > 3) { a = 1; } else { a = 2; }
  let q2 = R("SELECT v FROM t WHERE id = 2");
  print(col(row(q2, 0), "v") + a);
}
`

func TestBranchDeferralSavesRoundTrip(t *testing.T) {
	_, linkNoBD, _ := runLazy(t, bdRoundTripProgram, Options{})
	_, linkBD, _ := runLazy(t, bdRoundTripProgram, Options{BD: true})
	if linkBD.Stats().RoundTrips >= linkNoBD.Stats().RoundTrips {
		t.Fatalf("BD trips %d >= no-BD trips %d", linkBD.Stats().RoundTrips, linkNoBD.Stats().RoundTrips)
	}
	inNo, _, _ := runLazy(t, bdRoundTripProgram, Options{})
	inBD, _, _ := runLazy(t, bdRoundTripProgram, Options{BD: true})
	if inNo.Output() != inBD.Output() {
		t.Fatalf("outputs differ: %q vs %q", inNo.Output(), inBD.Output())
	}
}

const coalesceProgram = `
fn main() {
  let a = 1;
  let b = a + 2;
  let c = b + 3;
  let d = c + 4;
  print(d);
}
`

func TestThunkCoalescingReducesAllocations(t *testing.T) {
	inNoTC, _, _ := runLazy(t, coalesceProgram, Options{})
	inTC, _, _ := runLazy(t, coalesceProgram, Options{TC: true})
	if inNoTC.Output() != "10\n" || inTC.Output() != "10\n" {
		t.Fatalf("outputs: %q / %q", inNoTC.Output(), inTC.Output())
	}
	if inTC.Stats().ThunkAllocs >= inNoTC.Stats().ThunkAllocs {
		t.Fatalf("TC allocs %d >= no-TC allocs %d", inTC.Stats().ThunkAllocs, inNoTC.Stats().ThunkAllocs)
	}
}

func TestCoalesceRunAnalysis(t *testing.T) {
	prog := MustParse(coalesceProgram)
	Simplify(prog)
	a := Analyze(prog)
	found := false
	for _, info := range a.RunStart {
		found = true
		if info.Len != 4 {
			t.Errorf("run length = %d, want 4", info.Len)
		}
		// Only d is used after the run (by print): a, b, c are dead.
		if len(info.Outputs) != 1 || info.Outputs[0] != "d" {
			t.Errorf("run outputs = %v, want [d]", info.Outputs)
		}
	}
	if !found {
		t.Fatal("no coalescible run found")
	}
}

// && and || make no thunk, so a run of them saves nothing to coalesce: as
// a block it would cost a block thunk and an output thunk.
func TestCoalesceSkipsShortCircuitRuns(t *testing.T) {
	prog := MustParse(`fn main() { let t = true; let f = false; let a = (t && f) || (t || f); let b = a; print(a); }`)
	Simplify(prog)
	if runs := Analyze(prog).RunStart; len(runs) != 0 {
		t.Fatalf("%d coalesced runs, want none", len(runs))
	}
}

func TestSelectiveCompilationReducesAllocations(t *testing.T) {
	src := `
fn munge(x) { let a = x + 1; let b = a * 2; let c = b - x; return c; }
fn main() {
  let t1 = munge(1);
  let t2 = munge(t1);
  let t3 = munge(t2);
  print(t3);
  let q = R("SELECT v FROM t WHERE id = 1");
  print(len(q));
}
`
	inNoSC, _, _ := runLazy(t, src, Options{})
	inSC, _, _ := runLazy(t, src, Options{SC: true})
	if inNoSC.Output() != inSC.Output() {
		t.Fatalf("outputs differ: %q vs %q", inNoSC.Output(), inSC.Output())
	}
	if inSC.Stats().ThunkAllocs >= inNoSC.Stats().ThunkAllocs {
		t.Fatalf("SC allocs %d >= no-SC %d", inSC.Stats().ThunkAllocs, inNoSC.Stats().ThunkAllocs)
	}
	if inSC.Stats().StrictFuncs == 0 {
		t.Fatal("SC executed no functions strictly")
	}
}

func TestSimplifyCanonicalizesLoops(t *testing.T) {
	prog := MustParse(`fn main() { let i = 0; while (i < 3) { i = i + 1; } print(i); }`)
	Simplify(prog)
	main := prog.Funcs["main"]
	w, ok := main.Body[1].(*While)
	if !ok {
		t.Fatalf("statement 1 = %T, want *While", main.Body[1])
	}
	if w.Cond != nil {
		t.Fatal("loop condition not canonicalized to while(true)")
	}
	iff, ok := w.Body[0].(*If)
	if !ok || len(iff.Else) != 1 {
		t.Fatalf("loop body not rewritten to if/else+break: %T", w.Body[0])
	}
	if _, ok := iff.Else[0].(*Break); !ok {
		t.Fatal("else branch is not break")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"fn main() {",
		"fn main() { let = 3; }",
		"fn main() { 3 = x; }",
		"fn f() {} fn f() {}",
		"fn notmain() { skip; }",
		"fn main() { R(1)(2); }",
		"fn main() { len(1, 2); }",
	}
	for _, src := range bad {
		if _, err := ParseProgram(src); err == nil {
			t.Errorf("ParseProgram(%q) succeeded", src)
		}
	}
}

// ladder is the Fig. 12 progression of optimization sets.
var ladder = []Options{{}, {SC: true}, {SC: true, TC: true}, AllOptimizations()}

// Programs the interpreters once disagreed on or crashed on: too few and
// too many arguments (the SC path panicked or dropped one), and recursion
// with no base case (a fatal Go stack overflow).
const (
	arityFewProgram  = `fn f(a, b) { return a; } fn main() { print(f(1)); }`
	arityManyProgram = `fn f(a) { return a; } fn main() { print(f(1, 2)); }`
	recursionProgram = `fn f(n) { return f(n + 1); } fn main() { print(f(0)); }`
)

// controlPrograms are control flow the lazy interpreter once got wrong:
// a right operand of && / || that the left decides must not run (the call
// prints; the index is out of range), and a break or continue in an if
// inside a loop must not be deferred away by branch deferral.
var controlPrograms = []struct{ name, src, want string }{
	{"or skips its right operand", `fn g() { print(7); return true; } fn main() { print(true || g()); }`, "true\n"},
	{"and skips its right operand", `fn g() { print(7); return true; } fn main() { print(false && g()); }`, "false\n"},
	{"and skips an index out of range", `fn main() { let a = [1]; print(false && a[5] > 0); }`, "false\n"},
	{"break in a branch", `fn main() { let i = 0; while (i < 10) { if (i > 3) { break; } print(i); i = i + 1; } }`, "0\n1\n2\n3\n"},
	{"continue in a branch", `fn main() { let i = 0; while (i < 6) { i = i + 1; if (i == 3) { continue; } print(i); } }`, "1\n2\n4\n5\n6\n"},
}

func TestControlFlowMatchesStd(t *testing.T) {
	for _, c := range controlPrograms {
		t.Run(c.name, func(t *testing.T) {
			std, _ := runStd(t, c.src)
			if std.Output() != c.want {
				t.Fatalf("standard run printed %q, want %q", std.Output(), c.want)
			}
			for _, opts := range ladder {
				prog := MustParse(c.src)
				Simplify(prog)
				conn, _ := rig(t, 0)
				lazy := NewLazy(prog, querystore.New(conn, querystore.Config{}), opts, nil, CostModel{})
				if err := lazy.Run(); err != nil || lazy.Output() != c.want {
					t.Errorf("opts %+v: lazy run printed %q, %v; want %q", opts, lazy.Output(), err, c.want)
				}
			}
		})
	}
}

func TestRuntimeErrors(t *testing.T) {
	bad := []string{
		`fn main() { print(nope); }`,
		`fn main() { x = 1; }`,
		`fn main() { let a = [1]; print(a[5]); }`,
		`fn main() { let r = R(42); print(len(r)); }`,
		`fn main() { let r = R("NOT SQL"); print(len(r)); }`,
		`fn main() { print(1 + "x"); }`,
		`fn main() { print(missingfn(1)); }`,
		arityFewProgram,
		arityManyProgram,
	}
	for _, src := range bad {
		prog, err := ParseProgram(src)
		if err != nil {
			continue
		}
		Simplify(prog)
		conn, _ := rig(t, 0)
		if err := NewStd(prog, conn).Run(); err == nil {
			t.Errorf("std Run(%q) succeeded", src)
		}
		for _, opts := range ladder {
			conn2, _ := rig(t, 0)
			store := querystore.New(conn2, querystore.Config{})
			lazyIn := NewLazy(prog, store, opts, nil, CostModel{})
			if err := lazyIn.Run(); err == nil {
				// Laziness may swallow errors whose results are never used —
				// but these programs print, forcing everything.
				t.Errorf("opts %+v: lazy Run(%q) succeeded", opts, src)
			}
		}
	}
}

func TestInfiniteLoopGuard(t *testing.T) {
	prog := MustParse(`fn main() { while (true) { skip; } }`)
	Simplify(prog)
	conn, _ := rig(t, 0)
	if err := NewStd(prog, conn).Run(); err == nil {
		t.Fatal("infinite loop not caught by step budget")
	}
}

// Unbounded recursion ends as an error, never as Go's fatal stack overflow:
// wherever calls nest (standard semantics, SC'd strict calls) the depth guard
// in bind trips long before the default step budget.
func TestRecursionGuard(t *testing.T) {
	prog := MustParse(recursionProgram)
	Simplify(prog)
	conn, _ := rig(t, 0)
	if err := NewStd(prog, conn).Run(); err == nil || !strings.Contains(err.Error(), "call depth exceeded in f") {
		t.Fatalf("std: err = %v, want call depth exceeded", err)
	}
	for _, opts := range ladder {
		conn, _ := rig(t, 0)
		lazy := NewLazy(prog, querystore.New(conn, querystore.Config{}), opts, nil, CostModel{})
		if !opts.SC {
			// f is pure, so without SC each call defers and the recursion
			// becomes a force loop whose frames close before the next opens:
			// the step budget stops it. Exhausting the default budget would
			// only grow the Go stack to ~400 MB first; any budget shows it.
			lazy.maxSteps = 100_000
		}
		err := lazy.Run()
		if err == nil {
			t.Fatalf("opts %+v: unbounded recursion succeeded", opts)
		}
		if opts.SC && !strings.Contains(err.Error(), "call depth exceeded in f") {
			t.Fatalf("opts %+v: err = %v, want call depth exceeded", opts, err)
		}
	}
}

// ---------------------------------------------------------------------------
// Soundness: random programs agree between standard and lazy semantics
// under every optimization combination (the paper's equivalence theorem).

// genProgram emits a random but always-valid program exercising arithmetic,
// records, branches, loops, reads, writes, and pure function calls.
func genProgram(r *rand.Rand) string {
	var b strings.Builder
	b.WriteString("fn helper(a, b) { return a * 2 + b; }\n")
	b.WriteString("fn pick(a) { if (a > 10) { return a - 10; } return a; }\n")
	b.WriteString("fn main() {\n")
	vars := []string{}
	counter := 0
	// newVar declares a fresh int variable and adds it to the arith pool.
	newVar := func(init string) string {
		v := fmt.Sprintf("x%d", counter)
		counter++
		fmt.Fprintf(&b, "  let %s = %s;\n", v, init)
		vars = append(vars, v)
		return v
	}
	// newRawVar declares a fresh variable WITHOUT adding it to the pool
	// (result sets must not flow into arithmetic).
	newRawVar := func(init string) string {
		v := fmt.Sprintf("x%d", counter)
		counter++
		fmt.Fprintf(&b, "  let %s = %s;\n", v, init)
		return v
	}
	anyVar := func() string {
		if len(vars) == 0 {
			return newVar("1")
		}
		return vars[r.Intn(len(vars))]
	}
	arith := func() string {
		switch r.Intn(5) {
		case 0:
			return fmt.Sprintf("%d", r.Intn(50))
		case 1:
			return anyVar()
		case 2:
			return fmt.Sprintf("%s + %d", anyVar(), r.Intn(9))
		case 3:
			return fmt.Sprintf("%s * %d - %s", anyVar(), 1+r.Intn(3), anyVar())
		default:
			return fmt.Sprintf("helper(%s, %d)", anyVar(), r.Intn(7))
		}
	}
	newVar("5")
	nStmts := 6 + r.Intn(10)
	for i := 0; i < nStmts; i++ {
		switch r.Intn(8) {
		case 0, 1:
			newVar(arith())
		case 2:
			fmt.Fprintf(&b, "  %s = %s;\n", anyVar(), arith())
		case 3:
			id := 1 + r.Intn(5)
			rs := newRawVar(fmt.Sprintf("R(\"SELECT v FROM t WHERE id = %d\")", id))
			v := newVar("0")
			fmt.Fprintf(&b, "  if (len(%s) > 0) { %s = col(row(%s, 0), \"v\"); }\n", rs, v, rs)
		case 4:
			fmt.Fprintf(&b, "  W(\"UPDATE t SET v = v + %d WHERE id = %d\");\n", 1+r.Intn(5), 1+r.Intn(5))
		case 5:
			fmt.Fprintf(&b, "  if (%s > %d) { %s = %s; } else { %s = %s; }\n",
				anyVar(), r.Intn(30), anyVar(), arith(), anyVar(), arith())
		case 6:
			i := newVar("0")
			fmt.Fprintf(&b, "  while (%s < %d) { %s = %s + 1; %s = %s; }\n",
				i, 1+r.Intn(4), i, i, anyVar(), arith())
		case 7:
			fmt.Fprintf(&b, "  print(%s);\n", arith())
		}
	}
	fmt.Fprintf(&b, "  print(%s);\n", anyVar())
	b.WriteString("  print(col(row(R(\"SELECT SUM(v) AS s FROM t\"), 0), \"s\"));\n")
	b.WriteString("}\n")
	return b.String()
}

func TestQuickSoundness(t *testing.T) {
	optCombos := []Options{
		{},
		{SC: true},
		{TC: true},
		{BD: true},
		{SC: true, TC: true},
		AllOptimizations(),
	}
	for seed := int64(0); seed < 25; seed++ {
		src := genProgram(rand.New(rand.NewSource(seed)))
		prog, err := ParseProgram(src)
		if err != nil {
			t.Fatalf("seed %d: generated invalid program: %v\n%s", seed, err, src)
		}
		Simplify(prog)

		stdConn, _ := rig(t, 0)
		std := NewStd(prog, stdConn)
		if err := std.Run(); err != nil {
			t.Fatalf("seed %d: std: %v\n%s", seed, err, src)
		}
		wantOut := std.Output()
		wantDB := probeDB(t, stdConn)

		for _, opts := range optCombos {
			lazyConn, _ := rig(t, 0)
			store := querystore.New(lazyConn, querystore.Config{})
			lazy := NewLazy(prog, store, opts, nil, CostModel{})
			if err := lazy.Run(); err != nil {
				t.Fatalf("seed %d opts %+v: lazy: %v\n%s", seed, opts, err, src)
			}
			if err := lazy.ForceHeap(); err != nil {
				t.Fatalf("seed %d opts %+v: force heap: %v", seed, opts, err)
			}
			if got := lazy.Output(); got != wantOut {
				t.Fatalf("seed %d opts %+v: output mismatch\nstd:  %q\nlazy: %q\nprogram:\n%s", seed, opts, wantOut, got, src)
			}
			if got := probeDB(t, lazyConn); got != wantDB {
				t.Fatalf("seed %d opts %+v: db mismatch\nstd:  %q\nlazy: %q\nprogram:\n%s", seed, opts, wantDB, got, src)
			}
		}
	}
}

// probeDB renders the full contents of table t.
func probeDB(t testing.TB, conn *driver.Conn) string {
	t.Helper()
	rs, err := conn.Query("SELECT id, v, name FROM t ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	return rs.String()
}

// Lazy must never do MORE round trips than standard on read-heavy programs.
func TestLazyNeverMoreTrips(t *testing.T) {
	for seed := int64(100); seed < 110; seed++ {
		src := genProgram(rand.New(rand.NewSource(seed)))
		prog, err := ParseProgram(src)
		if err != nil {
			t.Fatal(err)
		}
		Simplify(prog)
		stdConn, stdLink := rig(t, 0)
		if err := NewStd(prog, stdConn).Run(); err != nil {
			t.Fatal(err)
		}
		lazyConn, lazyLink := rig(t, 0)
		store := querystore.New(lazyConn, querystore.Config{})
		if err := NewLazy(prog, store, AllOptimizations(), nil, CostModel{}).Run(); err != nil {
			t.Fatal(err)
		}
		if lazyLink.Stats().RoundTrips > stdLink.Stats().RoundTrips {
			t.Fatalf("seed %d: lazy trips %d > std trips %d", seed,
				lazyLink.Stats().RoundTrips, stdLink.Stats().RoundTrips)
		}
	}
}

// TestKernelOperators runs the unary operators, == / !=, and the && / ||
// whose right operand decides, over plain and thunked (query-result)
// operands: the lazy interpreter under every option set prints what the
// standard one prints, and fails wherever it fails.
func TestKernelOperators(t *testing.T) {
	const v2 = `let v = col(row(R("SELECT v FROM t WHERE id = 2"), 0), "v");`
	const n2 = `let n = col(row(R("SELECT name FROM t WHERE id = 2"), 0), "name");`
	cases := []struct {
		name, body, want string // want "" means the standard run fails
	}{
		{"negate and not", `let a = 3; let z = 0; print(-a); print(-(-a)); print(!a); print(!z); print(!null);`,
			"-3\n3\nfalse\ntrue\ntrue\n"},
		{"unary over thunks", v2 + ` print(-v); print(!v); print(!!v); print(-v + 1);`,
			"-20\nfalse\ntrue\n-19\n"},
		{"equality", `let a = 1; let s = "a"; let b = true; print(a == 1); print(a != 1); print(s == "a"); print(s != "b"); print(b == true); print(a == s); print(null == null); print(a == null);`,
			"true\nfalse\ntrue\ntrue\ntrue\nfalse\ntrue\nfalse\n"},
		{"equality over thunks", v2 + n2 + ` print(v == 20); print(v != 20); print(n == "b"); print(n != "b"); print(v == n);`,
			"true\nfalse\ntrue\nfalse\nfalse\n"},
		{"right operand decides", `let t = true; let f = false; let z = 0; print(t && z); print(t && 7); print(f || z); print(f || 5); print(z || null);`,
			"false\ntrue\nfalse\ntrue\nfalse\n"},
		{"right operand decides over thunks", v2 + ` let t = true; let z = 0; print(t && v); print(z || v); print(v && z); print(v > 100 || v);`,
			"true\ntrue\nfalse\ntrue\n"},
		{"negate a string", `let s = "s"; print(-s);`, ""},
		{"negate a bool", `let b = true; print(-b);`, ""},
		{"not a string", n2 + ` print(!n);`, ""},
		{"right operand not a condition", `let t = true; print(t && "s");`, ""},
		{"thunked right operand not a condition", n2 + ` let z = 0; print(z || n);`, ""},
	}
	var optionSets []Options
	for _, sc := range []bool{false, true} {
		for _, tc := range []bool{false, true} {
			for _, bd := range []bool{false, true} {
				optionSets = append(optionSets, Options{SC: sc, TC: tc, BD: bd})
			}
		}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			prog, err := ParseProgram("fn main() { " + c.body + " }")
			if err != nil {
				t.Fatal(err)
			}
			Simplify(prog)
			conn, _ := rig(t, 0)
			std := NewStd(prog, conn)
			stdErr := std.Run()
			if c.want == "" {
				if stdErr == nil {
					t.Fatalf("standard run succeeded, printing %q", std.Output())
				}
			} else if stdErr != nil || std.Output() != c.want {
				t.Fatalf("standard run: %q, %v; want %q", std.Output(), stdErr, c.want)
			}
			for _, opts := range optionSets {
				conn, _ := rig(t, 0)
				lazy := NewLazy(prog, querystore.New(conn, querystore.Config{}), opts, nil, CostModel{})
				lazyErr := lazy.Run()
				switch {
				case stdErr != nil && lazyErr == nil:
					t.Errorf("opts %+v: lazy run succeeded, printing %q; standard failed: %v", opts, lazy.Output(), stdErr)
				case stdErr == nil && (lazyErr != nil || lazy.Output() != std.Output()):
					t.Errorf("opts %+v: lazy run %q, %v; standard %q", opts, lazy.Output(), lazyErr, std.Output())
				}
			}
		})
	}
}
