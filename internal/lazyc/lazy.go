package lazyc

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/netsim"
	"repro/internal/querystore"
	"repro/internal/sqldb"
)

// Options selects which Sec. 4 optimizations the lazy compiler applies.
type Options struct {
	// SC: selective compilation — non-persistent functions execute under
	// standard (strict) semantics.
	SC bool
	// TC: thunk coalescing — runs of deferrable assignments share one
	// thunk block.
	TC bool
	// BD: branch deferral — side-effect-free branches/loops defer whole.
	BD bool
}

// AllOptimizations enables SC+TC+BD (the paper's default configuration).
func AllOptimizations() Options { return Options{SC: true, TC: true, BD: true} }

// CostModel charges lazy-evaluation overhead to the virtual clock so the
// optimization ablation (Fig. 12) is measurable in modeled time.
type CostModel struct {
	PerThunk time.Duration
	PerForce time.Duration
}

// DefaultCostModel mirrors the calibration in DESIGN.md. Thunk costs are
// priced high enough relative to the 0.5 ms RTT that the Fig. 12 trade-off
// is visible: selective compilation occasionally costs a round trip (a
// strict call forces earlier) but wins it back many times over in avoided
// allocations, as in the paper.
func DefaultCostModel() CostModel {
	return CostModel{PerThunk: 20 * time.Microsecond, PerForce: 4 * time.Microsecond}
}

// LazyStats counts lazy-evaluation activity.
type LazyStats struct {
	ThunkAllocs int64
	Forces      int64
	Queries     int64 // R()/W() statements reached
	StrictFuncs int64 // calls executed strictly due to SC
	Blocks      int64 // thunk blocks created by TC/BD
}

// lthunk is the lazy interpreter's thunk: a memoized delayed computation
// with its captured environment folded into the closure (the (σ, e) pairs
// of the formal semantics).
type lthunk struct {
	forced  bool
	val     Value
	compute func() (Value, error)
}

// LazyInterp evaluates programs under extended lazy semantics (Sec. 3.8)
// with a query store for batching. It holds two walkers of strict.go over
// one heap, output and store: lazy, whose hooks leave loads as thunks,
// delay operations, register R() and defer thunk blocks, and strict, the
// standard-semantics walker for what the compiler left strict. A call
// frame opens on strict.bind whichever walker runs the body, so the depth
// counter is shared.
type LazyInterp struct {
	analysis *Analysis
	store    *querystore.Store
	heap     *Heap
	out      strings.Builder
	lazy     walker
	strict   walker
	opts     Options
	clock    netsim.Clock
	cost     CostModel
	stats    LazyStats

	steps    int64
	maxSteps int64
}

// NewLazy creates a lazy interpreter. clock may be nil when modeled
// overhead time is not needed.
func NewLazy(prog *Program, store *querystore.Store, opts Options, clock netsim.Clock, cost CostModel) *LazyInterp {
	if clock == nil {
		clock = netsim.NewVirtualClock()
	}
	in := &LazyInterp{
		analysis: Analyze(prog),
		store:    store,
		heap:     &Heap{},
		opts:     opts,
		clock:    clock,
		cost:     cost,
		maxSteps: 5_000_000,
	}
	in.lazy = walker{
		prog:     prog,
		heap:     in.heap,
		out:      &in.out,
		step:     in.step,
		load:     identity,
		force:    in.force,
		show:     in.show,
		delay:    in.delay,
		call:     in.callFromLazy,
		read:     in.register,
		query:    in.execNow,
		deferred: in.deferred,
	}
	in.strict = walker{
		prog:  prog,
		heap:  in.heap,
		out:   &in.out,
		step:  in.step,
		load:  in.force,
		force: in.force,
		show:  in.show,
		delay: runNow,
		call:  in.callFromStrict,
		query: in.execNow,
	}
	in.strict.read = in.strict.fetch
	return in
}

// Output returns everything printed so far.
func (in *LazyInterp) Output() string { return in.out.String() }

// Stats returns lazy-evaluation counters.
func (in *LazyInterp) Stats() LazyStats { return in.stats }

// Run executes main(). Reads still pending in the store when main returns
// are never executed: nothing forced them, so nothing observed them.
func (in *LazyInterp) Run() error {
	main, err := in.lazy.prog.Main()
	if err != nil {
		return err
	}
	_, err = in.callLazy(main, nil)
	return err
}

func (in *LazyInterp) step() error {
	in.steps++
	if in.steps > in.maxSteps {
		return fmt.Errorf("lazyc: lazy step budget exhausted")
	}
	return nil
}

// newThunk allocates a thunk, charging the cost model.
func (in *LazyInterp) newThunk(fn func() (Value, error)) *lthunk {
	in.stats.ThunkAllocs++
	in.clock.Advance(in.cost.PerThunk)
	return &lthunk{compute: fn}
}

// delay is the lazy walker's delay hook: the operation becomes a thunk.
func (in *LazyInterp) delay(op func() (Value, error)) (Value, error) {
	return in.newThunk(op), nil
}

// force evaluates thunk chains to a plain value.
func (in *LazyInterp) force(v Value) (Value, error) {
	for {
		t, ok := v.(*lthunk)
		if !ok {
			return v, nil
		}
		in.stats.Forces++
		in.clock.Advance(in.cost.PerForce)
		if !t.forced {
			val, err := t.compute()
			if err != nil {
				return nil, err
			}
			t.val = val
			t.forced = true
			t.compute = nil
		}
		v = t.val
	}
}

// show is both walkers' show hook: print is externally visible, so the
// printed value is forced through heap references.
func (in *LazyInterp) show(v Value) (Value, error) { return in.deepForce(v, nil) }

// deepForce forces v and, through heap references, every reachable thunk —
// used by print (externally visible) and by the equivalence tests.
func (in *LazyInterp) deepForce(v Value, seen map[Addr]bool) (Value, error) {
	v, err := in.force(v)
	if err != nil {
		return nil, err
	}
	a, ok := v.(Addr)
	if !ok {
		return v, nil
	}
	if seen == nil {
		seen = make(map[Addr]bool)
	}
	if seen[a] {
		return v, nil
	}
	seen[a] = true
	obj, err := in.heap.Get(a)
	if err != nil {
		return nil, err
	}
	switch o := obj.(type) {
	case record:
		for k, fv := range o {
			nv, err := in.deepForce(fv, seen)
			if err != nil {
				return nil, err
			}
			o[k] = nv
		}
	case []Value:
		for i, ev := range o {
			nv, err := in.deepForce(ev, seen)
			if err != nil {
				return nil, err
			}
			o[i] = nv
		}
	}
	return v, nil
}

// ---------------------------------------------------------------------------
// Function calls.

// callLazy runs fn's body on the lazy walker; arguments may be thunks.
func (in *LazyInterp) callLazy(fn *Func, args []Value) (Value, error) {
	env, err := in.strict.bind(fn, args)
	if err != nil {
		return nil, err
	}
	ctl, ret, err := in.lazy.execBlock(env, fn.Body)
	return in.strict.unbind(fn, ctl, ret, err)
}

// callStrict executes a function body under standard semantics with forced
// arguments — the selective-compilation path for non-persistent functions.
func (in *LazyInterp) callStrict(fn *Func, args []Value) (Value, error) {
	in.stats.StrictFuncs++
	if err := in.strict.forceList(args); err != nil {
		return nil, err
	}
	return in.strict.callStd(fn, args)
}

// callFromLazy is the lazy walker's call hook. Selective compilation:
// non-persistent functions are compiled as-is and run strictly (Sec. 4.1).
// A call to a pure function defers whole (Sec. 3.4); an impure one executes
// now, with thunk arguments.
func (in *LazyInterp) callFromLazy(fn *Func, args []Value) (Value, error) {
	if in.opts.SC && !in.analysis.Persistent[fn.Name] {
		return in.callStrict(fn, args)
	}
	if in.analysis.Pure[fn.Name] {
		return in.newThunk(func() (Value, error) {
			ret, err := in.callLazy(fn, args)
			if err != nil {
				return nil, err
			}
			return in.force(ret)
		}), nil
	}
	return in.callLazy(fn, args)
}

// callFromStrict is the strict walker's call hook. A strict context still
// respects the callee's compilation mode: persistent callees are
// lazy-compiled (they register queries) and their result is forced,
// everything else runs strictly.
func (in *LazyInterp) callFromStrict(fn *Func, args []Value) (Value, error) {
	if in.opts.SC && !in.analysis.Persistent[fn.Name] {
		return in.callStrict(fn, args)
	}
	ret, err := in.callLazy(fn, args)
	if err != nil {
		return nil, err
	}
	return in.force(ret)
}

// ---------------------------------------------------------------------------
// Queries.

// execNow is both walkers' query hook, and the strict walker's R() through
// fetch: the statement runs immediately. The store flushes every pending
// read before it, keeping statement order (Sec. 3.3).
func (in *LazyInterp) execNow(sql string) (*sqldb.ResultSet, error) {
	in.stats.Queries++
	return in.store.Exec(sql)
}

// register is the lazy walker's read hook: the query registers with the
// store now (the defining move of extended lazy evaluation) and the result
// fetch is deferred (Sec. 3.3).
func (in *LazyInterp) register(sql string) (Value, error) {
	in.stats.Queries++
	id, err := in.store.Register(sql)
	if err != nil {
		return nil, err
	}
	return in.newThunk(func() (Value, error) {
		rs, err := in.store.ResultSet(id)
		if err != nil {
			return nil, err
		}
		return resultToHeap(in.heap, rs), nil
	}), nil
}

// ---------------------------------------------------------------------------
// Thunk blocks.

// deferred is the lazy walker's block hook. Under TC a coalescible run
// (Sec. 4.3), and under BD a deferrable If/While (Sec. 4.2), at the head
// of stmts becomes one thunk block.
func (in *LazyInterp) deferred(env map[string]Value, stmts []Stmt) int {
	s := stmts[0]
	if run, ok := in.analysis.RunStart[s]; ok && in.opts.TC {
		in.deferBlock(env, stmts[:run.Len], run.Outputs)
		return run.Len
	}
	if in.opts.BD && in.analysis.DeferrableBranch[s] {
		in.deferBlock(env, stmts[:1], in.analysis.BranchOutputs[s])
		return 1
	}
	return 0
}

// deferBlock defers stmts as one thunk block: the statements execute on the
// strict walker inside the block's force method (the compiled _force body
// of the paper's ThunkBlock), and only the live-out variables get output
// thunks. Variables assigned inside but dead outside need no thunk at all —
// the allocation saving that motivates both optimizations. The analysis
// keeps return, and break/continue outside a loop of the block, out of a
// deferred block, so the control outcome discarded here is always ctlNone.
func (in *LazyInterp) deferBlock(env map[string]Value, stmts []Stmt, outputs []string) {
	snapshot := copyEnv(env)
	in.stats.Blocks++
	blk := in.newThunk(func() (Value, error) {
		_, _, err := in.strict.execBlock(snapshot, stmts)
		return nil, err
	})
	for _, name := range outputs {
		env[name] = in.newThunk(func() (Value, error) {
			if _, err := in.force(blk); err != nil {
				return nil, err
			}
			out, ok := snapshot[name]
			if !ok {
				return nil, fmt.Errorf("lazyc: block output %q not produced", name)
			}
			return out, nil
		})
	}
}

func copyEnv(env map[string]Value) map[string]Value {
	out := make(map[string]Value, len(env))
	for k, v := range env {
		out[k] = v
	}
	return out
}
