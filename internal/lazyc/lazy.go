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
// with a query store for batching. exec/evalLazy below are the lazy walker;
// strict is the standard-semantics walker of strict.go over the same heap,
// output and store, running what the compiler left strict.
type LazyInterp struct {
	prog     *Program
	analysis *Analysis
	store    *querystore.Store
	heap     *Heap
	out      strings.Builder
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
		prog:     prog,
		analysis: Analyze(prog),
		store:    store,
		heap:     &Heap{},
		opts:     opts,
		clock:    clock,
		cost:     cost,
		maxSteps: 5_000_000,
	}
	in.strict = walker{
		prog:  prog,
		heap:  in.heap,
		out:   &in.out,
		step:  in.step,
		force: in.force,
		show:  func(v Value) (Value, error) { return in.deepForce(v, nil) },
		call:  in.callFromStrict,
		query: in.execNow,
	}
	return in
}

// Output returns everything printed so far.
func (in *LazyInterp) Output() string { return in.out.String() }

// Stats returns lazy-evaluation counters.
func (in *LazyInterp) Stats() LazyStats { return in.stats }

// Run executes main(). Reads still pending in the store when main returns
// are never executed: nothing forced them, so nothing observed them.
func (in *LazyInterp) Run() error {
	main, err := in.prog.Main()
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
	ctl, ret, err := in.execBlock(env, fn.Body)
	return in.strict.unbind(fn, ctl, ret, err)
}

// callStrict executes a function body under standard semantics with forced
// arguments — the selective-compilation path for non-persistent functions.
func (in *LazyInterp) callStrict(fn *Func, args []Value) (Value, error) {
	in.stats.StrictFuncs++
	forced, err := in.forceAll(args)
	if err != nil {
		return nil, err
	}
	return in.strict.callStd(fn, forced)
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

// forceAll forces each value of a list (arguments entering strict code).
func (in *LazyInterp) forceAll(vals []Value) ([]Value, error) {
	forced := make([]Value, len(vals))
	for i, a := range vals {
		v, err := in.force(a)
		if err != nil {
			return nil, err
		}
		forced[i] = v
	}
	return forced, nil
}

// execNow is the strict walker's query hook and the lazy walker's W(): the
// statement runs immediately. The store flushes every pending read before
// it, keeping statement order (Sec. 3.3).
func (in *LazyInterp) execNow(sql string) (*sqldb.ResultSet, error) {
	in.stats.Queries++
	return in.store.Exec(sql)
}

// ---------------------------------------------------------------------------
// Lazy statement execution.

func (in *LazyInterp) execBlock(env map[string]Value, stmts []Stmt) (control, Value, error) {
	i := 0
	for i < len(stmts) {
		s := stmts[i]
		// Thunk coalescing: a marked run becomes a single block thunk.
		if in.opts.TC {
			if run, ok := in.analysis.RunStart[s]; ok {
				in.deferBlock(env, stmts[i:i+run.Len], run.Outputs)
				i += run.Len
				continue
			}
		}
		ctl, ret, err := in.exec(env, s)
		if err != nil {
			return ctlNone, nil, err
		}
		if ctl != ctlNone {
			return ctl, ret, nil
		}
		i++
	}
	return ctlNone, nil, nil
}

// deferBlock defers stmts — a coalescible run (Sec. 4.3) or one deferrable
// If/While (Sec. 4.2) — as one thunk block: the statements execute on the
// strict walker inside the block's force method (the compiled _force body
// of the paper's ThunkBlock), and only the live-out variables get output
// thunks. Variables assigned inside but dead outside need no thunk at all —
// the allocation saving that motivates both optimizations.
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

func (in *LazyInterp) exec(env map[string]Value, s Stmt) (control, Value, error) {
	if err := in.step(); err != nil {
		return ctlNone, nil, err
	}
	switch st := s.(type) {
	case *Skip:
		return ctlNone, nil, nil
	case *Let:
		v, err := in.evalLazy(env, st.Init)
		if err != nil {
			return ctlNone, nil, err
		}
		env[st.Name] = v
		return ctlNone, nil, nil
	case *AssignVar:
		if _, ok := env[st.Name]; !ok {
			return ctlNone, nil, fmt.Errorf("lazyc: assignment to undeclared %q", st.Name)
		}
		v, err := in.evalLazy(env, st.E)
		if err != nil {
			return ctlNone, nil, err
		}
		env[st.Name] = v
		return ctlNone, nil, nil
	case *AssignField:
		// Heap writes are not delayed: the receiver is forced, the stored
		// value may remain a thunk (Sec. 3.5).
		recv, err := in.evalNow(env, st.Recv)
		if err != nil {
			return ctlNone, nil, err
		}
		rec, err := in.heap.record(recv, "write to")
		if err != nil {
			return ctlNone, nil, err
		}
		v, err := in.evalLazy(env, st.E)
		if err != nil {
			return ctlNone, nil, err
		}
		rec[st.Name] = v
		return ctlNone, nil, nil
	case *AssignIndex:
		arrV, err := in.evalNow(env, st.Arr)
		if err != nil {
			return ctlNone, nil, err
		}
		arr, err := in.heap.array(arrV, "write to")
		if err != nil {
			return ctlNone, nil, err
		}
		idxV, err := in.evalNow(env, st.Idx)
		if err != nil {
			return ctlNone, nil, err
		}
		slot, ok := elem(arr, idxV)
		if !ok {
			return ctlNone, nil, fmt.Errorf("lazyc: index %v out of range", idxV)
		}
		v, err := in.evalLazy(env, st.E)
		if err != nil {
			return ctlNone, nil, err
		}
		*slot = v
		return ctlNone, nil, nil
	case *If:
		if in.opts.BD && in.analysis.DeferrableBranch[s] {
			in.deferBlock(env, []Stmt{s}, in.analysis.BranchOutputs[s])
			return ctlNone, nil, nil
		}
		c, err := in.evalNow(env, st.Cond)
		if err != nil {
			return ctlNone, nil, err
		}
		b, err := truthy(c)
		if err != nil {
			return ctlNone, nil, err
		}
		if b {
			return in.execBlock(env, st.Then)
		}
		return in.execBlock(env, st.Else)
	case *While:
		if in.opts.BD && in.analysis.DeferrableBranch[s] {
			in.deferBlock(env, []Stmt{s}, in.analysis.BranchOutputs[s])
			return ctlNone, nil, nil
		}
		for {
			if err := in.step(); err != nil {
				return ctlNone, nil, err
			}
			if st.Cond != nil {
				c, err := in.evalNow(env, st.Cond)
				if err != nil {
					return ctlNone, nil, err
				}
				b, err := truthy(c)
				if err != nil {
					return ctlNone, nil, err
				}
				if !b {
					return ctlNone, nil, nil
				}
			}
			ctl, ret, err := in.execBlock(env, st.Body)
			if err != nil {
				return ctlNone, nil, err
			}
			switch ctl {
			case ctlBreak:
				return ctlNone, nil, nil
			case ctlReturn:
				return ctlReturn, ret, nil
			}
		}
	case *Break:
		return ctlBreak, nil, nil
	case *Continue:
		return ctlContinue, nil, nil
	case *Return:
		v, err := in.evalLazy(env, st.E)
		if err != nil {
			return ctlNone, nil, err
		}
		return ctlReturn, v, nil
	case *Write:
		q, err := in.evalNow(env, st.Query)
		if err != nil {
			return ctlNone, nil, err
		}
		sql, ok := q.(string)
		if !ok {
			return ctlNone, nil, fmt.Errorf("lazyc: W() needs a string query")
		}
		_, err = in.execNow(sql)
		return ctlNone, nil, err
	case *Print:
		v, err := in.evalLazy(env, st.E)
		if err != nil {
			return ctlNone, nil, err
		}
		fv, err := in.deepForce(v, nil)
		if err != nil {
			return ctlNone, nil, err
		}
		in.strict.print(fv)
		return ctlNone, nil, nil
	case *ExprStmt:
		_, err := in.evalLazy(env, st.E)
		return ctlNone, nil, err
	default:
		return ctlNone, nil, fmt.Errorf("lazyc: unknown statement %T", s)
	}
}

func copyEnv(env map[string]Value) map[string]Value {
	out := make(map[string]Value, len(env))
	for k, v := range env {
		out[k] = v
	}
	return out
}

// ---------------------------------------------------------------------------
// Lazy expression evaluation.

// evalNow evaluates an operand lazy semantics demands at once — a receiver,
// an index, a condition, a query string — and forces it.
func (in *LazyInterp) evalNow(env map[string]Value, e Expr) (Value, error) {
	v, err := in.evalLazy(env, e)
	if err != nil {
		return nil, err
	}
	return in.force(v)
}

func (in *LazyInterp) evalLazy(env map[string]Value, e Expr) (Value, error) {
	if err := in.step(); err != nil {
		return nil, err
	}
	switch x := e.(type) {
	case *Const:
		return x.Val, nil
	case *Var:
		v, ok := env[x.Name]
		if !ok {
			return nil, fmt.Errorf("lazyc: undefined variable %q", x.Name)
		}
		return v, nil
	case *Field:
		// Field reads force the receiver and return the (possibly thunk)
		// field value (Sec. 3.5).
		recv, err := in.evalNow(env, x.Recv)
		if err != nil {
			return nil, err
		}
		rec, err := in.heap.record(recv, "read of")
		if err != nil {
			return nil, err
		}
		return rec[x.Name], nil
	case *Index:
		arrV, err := in.evalNow(env, x.Arr)
		if err != nil {
			return nil, err
		}
		arr, err := in.heap.array(arrV, "of")
		if err != nil {
			return nil, err
		}
		idxV, err := in.evalNow(env, x.Idx)
		if err != nil {
			return nil, err
		}
		slot, ok := elem(arr, idxV)
		if !ok {
			return nil, fmt.Errorf("lazyc: index %v out of range (%d)", idxV, len(arr))
		}
		return *slot, nil
	case *RecordLit:
		// Allocation is immediate; field values stay lazy.
		vals, err := evalList(env, x.Vals, in.evalLazy)
		if err != nil {
			return nil, err
		}
		return in.heap.Alloc(newRecord(x.Names, vals)), nil
	case *ArrayLit:
		arr, err := evalList(env, x.Elems, in.evalLazy)
		if err != nil {
			return nil, err
		}
		return in.heap.Alloc(arr), nil
	case *Binop:
		l, err := in.evalLazy(env, x.L)
		if err != nil {
			return nil, err
		}
		r, err := in.evalLazy(env, x.R)
		if err != nil {
			return nil, err
		}
		op := x.Op
		return in.newThunk(func() (Value, error) {
			lv, err := in.force(l)
			if err != nil {
				return nil, err
			}
			// Short-circuit at force time.
			if op == "&&" || op == "||" {
				lb, err := truthy(lv)
				if err != nil {
					return nil, err
				}
				if op == "&&" && !lb {
					return false, nil
				}
				if op == "||" && lb {
					return true, nil
				}
				rv, err := in.force(r)
				if err != nil {
					return nil, err
				}
				return truthyValue(rv)
			}
			rv, err := in.force(r)
			if err != nil {
				return nil, err
			}
			return applyBinop(op, lv, rv)
		}), nil
	case *Unop:
		inner, err := in.evalLazy(env, x.E)
		if err != nil {
			return nil, err
		}
		op := x.Op
		return in.newThunk(func() (Value, error) {
			v, err := in.force(inner)
			if err != nil {
				return nil, err
			}
			return applyUnop(op, v)
		}), nil
	case *Call:
		fn, ok := in.prog.Funcs[x.Fn]
		if !ok {
			return nil, fmt.Errorf("lazyc: call to undefined %q", x.Fn)
		}
		args, err := evalList(env, x.Args, in.evalLazy)
		if err != nil {
			return nil, err
		}
		// Selective compilation: non-persistent functions are compiled
		// as-is and run strictly (Sec. 4.1).
		if in.opts.SC && !in.analysis.Persistent[x.Fn] {
			return in.callStrict(fn, args)
		}
		if in.analysis.Pure[x.Fn] {
			// Internal pure call: the whole call defers (Sec. 3.4).
			return in.newThunk(func() (Value, error) {
				ret, err := in.callLazy(fn, args)
				if err != nil {
					return nil, err
				}
				return in.force(ret)
			}), nil
		}
		// Impure internal call: executes now, with thunk arguments.
		return in.callLazy(fn, args)
	case *Builtin:
		args, err := evalList(env, x.Args, in.evalLazy)
		if err != nil {
			return nil, err
		}
		name := x.Name
		return in.newThunk(func() (Value, error) {
			forced, err := in.forceAll(args)
			if err != nil {
				return nil, err
			}
			return applyBuiltin(in.heap, name, forced)
		}), nil
	case *Read:
		// The query string is forced NOW so the query can register with
		// the store (the defining move of extended lazy evaluation); the
		// result fetch is deferred (Sec. 3.3).
		q, err := in.evalNow(env, x.Query)
		if err != nil {
			return nil, err
		}
		sql, ok := q.(string)
		if !ok {
			return nil, fmt.Errorf("lazyc: R() needs a string query")
		}
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
	default:
		return nil, fmt.Errorf("lazyc: unknown expression %T", e)
	}
}
