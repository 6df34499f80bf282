package lazyc

import (
	"fmt"
	"strings"

	"repro/internal/sqldb"
)

// This file is the one evaluator of the kernel language. The walker holds
// every statement and expression arm once; the two semantics of Sec. 3.8
// differ only in the hooks their hosts supply. Under standard semantics
// every statement executes when reached and every expression yields a plain
// value: StdInterp runs it over a bare database connection, and LazyInterp
// runs it for the code its compiler decided NOT to lazy-compile — bodies of
// non-persistent functions under selective compilation (compiled as-is,
// Sec. 4.1) and the _force bodies of thunk blocks (the original statements,
// Sec. 4.2–4.3) — forcing the thunks flowing in from the lazy world. Under
// extended lazy semantics (LazyInterp's lazy walker) loads stay thunks,
// operations are delayed, R() registers its query and defers the fetch, and
// each statement is first offered to the block hook that defers it.

// control is a statement's non-local outcome.
type control int

const (
	ctlNone control = iota
	ctlBreak
	ctlContinue
	ctlReturn
)

// maxCallDepth bounds user-function nesting: runaway recursion must end as
// an error, not as Go's unrecoverable stack overflow. The synthetic call
// graphs nest < 100 deep.
const maxCallDepth = 10_000

// walker evaluates statements and expressions. The hooks are every point
// where standard and extended lazy semantics differ.
type walker struct {
	prog *Program
	heap *Heap
	out  *strings.Builder

	// step charges one evaluation step against the host's budget.
	step func() error
	// load resolves a value read from the environment or the heap: the
	// standard walker forces it, the lazy walker leaves it as it is.
	load func(Value) (Value, error)
	// force resolves an operand needed now: a receiver, an index, a
	// condition, a query string, or an operand of a delayed operation.
	force func(Value) (Value, error)
	// show resolves a value about to be printed, through heap references.
	show func(Value) (Value, error)
	// delay applies a Binop, Unop or Builtin operation, which forces its
	// own operands: at once, or as a thunk.
	delay func(op func() (Value, error)) (Value, error)
	// call invokes a user function on evaluated arguments.
	call func(fn *Func, args []Value) (Value, error)
	// read runs R(): fetch the result now, or register the query and
	// defer the fetch.
	read func(sql string) (Value, error)
	// query runs one SQL statement now: W(), and R() under standard
	// semantics.
	query func(sql string) (*sqldb.ResultSet, error)
	// deferred offers the head of a block for deferral and returns how many
	// statements it turned into one thunk block (0: none). nil defers
	// nothing.
	deferred func(env map[string]Value, stmts []Stmt) int

	depth int // user-function frames currently open, across both walkers
}

// identity is the load, force and show hook of a host without thunks.
func identity(v Value) (Value, error) { return v, nil }

// runNow is the standard delay hook: the operation runs when reached.
func runNow(op func() (Value, error)) (Value, error) { return op() }

// bind opens a call frame: it checks arity and call depth and builds the
// callee's environment. Every successful bind is paired with one unbind.
func (w *walker) bind(fn *Func, args []Value) (map[string]Value, error) {
	if len(args) != len(fn.Params) {
		return nil, fmt.Errorf("lazyc: %s expects %d args, got %d", fn.Name, len(fn.Params), len(args))
	}
	if w.depth >= maxCallDepth {
		return nil, fmt.Errorf("lazyc: call depth exceeded in %s", fn.Name)
	}
	w.depth++
	env := make(map[string]Value, len(fn.Params)+4)
	for i, p := range fn.Params {
		env[p] = args[i]
	}
	return env, nil
}

// unbind closes the frame bind opened and turns the body's outcome into the
// call's value.
func (w *walker) unbind(fn *Func, ctl control, ret Value, err error) (Value, error) {
	w.depth--
	if err != nil {
		return nil, err
	}
	if ctl == ctlBreak || ctl == ctlContinue {
		return nil, fmt.Errorf("lazyc: break/continue outside loop in %s", fn.Name)
	}
	return ret, nil
}

// callStd runs fn's body on this walker.
func (w *walker) callStd(fn *Func, args []Value) (Value, error) {
	env, err := w.bind(fn, args)
	if err != nil {
		return nil, err
	}
	ctl, ret, err := w.execBlock(env, fn.Body)
	return w.unbind(fn, ctl, ret, err)
}

// fetch is the standard read hook: the query runs now and its result lands
// on the heap.
func (w *walker) fetch(sql string) (Value, error) {
	rs, err := w.query(sql)
	if err != nil {
		return nil, err
	}
	return resultToHeap(w.heap, rs), nil
}

func (w *walker) execBlock(env map[string]Value, stmts []Stmt) (control, Value, error) {
	for i := 0; i < len(stmts); {
		if w.deferred != nil {
			if n := w.deferred(env, stmts[i:]); n > 0 {
				i += n
				continue
			}
		}
		ctl, ret, err := w.exec(env, stmts[i])
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

// now evaluates an operand needed at once and forces it.
func (w *walker) now(env map[string]Value, e Expr) (Value, error) {
	v, err := w.eval(env, e)
	if err != nil {
		return nil, err
	}
	return w.force(v)
}

// cond evaluates a branch or loop condition, or an operand of && and ||.
func (w *walker) cond(env map[string]Value, e Expr) (bool, error) {
	c, err := w.now(env, e)
	if err != nil {
		return false, err
	}
	return truthy(c)
}

// sql evaluates the query argument of R() or W().
func (w *walker) sql(env map[string]Value, e Expr, form string) (string, error) {
	q, err := w.now(env, e)
	if err != nil {
		return "", err
	}
	s, ok := q.(string)
	if !ok {
		return "", fmt.Errorf("lazyc: %s() needs a string query", form)
	}
	return s, nil
}

func (w *walker) exec(env map[string]Value, s Stmt) (control, Value, error) {
	if err := w.step(); err != nil {
		return ctlNone, nil, err
	}
	switch st := s.(type) {
	case *Skip:
		return ctlNone, nil, nil
	case *Let:
		v, err := w.eval(env, st.Init)
		if err != nil {
			return ctlNone, nil, err
		}
		env[st.Name] = v
		return ctlNone, nil, nil
	case *AssignVar:
		if _, ok := env[st.Name]; !ok {
			return ctlNone, nil, fmt.Errorf("lazyc: assignment to undeclared %q", st.Name)
		}
		v, err := w.eval(env, st.E)
		if err != nil {
			return ctlNone, nil, err
		}
		env[st.Name] = v
		return ctlNone, nil, nil
	case *AssignField:
		// Heap writes are not delayed: the receiver is forced, the stored
		// value may remain a thunk (Sec. 3.5).
		recv, err := w.now(env, st.Recv)
		if err != nil {
			return ctlNone, nil, err
		}
		rec, err := w.heap.record(recv, "write to")
		if err != nil {
			return ctlNone, nil, err
		}
		v, err := w.eval(env, st.E)
		if err != nil {
			return ctlNone, nil, err
		}
		rec[st.Name] = v
		return ctlNone, nil, nil
	case *AssignIndex:
		arrV, err := w.now(env, st.Arr)
		if err != nil {
			return ctlNone, nil, err
		}
		arr, err := w.heap.array(arrV, "write to")
		if err != nil {
			return ctlNone, nil, err
		}
		idxV, err := w.now(env, st.Idx)
		if err != nil {
			return ctlNone, nil, err
		}
		slot, ok := elem(arr, idxV)
		if !ok {
			return ctlNone, nil, fmt.Errorf("lazyc: index %v out of range", idxV)
		}
		v, err := w.eval(env, st.E)
		if err != nil {
			return ctlNone, nil, err
		}
		*slot = v
		return ctlNone, nil, nil
	case *If:
		b, err := w.cond(env, st.Cond)
		if err != nil {
			return ctlNone, nil, err
		}
		if b {
			return w.execBlock(env, st.Then)
		}
		return w.execBlock(env, st.Else)
	case *While:
		for {
			if err := w.step(); err != nil {
				return ctlNone, nil, err
			}
			if st.Cond != nil {
				b, err := w.cond(env, st.Cond)
				if err != nil || !b {
					return ctlNone, nil, err
				}
			}
			ctl, ret, err := w.execBlock(env, st.Body)
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
		v, err := w.eval(env, st.E)
		if err != nil {
			return ctlNone, nil, err
		}
		return ctlReturn, v, nil
	case *Write:
		q, err := w.sql(env, st.Query, "W")
		if err != nil {
			return ctlNone, nil, err
		}
		_, err = w.query(q)
		return ctlNone, nil, err
	case *Print:
		v, err := w.eval(env, st.E)
		if err != nil {
			return ctlNone, nil, err
		}
		if v, err = w.show(v); err != nil {
			return ctlNone, nil, err
		}
		w.out.WriteString(render(w.heap, v))
		w.out.WriteByte('\n')
		return ctlNone, nil, nil
	case *ExprStmt:
		_, err := w.eval(env, st.E)
		return ctlNone, nil, err
	default:
		return ctlNone, nil, fmt.Errorf("lazyc: unknown statement %T", s)
	}
}

// list evaluates an argument or element list left to right.
func (w *walker) list(env map[string]Value, es []Expr) ([]Value, error) {
	vals := make([]Value, len(es))
	for i, e := range es {
		v, err := w.eval(env, e)
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	return vals, nil
}

// forceList forces each value of a list in place.
func (w *walker) forceList(vals []Value) error {
	for i, v := range vals {
		fv, err := w.force(v)
		if err != nil {
			return err
		}
		vals[i] = fv
	}
	return nil
}

func (w *walker) eval(env map[string]Value, e Expr) (Value, error) {
	if err := w.step(); err != nil {
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
		return w.load(v)
	case *Field:
		// Field reads force the receiver and load the field (Sec. 3.5).
		recv, err := w.now(env, x.Recv)
		if err != nil {
			return nil, err
		}
		rec, err := w.heap.record(recv, "read of")
		if err != nil {
			return nil, err
		}
		return w.load(rec[x.Name])
	case *Index:
		arrV, err := w.now(env, x.Arr)
		if err != nil {
			return nil, err
		}
		arr, err := w.heap.array(arrV, "of")
		if err != nil {
			return nil, err
		}
		idxV, err := w.now(env, x.Idx)
		if err != nil {
			return nil, err
		}
		slot, ok := elem(arr, idxV)
		if !ok {
			return nil, fmt.Errorf("lazyc: index %v out of range (%d)", idxV, len(arr))
		}
		return w.load(*slot)
	case *RecordLit:
		// Allocation is immediate; field values stay as evaluated.
		vals, err := w.list(env, x.Vals)
		if err != nil {
			return nil, err
		}
		return w.heap.Alloc(newRecord(x.Names, vals)), nil
	case *ArrayLit:
		arr, err := w.list(env, x.Elems)
		if err != nil {
			return nil, err
		}
		return w.heap.Alloc(arr), nil
	case *Binop:
		// && and || are control flow under both semantics: the left operand
		// is forced here, like an if condition, and the right one is
		// evaluated only when the left does not decide.
		if x.Op == "&&" || x.Op == "||" {
			b, err := w.cond(env, x.L)
			if err != nil {
				return nil, err
			}
			if b == (x.Op == "||") {
				return b, nil
			}
			if b, err = w.cond(env, x.R); err != nil {
				return nil, err
			}
			return b, nil
		}
		l, err := w.eval(env, x.L)
		if err != nil {
			return nil, err
		}
		r, err := w.eval(env, x.R)
		if err != nil {
			return nil, err
		}
		return w.delay(func() (Value, error) {
			lv, err := w.force(l)
			if err != nil {
				return nil, err
			}
			rv, err := w.force(r)
			if err != nil {
				return nil, err
			}
			return applyBinop(x.Op, lv, rv)
		})
	case *Unop:
		v, err := w.eval(env, x.E)
		if err != nil {
			return nil, err
		}
		return w.delay(func() (Value, error) {
			fv, err := w.force(v)
			if err != nil {
				return nil, err
			}
			return applyUnop(x.Op, fv)
		})
	case *Call:
		fn, ok := w.prog.Funcs[x.Fn]
		if !ok {
			return nil, fmt.Errorf("lazyc: call to undefined %q", x.Fn)
		}
		args, err := w.list(env, x.Args)
		if err != nil {
			return nil, err
		}
		return w.call(fn, args)
	case *Builtin:
		args, err := w.list(env, x.Args)
		if err != nil {
			return nil, err
		}
		return w.delay(func() (Value, error) {
			if err := w.forceList(args); err != nil {
				return nil, err
			}
			return applyBuiltin(w.heap, x.Name, args)
		})
	case *Read:
		q, err := w.sql(env, x.Query, "R")
		if err != nil {
			return nil, err
		}
		return w.read(q)
	default:
		return nil, fmt.Errorf("lazyc: unknown expression %T", e)
	}
}
