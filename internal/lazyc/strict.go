package lazyc

import (
	"fmt"
	"strings"

	"repro/internal/sqldb"
)

// This file is the one standard-semantics evaluator (Sec. 3.8): every
// statement executes when reached, every expression yields a plain value.
// StdInterp is this walker over a bare database connection. LazyInterp
// runs the same walker for the code its compiler decided NOT to
// lazy-compile — bodies of non-persistent functions under selective
// compilation (compiled as-is, Sec. 4.1) and the _force bodies of thunk
// blocks (the original statements, Sec. 4.2–4.3) — with hooks that force
// the thunks flowing in from the lazy world.

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

// walker evaluates statements and expressions under standard semantics.
// The hooks are every point where the two hosts differ.
type walker struct {
	prog *Program
	heap *Heap
	out  *strings.Builder

	// step charges one evaluation step against the host's budget.
	step func() error
	// force resolves a value read from the environment or the heap
	// (identity when no thunks exist).
	force func(Value) (Value, error)
	// show resolves a value about to be printed, through heap references.
	show func(Value) (Value, error)
	// call invokes a user function on evaluated arguments.
	call func(fn *Func, args []Value) (Value, error)
	// query runs one SQL statement, R() and W() alike.
	query func(sql string) (*sqldb.ResultSet, error)

	depth int // user-function frames currently open, across both walkers
}

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

func (w *walker) execBlock(env map[string]Value, stmts []Stmt) (control, Value, error) {
	for _, s := range stmts {
		ctl, ret, err := w.exec(env, s)
		if err != nil {
			return ctlNone, nil, err
		}
		if ctl != ctlNone {
			return ctl, ret, nil
		}
	}
	return ctlNone, nil, nil
}

// cond evaluates a branch or loop condition.
func (w *walker) cond(env map[string]Value, e Expr) (bool, error) {
	c, err := w.eval(env, e)
	if err != nil {
		return false, err
	}
	return truthy(c)
}

// sql evaluates a query argument and runs it.
func (w *walker) sql(env map[string]Value, e Expr, form string) (*sqldb.ResultSet, error) {
	q, err := w.eval(env, e)
	if err != nil {
		return nil, err
	}
	s, ok := q.(string)
	if !ok {
		return nil, fmt.Errorf("lazyc: %s() needs a string query", form)
	}
	return w.query(s)
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
		recv, err := w.eval(env, st.Recv)
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
		arrV, err := w.eval(env, st.Arr)
		if err != nil {
			return ctlNone, nil, err
		}
		arr, err := w.heap.array(arrV, "write to")
		if err != nil {
			return ctlNone, nil, err
		}
		idxV, err := w.eval(env, st.Idx)
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
		_, err := w.sql(env, st.Query, "W")
		return ctlNone, nil, err
	case *Print:
		v, err := w.eval(env, st.E)
		if err != nil {
			return ctlNone, nil, err
		}
		if v, err = w.show(v); err != nil {
			return ctlNone, nil, err
		}
		w.print(v)
		return ctlNone, nil, nil
	case *ExprStmt:
		_, err := w.eval(env, st.E)
		return ctlNone, nil, err
	default:
		return ctlNone, nil, fmt.Errorf("lazyc: unknown statement %T", s)
	}
}

// print appends the canonical form of a thunk-free value to the output.
func (w *walker) print(v Value) {
	w.out.WriteString(render(w.heap, v))
	w.out.WriteByte('\n')
}

// evalList evaluates an argument or element list left to right with one
// walker's eval.
func evalList(env map[string]Value, es []Expr, eval func(map[string]Value, Expr) (Value, error)) ([]Value, error) {
	vals := make([]Value, len(es))
	for i, e := range es {
		v, err := eval(env, e)
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	return vals, nil
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
		return w.force(v)
	case *Field:
		recv, err := w.eval(env, x.Recv)
		if err != nil {
			return nil, err
		}
		rec, err := w.heap.record(recv, "read of")
		if err != nil {
			return nil, err
		}
		return w.force(rec[x.Name])
	case *Index:
		arrV, err := w.eval(env, x.Arr)
		if err != nil {
			return nil, err
		}
		arr, err := w.heap.array(arrV, "of")
		if err != nil {
			return nil, err
		}
		idxV, err := w.eval(env, x.Idx)
		if err != nil {
			return nil, err
		}
		slot, ok := elem(arr, idxV)
		if !ok {
			return nil, fmt.Errorf("lazyc: index %v out of range (%d)", idxV, len(arr))
		}
		return w.force(*slot)
	case *RecordLit:
		vals, err := evalList(env, x.Vals, w.eval)
		if err != nil {
			return nil, err
		}
		return w.heap.Alloc(newRecord(x.Names, vals)), nil
	case *ArrayLit:
		arr, err := evalList(env, x.Elems, w.eval)
		if err != nil {
			return nil, err
		}
		return w.heap.Alloc(arr), nil
	case *Binop:
		l, err := w.eval(env, x.L)
		if err != nil {
			return nil, err
		}
		// Short-circuit && and || like the host applications would.
		if x.Op == "&&" || x.Op == "||" {
			lb, err := truthy(l)
			if err != nil {
				return nil, err
			}
			if x.Op == "&&" && !lb {
				return false, nil
			}
			if x.Op == "||" && lb {
				return true, nil
			}
			r, err := w.eval(env, x.R)
			if err != nil {
				return nil, err
			}
			return truthyValue(r)
		}
		r, err := w.eval(env, x.R)
		if err != nil {
			return nil, err
		}
		return applyBinop(x.Op, l, r)
	case *Unop:
		v, err := w.eval(env, x.E)
		if err != nil {
			return nil, err
		}
		return applyUnop(x.Op, v)
	case *Call:
		fn, ok := w.prog.Funcs[x.Fn]
		if !ok {
			return nil, fmt.Errorf("lazyc: call to undefined %q", x.Fn)
		}
		args, err := evalList(env, x.Args, w.eval)
		if err != nil {
			return nil, err
		}
		return w.call(fn, args)
	case *Builtin:
		args, err := evalList(env, x.Args, w.eval)
		if err != nil {
			return nil, err
		}
		return applyBuiltin(w.heap, x.Name, args)
	case *Read:
		rs, err := w.sql(env, x.Query, "R")
		if err != nil {
			return nil, err
		}
		return resultToHeap(w.heap, rs), nil
	default:
		return nil, fmt.Errorf("lazyc: unknown expression %T", e)
	}
}

func truthyValue(v Value) (Value, error) {
	b, err := truthy(v)
	if err != nil {
		return nil, err
	}
	return b, nil
}
