package plan

import (
	"fmt"
	"slices"

	"repro/internal/sqldb"
	"repro/internal/sqldb/sqlparse"
)

// aggCall is one compiled aggregate call site.
type aggCall struct {
	name  string
	star  bool
	argFn EvalFn // nil for COUNT(*)
	// arityErr is the per-row error for calls with a wrong argument count —
	// raised only when a row is actually accumulated, as before.
	arityErr error
}

// aggPlan is the compiled aggregation pipeline: group-by key expressions,
// the collected aggregate calls, and the output and HAVING expressions,
// compiled against a group row — the group's sample source row (width
// columns) followed by its call values, one slot per call.
type aggPlan struct {
	outs    []EvalFn
	calls   []aggCall
	groupBy []EvalFn
	having  EvalFn // nil when absent
	width   int
}

// aggSlots is a group-row environment's aggregate resolution: every
// distinct call site (identified by AST node, so each occurrence gets its
// own accumulator) is assigned the next slot after the source columns, in
// compile order, and its argument compiles against the source row.
type aggSlots struct {
	src   *Env
	calls []aggCall
	slot  map[*sqlparse.FuncCall]int
}

// pos returns the group-row position of fc's value.
func (a *aggSlots) pos(fc *sqlparse.FuncCall) int {
	i, ok := a.slot[fc]
	if !ok {
		i = len(a.calls)
		a.slot[fc] = i
		a.calls = append(a.calls, compileAggCall(fc, a.src))
	}
	return a.src.width + i
}

// compileAggPlan builds the aggregation plan for a statement that
// hasAggregates; outs are its select-list expressions and order its ORDER
// BY terms, whose keys it compiles against the group row.
func compileAggPlan(st *sqlparse.SelectStmt, outs []sqlparse.Expr, order []orderItem, env *Env) *aggPlan {
	p := &aggPlan{width: env.width}
	for i := range st.GroupBy {
		p.groupBy = append(p.groupBy, Compile(&st.GroupBy[i], env))
	}
	slots := &aggSlots{src: env, slot: make(map[*sqlparse.FuncCall]int)}
	group := &Env{frames: env.frames, width: env.width, aggs: slots}
	for _, o := range outs {
		p.outs = append(p.outs, Compile(o, group))
	}
	if st.Having != nil {
		p.having = Compile(st.Having, group)
	}
	compileOrderKeys(st, order, group)
	p.calls = slots.calls
	return p
}

func compileAggCall(fc *sqlparse.FuncCall, env *Env) aggCall {
	c := aggCall{name: fc.Name, star: fc.Star}
	if fc.Star {
		return c
	}
	if len(fc.Args) != 1 {
		c.arityErr = fmt.Errorf("engine: %s expects 1 argument", fc.Name)
		return c
	}
	c.argFn = Compile(fc.Args[0], env)
	return c
}

// aggState accumulates one aggregate call over a group.
type aggState struct {
	call  *aggCall
	count int64
	sum   float64
	sumI  int64
	isInt bool
	seen  bool
	min   sqldb.Value
	max   sqldb.Value
}

func (a *aggState) add(row, args []sqldb.Value) error {
	c := a.call
	if c.star { // COUNT(*)
		a.count++
		return nil
	}
	if c.arityErr != nil {
		return c.arityErr
	}
	v, err := c.argFn(row, args)
	if err != nil {
		return err
	}
	if v == nil {
		return nil // aggregates skip NULLs
	}
	a.count++
	switch c.name {
	case "COUNT":
		return nil
	case "SUM", "AVG":
		switch n := v.(type) {
		case int64:
			if !a.seen {
				a.isInt = true
			}
			a.sumI += n
			a.sum += float64(n)
		case float64:
			a.isInt = false
			a.sum += n
		default:
			return fmt.Errorf("engine: %s over non-numeric %T", c.name, v)
		}
		a.seen = true
		return nil
	case "MIN", "MAX":
		if !a.seen {
			a.min, a.max = v, v
			a.seen = true
			return nil
		}
		cMin, err := sqldb.Compare(v, a.min)
		if err != nil {
			return err
		}
		if cMin < 0 {
			a.min = v
		}
		cMax, err := sqldb.Compare(v, a.max)
		if err != nil {
			return err
		}
		if cMax > 0 {
			a.max = v
		}
		return nil
	default:
		return fmt.Errorf("engine: unknown aggregate %s", c.name)
	}
}

func (a *aggState) result() sqldb.Value {
	switch a.call.name {
	case "COUNT":
		return a.count
	case "SUM":
		if !a.seen {
			return nil
		}
		if a.isInt {
			return a.sumI
		}
		return a.sum
	case "AVG":
		if !a.seen || a.count == 0 {
			return nil
		}
		return a.sum / float64(a.count)
	case "MIN":
		if !a.seen {
			return nil
		}
		return a.min
	case "MAX":
		if !a.seen {
			return nil
		}
		return a.max
	default:
		return nil
	}
}

// aggRun is an in-flight aggregation: rows stream in through add and finish
// renders the output. It lives in a Scratch and is reused execution after
// execution: start readies it for a plan and end empties what the
// execution filled. Group i's sample row is samples[i] and its accumulators
// are aggs[i*n:(i+1)*n], n the plan's call count. Samples alias the source
// rows handed to add — safe because source rows are immutable stored
// images (or freshly built join rows).
//
// A global aggregate (no GROUP BY) has exactly one group, created by start:
// it hashes nothing and never touches set.
type aggRun struct {
	p       *aggPlan
	samples [][]sqldb.Value
	aggs    []aggState
	set     rowSet // GROUP BY keys -> group index
	keyVals []sqldb.Value
	group   []sqldb.Value // finish's group row: sample columns, then call values
}

// start readies the run for one execution of p.
func (r *aggRun) start(p *aggPlan) *aggRun {
	r.p = p
	r.keyVals = slices.Grow(r.keyVals[:0], len(p.groupBy))[:len(p.groupBy)]
	n := p.width + len(p.calls)
	r.group = slices.Grow(r.group[:0], n)[:n]
	if len(p.groupBy) == 0 {
		r.newGroup(nil)
	}
	return r
}

// newGroup appends a group whose sample is row.
func (r *aggRun) newGroup(sample []sqldb.Value) {
	r.samples = append(r.samples, sample)
	for i := range r.p.calls {
		r.aggs = append(r.aggs, aggState{call: &r.p.calls[i]})
	}
}

// add buckets one source row and accumulates every aggregate call.
func (r *aggRun) add(row, args []sqldb.Value) error {
	g := 0
	if len(r.p.groupBy) == 0 {
		if r.samples[0] == nil {
			r.samples[0] = row
		}
	} else {
		for i, fn := range r.p.groupBy {
			v, err := fn(row, args)
			if err != nil {
				return err
			}
			r.keyVals[i] = v
		}
		idx, fresh := r.set.Add(r.keyVals)
		if fresh {
			r.newGroup(row)
		}
		g = idx
	}
	n := len(r.p.calls)
	aggs := r.aggs[g*n : (g+1)*n]
	for i := range aggs {
		if err := aggs[i].add(row, args); err != nil {
			return err
		}
	}
	return nil
}

// finish renders output rows in first-seen group order, applying HAVING,
// and appends them to the sink's rows, with their ORDER BY keys when the
// plan sorts on more than output columns.
func (r *aggRun) finish(s *sink) error {
	p, grp, args := r.p, r.group, s.args
	n := len(p.calls)
	for gi, sample := range r.samples {
		clear(grp[copy(grp[:p.width], sample):p.width]) // a global aggregate over no rows has no sample
		aggs := r.aggs[gi*n : (gi+1)*n]
		for i := range aggs {
			grp[p.width+i] = aggs[i].result()
		}
		if p.having != nil {
			hv, err := p.having(grp, args)
			if err != nil {
				return err
			}
			if hv == nil || !sqldb.Truthy(hv) {
				continue
			}
		}
		out := make([]sqldb.Value, len(p.outs))
		for i, fn := range p.outs {
			v, err := fn(grp, args)
			if err != nil {
				return err
			}
			out[i] = v
		}
		s.rows = append(s.rows, out)
		if s.p.orderSrc {
			if err := s.addKeys(grp); err != nil {
				return err
			}
		}
	}
	return nil
}

// end empties the run after an execution, finished or failed: it drops
// every row and value the execution left in it, clearing only what was
// used.
func (r *aggRun) end() {
	clear(r.samples)
	clear(r.aggs)
	clear(r.keyVals)
	clear(r.group)
	r.samples, r.aggs = r.samples[:0], r.aggs[:0]
	r.set.reset()
}
