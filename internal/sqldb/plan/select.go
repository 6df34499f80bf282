package plan

import (
	"fmt"
	"reflect"
	"sort"
	"strings"

	"repro/internal/sqldb"
	"repro/internal/sqldb/sqlparse"
	"repro/internal/sqldb/storage"
)

// SelectPlan is one SELECT statement compiled against a schema epoch:
// resolved table pointers and column ordinals, the chosen access path
// (index-eq / index-IN / scan), join strategies, and every expression
// compiled to a closure over row slices. A plan executes many times; only
// argument values vary per execution.
type SelectPlan struct {
	env      *Env
	from     *storage.Table
	access   []accessCand
	joins    []joinPlan
	where    EvalFn // nil when the statement has no WHERE clause
	agg      *aggPlan
	cols     []string
	projs    []EvalFn
	orderBy  []orderItem
	orderSrc bool // some ORDER BY term is a source-row key
	distinct bool
	limit    int
	offset   int
}

// accessCand is one statically-detected index opportunity over the FROM
// table: a `col = const` or `col IN (consts)` conjunct whose column is
// indexed. Candidates are tried in the WHERE clause's AND-traversal order;
// the first whose values evaluate non-nil wins, otherwise the plan scans —
// the same runtime fallback the interpreted planner had (a NULL-valued
// parameter de-indexes the statement for that execution only).
type accessCand struct {
	ord int
	eq  EvalFn   // set for the equality form
	in  []EvalFn // set for the IN form
}

// joinPlan is one compiled JOIN: the join table, its frame offset, the
// compiled ON predicate, and (when the ON clause pins an indexed join-table
// column to an expression over earlier frames) the index ordinal plus the
// compiled left-key expression.
type joinPlan struct {
	t       *storage.Table
	kind    sqlparse.JoinKind
	on      EvalFn
	jOrd    int // -1: nested-loop scan
	leftKey EvalFn
	jOffset int
	nCols   int
}

// orderItem is one compiled ORDER BY term: an output-column index (the term
// names an output label or is structurally a select-list expression), else
// a compiled source-row expression. An aggregate plan has no source row to
// evaluate at sort time, so there a term with neither is an error — raised
// only when a row is actually ordered.
type orderItem struct {
	outCol int // >= 0: sort on the output column
	key    EvalFn
	desc   bool
}

// CompileSelect builds the plan for st. The caller must hold the store
// lock (compilation reads table metadata). Unconditional failures —
// unknown tables, duplicate bindings, star misuse — return an error here,
// exactly the errors the statement would report on every execution;
// data-dependent resolution failures compile into the row closures instead.
func CompileSelect(st *sqlparse.SelectStmt, store *storage.Store) (*SelectPlan, error) {
	env := NewEnv()
	fromTable, ok := store.Table(st.From.Name)
	if !ok {
		return nil, fmt.Errorf("engine: unknown table %q", st.From.Name)
	}
	if _, err := env.AddFrame(st.From.Binding(), fromTable); err != nil {
		return nil, err
	}
	p := &SelectPlan{
		env:      env,
		from:     fromTable,
		distinct: st.Distinct,
		limit:    st.Limit,
		offset:   st.Offset,
	}
	for _, j := range st.Joins {
		jt, ok := store.Table(j.Table.Name)
		if !ok {
			return nil, fmt.Errorf("engine: unknown table %q", j.Table.Name)
		}
		jOffset, err := env.AddFrame(j.Table.Binding(), jt)
		if err != nil {
			return nil, err
		}
		jp := joinPlan{
			t:       jt,
			kind:    j.Kind,
			jOffset: jOffset,
			nCols:   len(jt.Columns),
			jOrd:    -1,
		}
		if ord, leftExpr := joinKey(env, jt, j.Table.Binding(), j.On); ord >= 0 {
			jp.jOrd = ord
			jp.leftKey = Compile(leftExpr, env)
		}
		jp.on = Compile(j.On, env)
		p.joins = append(p.joins, jp)
	}

	p.access = accessCands(fromTable, st.From.Binding(), st.Where)
	if st.Where != nil {
		p.where = Compile(st.Where, env)
	}

	agg := hasAggregates(st)
	cols, exprs, err := selectList(env, st, agg)
	if err != nil {
		return nil, err
	}
	p.cols = cols
	if agg {
		p.agg = compileAggPlan(st, exprs, env)
	} else {
		for _, e := range exprs {
			p.projs = append(p.projs, Compile(e, env))
		}
	}

	for _, ob := range st.OrderBy {
		item := orderItem{outCol: outputCol(env, cols, exprs, ob.Expr), desc: ob.Desc}
		if item.outCol < 0 && !agg {
			item.key = Compile(ob.Expr, env)
			p.orderSrc = true
		}
		p.orderBy = append(p.orderBy, item)
	}
	return p, nil
}

// outputCol resolves an ORDER BY term to the output column it denotes: an
// unqualified name matching an output label (aliases win, as in SQL), else
// the first select-list expression it structurally equals. -1: neither.
func outputCol(env *Env, cols []string, exprs []sqlparse.Expr, e sqlparse.Expr) int {
	if ref, ok := e.(*sqlparse.ColRef); ok && ref.Table == "" {
		if ci, ok := colIndex(cols, ref.Name); ok {
			return ci
		}
	}
	for i, se := range exprs {
		if sameExpr(env, e, se) {
			return i
		}
	}
	return -1
}

// sameExpr reports whether a and b are structurally the same expression
// (compile time only). Only a bare column reference is normalised: two of
// them are the same when they resolve to the same row position, however each
// is qualified or cased. Anything larger must match node for node, so
// `t.id+1` does not equal `id+1`, nor `COUNT(t.id)` `COUNT(id)`.
func sameExpr(env *Env, a, b sqlparse.Expr) bool {
	ra, okA := a.(*sqlparse.ColRef)
	rb, okB := b.(*sqlparse.ColRef)
	if okA && okB {
		pa, errA := env.resolve(ra)
		pb, errB := env.resolve(rb)
		return errA == nil && errB == nil && pa == pb
	}
	return reflect.DeepEqual(a, b)
}

// colIndex resolves a column label (case-insensitive, first match) — the
// static twin of ResultSet.ColIndex.
func colIndex(cols []string, name string) (int, bool) {
	for i, c := range cols {
		if strings.EqualFold(c, name) {
			return i, true
		}
	}
	return 0, false
}

// Exec runs the plan against the latest store state. The caller must hold
// the store lock.
func (p *SelectPlan) Exec(args []sqldb.Value) (*sqldb.ResultSet, error) {
	return p.exec(args, nil)
}

// ExecSnap runs the plan against a pinned snapshot. The caller holds the
// store's structural read lock, not the writer mutex: snapshot executions
// run concurrently with each other while writes stay serialized.
func (p *SelectPlan) ExecSnap(args []sqldb.Value, snap *storage.Snap) (*sqldb.ResultSet, error) {
	return p.exec(args, snap)
}

func (p *SelectPlan) exec(args []sqldb.Value, snap *storage.Snap) (*sqldb.ResultSet, error) {
	s := sink{p: p, args: args, snap: snap}
	if p.agg != nil {
		s.run = p.agg.newRun()
	}
	if err := p.eachSource(args, snap, s.source); err != nil {
		return nil, err
	}
	return s.finish()
}

// eachSource calls fn with the FROM table's rows, through the index path
// pick chooses or a scan. The rows alias the immutable stored images — zero
// copies; every consumer downstream only reads them.
func (p *SelectPlan) eachSource(args []sqldb.Value, snap *storage.Snap, fn func(storage.Row) error) error {
	ord, vals, ok := pick(p.access, args)
	if !ok {
		return p.from.ScanEach(snap, fn)
	}
	for _, val := range vals {
		if err := p.from.LookupEach(ord, val, snap, fn); err != nil {
			return err
		}
	}
	return nil
}

// sink is one execution of the plan — the only SELECT executor. Source rows
// stream in one at a time, each carried through the joins (join) and then
// through WHERE → aggregate accumulation or projection + source-row ORDER
// BY keys (add); finish renders aggregates, sorts once, and applies
// DISTINCT/OFFSET/LIMIT. Nothing is materialized between the stages, and
// because one row runs every stage before the next row starts, the error a
// statement reports is the first one in source-row order.
type sink struct {
	p       *SelectPlan
	args    []sqldb.Value
	snap    *storage.Snap
	scanned int
	run     *aggRun         // aggregate plans: the accumulating groups
	rows    [][]sqldb.Value // other plans: projected output rows
	keys    [][]sqldb.Value // keys[i]: rows[i]'s ORDER BY keys, when p.orderSrc
}

func (s *sink) source(r storage.Row) error {
	s.scanned++
	return s.join(0, r)
}

// join extends row with each match from join number level and passes the
// combined rows on, depth first — the same row order a level-at-a-time
// join produces. Past the last join the row goes to add.
func (s *sink) join(level int, row []sqldb.Value) error {
	if level == len(s.p.joins) {
		return s.add(row)
	}
	j := &s.p.joins[level]
	matched := false
	tryRow := func(r storage.Row) error {
		s.scanned++
		combined := make([]sqldb.Value, s.p.env.width)
		copy(combined, row)
		copy(combined[j.jOffset:], r)
		v, err := j.on(combined, s.args)
		if err != nil || v == nil || !sqldb.Truthy(v) {
			return err
		}
		matched = true
		return s.join(level+1, combined[:j.jOffset+len(r)])
	}
	var err error
	if j.jOrd < 0 {
		err = j.t.ScanEach(s.snap, tryRow)
	} else if key, kerr := j.leftKey(row, s.args); kerr == nil && key != nil {
		err = j.t.LookupEach(j.jOrd, key, s.snap, tryRow)
	}
	if err != nil || matched || j.kind != sqlparse.JoinLeft {
		return err
	}
	combined := make([]sqldb.Value, j.jOffset+j.nCols) // right side stays NULL
	copy(combined, row)
	return s.join(level+1, combined)
}

// add takes one fully joined row: WHERE, then accumulation or projection.
func (s *sink) add(row []sqldb.Value) error {
	p := s.p
	if p.where != nil {
		v, err := p.where(row, s.args)
		if err != nil || v == nil || !sqldb.Truthy(v) {
			return err
		}
	}
	if s.run != nil {
		return s.run.add(row, s.args)
	}
	out := make([]sqldb.Value, len(p.projs))
	for i, fn := range p.projs {
		v, err := fn(row, s.args)
		if err != nil {
			return err
		}
		out[i] = v
	}
	s.rows = append(s.rows, out)
	if !p.orderSrc {
		return nil
	}
	// Output rows carry only projected values, so keys over source columns
	// are computed now, while the source row is at hand.
	ks := make([]sqldb.Value, len(p.orderBy))
	for k, ob := range p.orderBy {
		if ob.key == nil {
			continue
		}
		v, err := ob.key(row, s.args)
		if err != nil {
			return err
		}
		ks[k] = v
	}
	s.keys = append(s.keys, ks)
	return nil
}

// finish turns the accumulated rows into the result set.
func (s *sink) finish() (*sqldb.ResultSet, error) {
	p := s.p
	if s.run != nil {
		var err error
		if s.rows, err = s.run.finish(s.args); err != nil {
			return nil, err
		}
	}
	if len(p.orderBy) > 0 && len(s.rows) > 0 {
		for _, ob := range p.orderBy {
			if ob.outCol < 0 && ob.key == nil {
				return nil, fmt.Errorf("engine: ORDER BY over aggregates must reference output columns")
			}
		}
		// ORDER BY runs before DISTINCT: DISTINCT then keeps the first
		// occurrence, preserving sortedness.
		sort.Stable(&byOrder{terms: p.orderBy, rows: s.rows, keys: s.keys})
	}
	rows := s.rows
	if p.distinct {
		rows = distinctRows(rows)
	}
	if p.offset > 0 {
		if p.offset >= len(rows) {
			rows = nil
		} else {
			rows = rows[p.offset:]
		}
	}
	if p.limit >= 0 && len(rows) > p.limit {
		rows = rows[:p.limit]
	}
	return &sqldb.ResultSet{Cols: p.cols, Rows: rows, RowsScanned: s.scanned}, nil
}

// byOrder sorts output rows by the ORDER BY terms: output-column terms read
// the row itself, source terms its key vector (keys[i] belongs to rows[i]).
type byOrder struct {
	terms []orderItem
	rows  [][]sqldb.Value
	keys  [][]sqldb.Value
}

func (o *byOrder) Len() int { return len(o.rows) }

func (o *byOrder) Less(a, b int) bool {
	for k, ob := range o.terms {
		var c int
		if ob.outCol >= 0 {
			c = compareForSort(o.rows[a][ob.outCol], o.rows[b][ob.outCol])
		} else {
			c = compareForSort(o.keys[a][k], o.keys[b][k])
		}
		if c != 0 {
			return (c < 0) != ob.desc
		}
	}
	return false
}

func (o *byOrder) Swap(a, b int) {
	o.rows[a], o.rows[b] = o.rows[b], o.rows[a]
	if o.keys != nil {
		o.keys[a], o.keys[b] = o.keys[b], o.keys[a]
	}
}

// pick is the one access-path choice, shared by the SELECT executor
// (eachSource), the UPDATE/DELETE row matcher (Match) and the shard router
// (shardMaskOf), so they cannot disagree about which index an execution
// uses: the first candidate, in WHERE-traversal order, whose lookup values
// evaluate. ok is false when none does and the execution scans.
func pick(cands []accessCand, args []sqldb.Value) (ord int, vals []sqldb.Value, ok bool) {
	for i := range cands {
		if vals, ok := cands[i].values(args); ok {
			return cands[i].ord, vals, true
		}
	}
	return -1, nil, false
}

// values evaluates an access candidate's lookup values for this execution.
// A candidate fails (ok=false) when its value errors or is NULL — the next
// candidate, or ultimately the scan path, takes over.
func (c *accessCand) values(args []sqldb.Value) ([]sqldb.Value, bool) {
	if c.eq != nil {
		v, err := c.eq(nil, args)
		if err != nil || v == nil {
			return nil, false
		}
		return []sqldb.Value{v}, true
	}
	vals := make([]sqldb.Value, 0, len(c.in))
	var seen map[string]bool
	for _, fn := range c.in {
		v, err := fn(nil, args)
		if err != nil {
			return nil, false
		}
		if v == nil {
			continue // NULL members can never match
		}
		if seen == nil {
			seen = make(map[string]bool, len(c.in))
		}
		key := sqldb.Format(v)
		if seen[key] {
			continue // duplicate members are looked up once
		}
		seen[key] = true
		vals = append(vals, v)
	}
	return vals, true
}

// selectList expands the select list into one label and one expression per
// output column; stars become explicit column references.
func selectList(env *Env, st *sqlparse.SelectStmt, agg bool) (cols []string, exprs []sqlparse.Expr, err error) {
	addFrame := func(f frame) {
		for _, c := range f.table.Columns {
			cols = append(cols, c.Name)
			exprs = append(exprs, &sqlparse.ColRef{Table: f.binding, Name: c.Name})
		}
	}
	for _, se := range st.Cols {
		switch {
		case se.Star && agg:
			return nil, nil, fmt.Errorf("engine: * not allowed with aggregation")
		case se.Star && se.StarTable == "":
			for _, f := range env.frames {
				addFrame(f)
			}
		case se.Star:
			b := strings.ToLower(se.StarTable)
			found := false
			for _, f := range env.frames {
				if f.binding == b {
					addFrame(f)
					found = true
				}
			}
			if !found {
				return nil, nil, fmt.Errorf("engine: unknown table %q in select list", se.StarTable)
			}
		default:
			label := se.Alias
			if label == "" {
				if ref, ok := se.Expr.(*sqlparse.ColRef); ok {
					label = ref.Name
				} else {
					label = exprLabel(se.Expr)
				}
			}
			cols = append(cols, label)
			exprs = append(exprs, se.Expr)
		}
	}
	return cols, exprs, nil
}

func exprLabel(e sqlparse.Expr) string {
	switch x := e.(type) {
	case *sqlparse.FuncCall:
		if x.Star {
			return x.Name + "(*)"
		}
		return x.Name
	default:
		return "expr"
	}
}

// joinKey detects `jt.col = expr` (or mirrored) where jt.col is indexed and
// expr references only earlier frames; returns the ordinal and the left
// expression, or (-1, nil). Purely static — shape, index presence, and
// frame membership are all schema facts.
func joinKey(env *Env, jt *storage.Table, binding string, on sqlparse.Expr) (int, sqlparse.Expr) {
	b, ok := on.(*sqlparse.Binary)
	if !ok || b.Op != sqlparse.OpEq {
		return -1, nil
	}
	try := func(colSide, otherSide sqlparse.Expr) (int, sqlparse.Expr) {
		ref, ok := colSide.(*sqlparse.ColRef)
		if !ok || !strings.EqualFold(ref.Table, binding) {
			return -1, nil
		}
		ord, ok := jt.ColOrdinal(ref.Name)
		if !ok || !jt.HasIndex(ord) {
			return -1, nil
		}
		// otherSide must not reference the join table binding.
		for _, r := range sqlparse.CollectColRefs(otherSide, nil) {
			if r.Table == "" || strings.EqualFold(r.Table, binding) {
				return -1, nil
			}
		}
		return ord, otherSide
	}
	if ord, e := try(b.L, b.R); ord >= 0 {
		return ord, e
	}
	return try(b.R, b.L)
}

// accessCands walks the WHERE clause in the interpreter's traversal order,
// collecting every statically-indexable `col = const` / `col IN (consts)`
// conjunct over the FROM table. Value expressions compile against an empty
// environment: they must be parameter/literal computations (column
// references were excluded statically, mirroring the old constValue check).
func accessCands(t *storage.Table, binding string, e sqlparse.Expr) []accessCand {
	var out []accessCand
	var walk func(e sqlparse.Expr)
	empty := NewEnv()
	walk = func(e sqlparse.Expr) {
		switch x := e.(type) {
		case *sqlparse.Binary:
			switch x.Op {
			case sqlparse.OpAnd:
				walk(x.L)
				walk(x.R)
			case sqlparse.OpEq:
				if c, ok := eqCand(t, binding, x.L, x.R, empty); ok {
					out = append(out, c)
				} else if c, ok := eqCand(t, binding, x.R, x.L, empty); ok {
					out = append(out, c)
				}
			}
		case *sqlparse.InList:
			if x.Not {
				return
			}
			ref, ok := x.Expr.(*sqlparse.ColRef)
			if !ok {
				return
			}
			if ref.Table != "" && !strings.EqualFold(ref.Table, binding) {
				return
			}
			ord, ok := t.ColOrdinal(ref.Name)
			if !ok || !t.HasIndex(ord) {
				return
			}
			members := make([]EvalFn, 0, len(x.List))
			for _, m := range x.List {
				if len(sqlparse.CollectColRefs(m, nil)) > 0 {
					return // column-dependent member: not a constant lookup
				}
				members = append(members, Compile(m, empty))
			}
			out = append(out, accessCand{ord: ord, in: members})
		}
	}
	walk(e)
	return out
}

// eqCand checks the `colSide = valSide` shape statically.
func eqCand(t *storage.Table, binding string, colSide, valSide sqlparse.Expr, empty *Env) (accessCand, bool) {
	ref, ok := colSide.(*sqlparse.ColRef)
	if !ok {
		return accessCand{}, false
	}
	if ref.Table != "" && !strings.EqualFold(ref.Table, binding) {
		return accessCand{}, false
	}
	ord, ok := t.ColOrdinal(ref.Name)
	if !ok || !t.HasIndex(ord) {
		return accessCand{}, false
	}
	if len(sqlparse.CollectColRefs(valSide, nil)) > 0 {
		return accessCand{}, false
	}
	return accessCand{ord: ord, eq: Compile(valSide, empty)}, true
}

// hasAggregates reports whether the select list or HAVING uses aggregates
// or the statement has a GROUP BY.
func hasAggregates(st *sqlparse.SelectStmt) bool {
	if len(st.GroupBy) > 0 || st.Having != nil {
		return true
	}
	for _, c := range st.Cols {
		if c.Star {
			continue
		}
		if sqlparse.HasAggregate(c.Expr) {
			return true
		}
	}
	return false
}

// compareForSort orders values with NULLs first, incomparables equal.
func compareForSort(a, b sqldb.Value) int {
	if a == nil && b == nil {
		return 0
	}
	if a == nil {
		return -1
	}
	if b == nil {
		return 1
	}
	c, err := sqldb.Compare(a, b)
	if err != nil {
		return 0
	}
	return c
}

// AccessDesc names the plan's static access path — "index-eq(col)",
// "index-in(col)", or "scan" — for the tracing layer's per-statement
// spans. It describes the first candidate, the one the executor tries
// first; a NULL-valued parameter can still de-index an individual
// execution at runtime.
func (p *SelectPlan) AccessDesc() string {
	for i := range p.access {
		c := &p.access[i]
		name := p.from.Columns[c.ord].Name
		if c.eq != nil {
			return "index-eq(" + name + ")"
		}
		if len(c.in) > 0 {
			return "index-in(" + name + ")"
		}
	}
	return "scan"
}
