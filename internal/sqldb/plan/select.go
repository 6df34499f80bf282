package plan

import (
	"fmt"
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
	env         *Env
	from        *storage.Table
	access      []accessCand
	joins       []joinPlan
	where       EvalFn // nil when the statement has no WHERE clause
	agg         *aggPlan
	cols        []string
	projs       []EvalFn
	orderBy     []orderItem
	distinct    bool
	limit       int
	offset      int
	orderAggErr bool // ORDER BY over aggregates not naming an output column
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

// orderItem is one compiled ORDER BY term: either an output-column index
// (alias / output name reference) or a compiled source-row expression.
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

	if hasAggregates(st) {
		agg, err := compileAggPlan(st, env)
		if err != nil {
			return nil, err
		}
		p.agg = agg
		p.cols = agg.cols
	} else {
		cols, projs, err := compileSelectList(env, st)
		if err != nil {
			return nil, err
		}
		p.cols = cols
		p.projs = projs
	}

	for _, ob := range st.OrderBy {
		item := orderItem{outCol: -1, desc: ob.Desc}
		if ref, ok := ob.Expr.(*sqlparse.ColRef); ok && ref.Table == "" {
			if ci, ok := colIndex(p.cols, ref.Name); ok {
				item.outCol = ci
			}
		}
		if item.outCol < 0 {
			if p.agg != nil {
				// Raised only when a row is actually ordered, as before.
				p.orderAggErr = true
			} else {
				item.key = Compile(ob.Expr, env)
			}
		}
		p.orderBy = append(p.orderBy, item)
	}
	return p, nil
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
	if len(p.joins) == 0 {
		return p.execBlock(args, snap)
	}
	scanned := 0
	rows := p.sourceRows(args, snap, &scanned)

	var err error
	for i := range p.joins {
		rows, err = p.joins[i].exec(p.env.width, rows, args, snap, &scanned)
		if err != nil {
			return nil, err
		}
	}

	if p.where != nil {
		filtered := rows[:0:0]
		for _, row := range rows {
			v, err := p.where(row, args)
			if err != nil {
				return nil, err
			}
			if v != nil && sqldb.Truthy(v) {
				filtered = append(filtered, row)
			}
		}
		rows = filtered
	}

	var rs *sqldb.ResultSet
	if p.agg != nil {
		rs, err = p.agg.exec(rows, args)
	} else {
		rs, err = p.project(rows, args)
	}
	if err != nil {
		return nil, err
	}
	rs.RowsScanned = scanned

	// ORDER BY runs before DISTINCT so result/source row correspondence is
	// intact for order expressions over source columns; DISTINCT then keeps
	// the first occurrence, preserving sortedness.
	if len(p.orderBy) > 0 {
		if err := p.orderResult(rs, rows, args); err != nil {
			return nil, err
		}
	}

	p.finishRows(rs)
	return rs, nil
}

// finishRows applies the DISTINCT/OFFSET/LIMIT tail shared by the row and
// block executors.
func (p *SelectPlan) finishRows(rs *sqldb.ResultSet) {
	if p.distinct {
		rs.Rows = distinctRows(rs.Rows)
	}
	if p.offset > 0 {
		if p.offset >= len(rs.Rows) {
			rs.Rows = nil
		} else {
			rs.Rows = rs.Rows[p.offset:]
		}
	}
	if p.limit >= 0 && len(rs.Rows) > p.limit {
		rs.Rows = rs.Rows[:p.limit]
	}
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

// sourceRows produces the source rows for the FROM table, through the
// first viable access candidate or a scan. The emitted slices alias the
// immutable stored images — zero copies; joins and projection only read
// them (joins build fresh combined-width slices).
func (p *SelectPlan) sourceRows(args []sqldb.Value, snap *storage.Snap, scanned *int) [][]sqldb.Value {
	var rows [][]sqldb.Value
	emit := func(r storage.Row) error {
		*scanned++
		rows = append(rows, r)
		return nil
	}
	for i := range p.access {
		vals, ok := p.access[i].values(args)
		if !ok {
			continue
		}
		for _, val := range vals {
			_ = p.from.LookupEach(p.access[i].ord, val, snap, emit)
		}
		return rows
	}
	_ = p.from.ScanEach(snap, emit)
	return rows
}

// exec extends each left row with matching rows from the join table.
func (j *joinPlan) exec(width int, left [][]sqldb.Value, args []sqldb.Value, snap *storage.Snap, scanned *int) ([][]sqldb.Value, error) {
	var out [][]sqldb.Value
	for _, lrow := range left {
		matched := false
		tryRow := func(r storage.Row) error {
			*scanned++
			combined := make([]sqldb.Value, width)
			copy(combined, lrow)
			for i, v := range r {
				combined[j.jOffset+i] = v
			}
			v, err := j.on(combined, args)
			if err != nil {
				return err
			}
			if v != nil && sqldb.Truthy(v) {
				out = append(out, combined[:j.jOffset+len(r)])
				matched = true
			}
			return nil
		}

		if j.jOrd >= 0 {
			key, kerr := j.leftKey(lrow, args)
			if kerr == nil && key != nil {
				if err := j.t.LookupEach(j.jOrd, key, snap, tryRow); err != nil {
					return nil, err
				}
			}
		} else {
			if err := j.t.ScanEach(snap, tryRow); err != nil {
				return nil, err
			}
		}

		if !matched && j.kind == sqlparse.JoinLeft {
			combined := make([]sqldb.Value, j.jOffset+j.nCols)
			copy(combined, lrow)
			out = append(out, combined) // right side stays NULL
		}
	}
	return out, nil
}

// project renders the compiled non-aggregate select list.
func (p *SelectPlan) project(rows [][]sqldb.Value, args []sqldb.Value) (*sqldb.ResultSet, error) {
	rs := &sqldb.ResultSet{Cols: p.cols}
	for _, row := range rows {
		out := make([]sqldb.Value, len(p.projs))
		for i, fn := range p.projs {
			v, err := fn(row, args)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		rs.Rows = append(rs.Rows, out)
	}
	return rs, nil
}

// compileSelectList resolves stars into explicit column references and
// compiles every output expression.
func compileSelectList(env *Env, st *sqlparse.SelectStmt) ([]string, []EvalFn, error) {
	var cols []string
	var projs []EvalFn
	addCol := func(label string, e sqlparse.Expr) {
		cols = append(cols, label)
		projs = append(projs, Compile(e, env))
	}
	for _, se := range st.Cols {
		switch {
		case se.Star && se.StarTable == "":
			for _, f := range env.frames {
				for _, c := range f.table.Columns {
					addCol(c.Name, &sqlparse.ColRef{Table: f.binding, Name: c.Name})
				}
			}
		case se.Star:
			b := strings.ToLower(se.StarTable)
			found := false
			for _, f := range env.frames {
				if f.binding == b {
					for _, c := range f.table.Columns {
						addCol(c.Name, &sqlparse.ColRef{Table: f.binding, Name: c.Name})
					}
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
			addCol(label, se.Expr)
		}
	}
	return cols, projs, nil
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
		if exprHasAggregate(c.Expr) {
			return true
		}
	}
	return false
}

func exprHasAggregate(e sqlparse.Expr) bool {
	switch x := e.(type) {
	case *sqlparse.FuncCall:
		return x.IsAggregate()
	case *sqlparse.Binary:
		return exprHasAggregate(x.L) || exprHasAggregate(x.R)
	case *sqlparse.Unary:
		return exprHasAggregate(x.Expr)
	default:
		return false
	}
}

// orderResult sorts the result rows. For non-aggregate queries, order
// expressions are evaluated against the corresponding source rows; for
// aggregate queries they must reference output columns by name or alias.
func (p *SelectPlan) orderResult(rs *sqldb.ResultSet, srcRows [][]sqldb.Value, args []sqldb.Value) error {
	keys := make([][]sqldb.Value, len(rs.Rows))
	for i := range rs.Rows {
		ks := make([]sqldb.Value, len(p.orderBy))
		for k, ob := range p.orderBy {
			if ob.outCol >= 0 {
				ks[k] = rs.Rows[i][ob.outCol]
				continue
			}
			if p.orderAggErr {
				return fmt.Errorf("engine: ORDER BY over aggregates must reference output columns")
			}
			if i >= len(srcRows) {
				return fmt.Errorf("engine: internal: row correspondence lost in ORDER BY")
			}
			v, err := ob.key(srcRows[i], args)
			if err != nil {
				return err
			}
			ks[k] = v
		}
		keys[i] = ks
	}
	p.sortKeyed(rs, keys)
	return nil
}

// sortKeyed stably sorts rs.Rows by precomputed per-row key vectors
// (keys[i] aligns with rs.Rows[i], one key per ORDER BY term).
func (p *SelectPlan) sortKeyed(rs *sqldb.ResultSet, keys [][]sqldb.Value) {
	type keyed struct {
		out  []sqldb.Value
		keys []sqldb.Value
	}
	items := make([]keyed, len(rs.Rows))
	for i := range rs.Rows {
		items[i] = keyed{out: rs.Rows[i], keys: keys[i]}
	}

	sort.SliceStable(items, func(a, b int) bool {
		for k, ob := range p.orderBy {
			av, bv := items[a].keys[k], items[b].keys[k]
			c := compareForSort(av, bv)
			if c == 0 {
				continue
			}
			if ob.desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	for i := range items {
		rs.Rows[i] = items[i].out
	}
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
