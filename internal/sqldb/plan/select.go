package plan

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"

	"repro/internal/sqldb"
	"repro/internal/sqldb/sqlparse"
	"repro/internal/sqldb/storage"
)

// SelectPlan is one SELECT statement compiled against a schema epoch:
// resolved table pointers and column ordinals, the chosen access path
// (index-eq / index-IN / ordered range probe / scan), join strategies, and
// every expression compiled to a closure over row slices. A plan executes
// many times; only argument values vary per execution.
type SelectPlan struct {
	env      *Env
	from     *storage.Table
	access   []accessCand
	joins    []joinPlan
	where    EvalFn // nil when the statement has no WHERE clause
	agg      *aggPlan
	cols     []string
	projs    []EvalFn
	whole    bool // the select list is the source row, column for column
	orderBy  []orderItem
	orderSrc bool // some ORDER BY term is a key over the source or group row
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
//
// When the column's index is a two-column one (a, b), the equality form is
// an ordered candidate: it also carries the first lower and first upper
// bound `b {=,>=,>,<=,<} const` among the WHERE conjuncts, which the probe
// binary-searches instead of filtering, and — when the statement's ORDER BY
// is exactly b — the order to probe in, which replaces the sort. WHERE
// still runs in full on every row delivered, so a bound is only ever an
// optimization: one that cannot be used is simply left open.
type accessCand struct {
	ord int
	eq  EvalFn   // set for the equality form
	in  []EvalFn // set for the IN form

	by     int           // ordered: b's ordinal; -1 on every other candidate
	byType sqldb.Type    // ordered: b's column type, which a bound must fit
	lo, hi bound         // ordered: bounds on b, open when fn is nil
	order  storage.Order // ordered: ByKey/ByKeyDesc when that is the ORDER BY
}

// bound is one compiled `b op const` limit of an ordered candidate.
type bound struct {
	fn   EvalFn
	excl bool
}

// value evaluates a bound for one execution. A bound that errors, is NULL,
// or cannot be compared with b's type stays open (nil): WHERE then meets
// the same rows it would without the index and reports what it always did.
func (b bound) value(t sqldb.Type, args []sqldb.Value) sqldb.Value {
	if b.fn == nil {
		return nil
	}
	v, err := b.fn(nil, args)
	if err != nil {
		return nil
	}
	switch v.(type) {
	case int64, float64:
		if t == sqldb.TypeInt {
			return v
		}
	case string:
		if t == sqldb.TypeText {
			return v
		}
	case bool:
		if t == sqldb.TypeBool {
			return v
		}
	}
	return nil
}

// span is the range of b an ordered candidate probes in this execution.
func (c *accessCand) span(args []sqldb.Value) storage.Range {
	return storage.Range{
		Lo: c.lo.value(c.byType, args), LoExcl: c.lo.excl,
		Hi: c.hi.value(c.byType, args), HiExcl: c.hi.excl,
	}
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
// an expression compiled against the row each output row comes from — the
// source row, or an aggregate plan's group row, where it reads the group's
// sample columns and aggregate calls as the select list and HAVING do.
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
	for _, ob := range st.OrderBy {
		item := orderItem{outCol: outputCol(env, cols, exprs, ob.Expr), desc: ob.Desc}
		p.orderSrc = p.orderSrc || item.outCol < 0
		p.orderBy = append(p.orderBy, item)
	}
	if agg {
		p.agg = compileAggPlan(st, exprs, p.orderBy, env)
	} else {
		for _, e := range exprs {
			p.projs = append(p.projs, Compile(e, env))
		}
		p.whole = wholeRow(env, exprs)
		compileOrderKeys(st, p.orderBy, env)
	}
	p.pushOrder(st, exprs)
	return p, nil
}

// compileOrderKeys compiles, against env, the ORDER BY terms that name no
// output column.
func compileOrderKeys(st *sqlparse.SelectStmt, order []orderItem, env *Env) {
	for i := range order {
		if order[i].outCol < 0 {
			order[i].key = Compile(st.OrderBy[i].Expr, env)
		}
	}
}

// pushOrder marks the ordered candidates that deliver rows already in the
// statement's order. That needs the output to be the source stream —
// one table, no aggregation, no DISTINCT — and ORDER BY to be exactly the
// candidate's ordering column, named directly or through the select list.
func (p *SelectPlan) pushOrder(st *sqlparse.SelectStmt, exprs []sqlparse.Expr) {
	if len(p.joins) > 0 || p.agg != nil || p.distinct || len(p.orderBy) != 1 {
		return
	}
	e := st.OrderBy[0].Expr
	if oc := p.orderBy[0].outCol; oc >= 0 {
		e = exprs[oc]
	}
	ref, ok := e.(*sqlparse.ColRef)
	if !ok {
		return
	}
	pos, err := p.env.resolve(ref)
	if err != nil {
		return
	}
	for i := range p.access {
		if c := &p.access[i]; c.by == pos {
			c.order = storage.ByKey
			if p.orderBy[0].desc {
				c.order = storage.ByKeyDesc
			}
		}
	}
}

// wholeRow reports whether the select list projects the combined source row
// as it is: one column reference per row position, in row order — `SELECT *`
// over one table or a join, or every column named in declaration order.
// Such a plan's output row is the source row itself (see sink.add).
func wholeRow(env *Env, exprs []sqlparse.Expr) bool {
	if len(exprs) != env.width {
		return false
	}
	for i, e := range exprs {
		ref, ok := e.(*sqlparse.ColRef)
		if !ok {
			return false
		}
		if pos, err := env.resolve(ref); err != nil || pos != i {
			return false
		}
	}
	return true
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

// Exec runs the plan against the latest store state, working in sc, and
// takes the result from a (nil: allocates it). The caller must hold the
// store lock.
func (p *SelectPlan) Exec(args []sqldb.Value, sc *Scratch, a *sqldb.Arena) (*sqldb.ResultSet, error) {
	return p.exec(args, nil, sc, a)
}

// ExecSnap runs the plan against a pinned snapshot, working in sc, and
// takes the result from a (nil: allocates it). The caller holds the store's
// structural read lock, not the writer mutex: snapshot executions run
// concurrently with each other while writes stay serialized.
func (p *SelectPlan) ExecSnap(args []sqldb.Value, snap *storage.Snap, sc *Scratch, a *sqldb.Arena) (*sqldb.ResultSet, error) {
	return p.exec(args, snap, sc, a)
}

// Scratch is an executing context's working room for SELECTs: the rows and
// ORDER BY keys an execution accumulates, the sort over them, DISTINCT's
// row set and the aggregation state. An engine session owns one, and so
// does each DB worker for the snapshot batches it runs; each runs one
// execution in it at a time. A result never refers to a Scratch — finish
// copies the final window out — and every execution clears the part it
// used, so a Scratch keeps the capacity its largest execution needed but no
// row of it. The zero value is ready to use.
type Scratch struct {
	rows    [][]sqldb.Value
	keys    []sqldb.Value   // the rows' ORDER BY keys, len(orderBy) per row
	keyRows [][]sqldb.Value // keyRows[i]: rows[i]'s keys, built for the sort
	order   byOrder
	set     rowSet
	agg     aggRun
}

func (p *SelectPlan) exec(args []sqldb.Value, snap *storage.Snap, sc *Scratch, a *sqldb.Arena) (*sqldb.ResultSet, error) {
	s := sink{p: p, args: args, snap: snap, sc: sc, rows: sc.rows[:0], keys: sc.keys[:0]}
	if p.agg != nil {
		s.run = sc.agg.start(p.agg)
	}
	err := p.eachSource(&s)
	var rs *sqldb.ResultSet
	if err == nil || err == errFull {
		rs, err = s.finish(a)
	}
	s.end()
	return rs, err
}

// errFull stops a source stream that arrives in ORDER BY order once
// OFFSET + LIMIT rows have passed WHERE; exec treats it as completion.
var errFull = errors.New("plan: limit reached")

// eachSource feeds s the FROM table's rows, through the index path pick
// chooses or a scan. The rows alias the immutable stored images — zero
// copies; every consumer downstream only reads them.
func (p *SelectPlan) eachSource(s *sink) error {
	c, vals := pick(p.access, s.args, s.key[:0])
	switch {
	case c == nil:
		return p.from.ScanEach(s.snap, s.source)
	case c.by >= 0:
		s.sorted = c.order != storage.ByID
		return p.from.ProbeEach(c.ord, vals[0], c.span(s.args), c.order, s.snap, s.source)
	}
	for _, val := range vals {
		if err := p.from.LookupEach(c.ord, val, s.snap, s.source); err != nil {
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
	sc      *Scratch
	scanned int
	sorted  bool            // the source delivers in ORDER BY order: no sort, stop when full
	run     *aggRun         // aggregate plans: the accumulating groups
	rows    [][]sqldb.Value // output rows, in sc: projected, or the aggregates' at finish
	keys    []sqldb.Value   // in sc: rows[i]'s ORDER BY keys at [i*w, (i+1)*w), when p.orderSrc
	key     [1]sqldb.Value  // pick's room for an equality lookup value
}

func (s *sink) source(r storage.Row) error {
	s.scanned++
	if err := s.join(0, r); err != nil {
		return err
	}
	if s.sorted && s.p.limit >= 0 && len(s.rows)-s.p.offset >= s.p.limit {
		return errFull
	}
	return nil
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
	var out []sqldb.Value
	if p.whole {
		// The output row is the source row: a stored image is immutable and
		// a joined row is built fresh for this match, so the result keeps
		// either without a copy — capped, so no reader's append can write
		// into the stored array.
		out = row[:len(row):len(row)]
	} else {
		out = make([]sqldb.Value, len(p.projs))
		for i, fn := range p.projs {
			v, err := fn(row, s.args)
			if err != nil {
				return err
			}
			out[i] = v
		}
	}
	s.rows = append(s.rows, out)
	if !p.orderSrc || s.sorted {
		return nil
	}
	return s.addKeys(row)
}

// addKeys computes the last output row's ORDER BY keys from the row it came
// from (source or group row): output rows carry only projected values, so
// keys over anything else are computed while that row is at hand.
func (s *sink) addKeys(from []sqldb.Value) error {
	for _, ob := range s.p.orderBy {
		var v sqldb.Value
		if ob.key != nil {
			var err error
			if v, err = ob.key(from, s.args); err != nil {
				return err
			}
		}
		s.keys = append(s.keys, v)
	}
	return nil
}

// finish renders aggregates, sorts once, applies DISTINCT/OFFSET/LIMIT
// and takes the result at its final size from a (sqldb.Arena.Result):
// everything before that copy works in the scratch.
func (s *sink) finish(a *sqldb.Arena) (*sqldb.ResultSet, error) {
	p := s.p
	if s.run != nil {
		if err := s.run.finish(s); err != nil {
			return nil, err
		}
	}
	if len(p.orderBy) > 0 && len(s.rows) > 0 && !s.sorted {
		// ORDER BY runs before DISTINCT: DISTINCT then keeps the first
		// occurrence, preserving sortedness.
		o := &s.sc.order
		*o = byOrder{terms: p.orderBy, rows: s.rows}
		if len(s.keys) > 0 {
			w := len(p.orderBy)
			for i := range s.rows {
				s.sc.keyRows = append(s.sc.keyRows, s.keys[i*w:(i+1)*w:(i+1)*w])
			}
			o.keys = s.sc.keyRows
		}
		sort.Stable(o)
	}
	rows := s.rows
	if p.distinct {
		rows = s.sc.set.distinct(rows)
	}
	if p.offset > 0 {
		rows = rows[min(p.offset, len(rows)):]
	}
	if p.limit >= 0 && len(rows) > p.limit {
		rows = rows[:p.limit]
	}
	return a.Result(p.cols, rows, s.scanned), nil
}

// end hands the execution's buffers back to the scratch, cleared: the rows,
// keys, sort views and aggregation state an execution left behind must not
// stay reachable from it.
func (s *sink) end() {
	sc := s.sc
	clear(s.rows)
	clear(s.keys)
	clear(sc.keyRows)
	sc.rows, sc.keys, sc.keyRows = s.rows[:0], s.keys[:0], sc.keyRows[:0]
	sc.order = byOrder{}
	if s.run != nil {
		s.run.end()
	}
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
			c = sqldb.CompareOrder(o.rows[a][ob.outCol], o.rows[b][ob.outCol])
		} else {
			c = sqldb.CompareOrder(o.keys[a][k], o.keys[b][k])
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
// evaluate, with those values. nil when none does and the execution scans.
// The values are appended to buf, so a caller that passes room for one
// (every equality lookup) allocates nothing for them.
func pick(cands []accessCand, args, buf []sqldb.Value) (*accessCand, []sqldb.Value) {
	for i := range cands {
		if vals, ok := cands[i].values(args, buf); ok {
			return &cands[i], vals
		}
	}
	return nil, nil
}

// values evaluates an access candidate's lookup values for this execution
// onto buf. A candidate fails (ok=false) when its value errors or is NULL —
// the next candidate, or ultimately the scan path, takes over.
func (c *accessCand) values(args, buf []sqldb.Value) ([]sqldb.Value, bool) {
	if c.eq != nil {
		v, err := c.eq(nil, args)
		if err != nil || v == nil {
			return nil, false
		}
		return append(buf, v), true
	}
	vals := slices.Grow(buf, len(c.in))
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
	var conjuncts []sqlparse.Expr
	var walk func(e sqlparse.Expr)
	walk = func(e sqlparse.Expr) {
		if x, ok := e.(*sqlparse.Binary); ok && x.Op == sqlparse.OpAnd {
			walk(x.L)
			walk(x.R)
			return
		}
		conjuncts = append(conjuncts, e)
	}
	walk(e)

	var out []accessCand
	empty := NewEnv()
	for _, e := range conjuncts {
		switch x := e.(type) {
		case *sqlparse.Binary:
			if x.Op != sqlparse.OpEq {
				continue
			}
			ord, val, ok := colConst(t, binding, x.L, x.R)
			if !ok {
				ord, val, ok = colConst(t, binding, x.R, x.L)
			}
			if !ok || !t.HasIndex(ord) {
				continue
			}
			c := accessCand{ord: ord, eq: Compile(val, empty), by: -1}
			if by, ok := t.OrderedBy(ord); ok {
				c.by, c.byType = by, t.Columns[by].Type
				c.lo, c.hi = bounds(t, binding, by, conjuncts, empty)
			}
			out = append(out, c)
		case *sqlparse.InList:
			if x.Not {
				continue
			}
			ord, ok := colOrdinal(t, binding, x.Expr)
			if !ok || !t.HasIndex(ord) {
				continue
			}
			members := make([]EvalFn, 0, len(x.List))
			for _, m := range x.List {
				if len(sqlparse.CollectColRefs(m, nil)) > 0 {
					members = nil // column-dependent member: not a constant lookup
					break
				}
				members = append(members, Compile(m, empty))
			}
			if members != nil {
				out = append(out, accessCand{ord: ord, in: members, by: -1})
			}
		}
	}
	return out
}

// colOrdinal resolves e as a reference to one of the FROM table's columns.
func colOrdinal(t *storage.Table, binding string, e sqlparse.Expr) (int, bool) {
	ref, ok := e.(*sqlparse.ColRef)
	if !ok || (ref.Table != "" && !strings.EqualFold(ref.Table, binding)) {
		return 0, false
	}
	return t.ColOrdinal(ref.Name)
}

// colConst checks the `colSide op valSide` shape statically: a column of
// the FROM table against an expression that reads no column.
func colConst(t *storage.Table, binding string, colSide, valSide sqlparse.Expr) (int, sqlparse.Expr, bool) {
	ord, ok := colOrdinal(t, binding, colSide)
	if !ok || len(sqlparse.CollectColRefs(valSide, nil)) > 0 {
		return 0, nil, false
	}
	return ord, valSide, true
}

// bounds finds the first lower and the first upper limit on column by among
// the conjuncts: `by op const` or `const op by`, op one of = >= > <= <.
func bounds(t *storage.Table, binding string, by int, conjuncts []sqlparse.Expr, empty *Env) (lo, hi bound) {
	for _, e := range conjuncts {
		x, ok := e.(*sqlparse.Binary)
		if !ok {
			continue
		}
		op := x.Op
		ord, val, ok := colConst(t, binding, x.L, x.R)
		if !ok {
			if ord, val, ok = colConst(t, binding, x.R, x.L); ok {
				op = mirror(op) // const op col reads col mirror(op) const
			}
		}
		if !ok || ord != by {
			continue
		}
		isLo := op == sqlparse.OpEq || op == sqlparse.OpGe || op == sqlparse.OpGt
		isHi := op == sqlparse.OpEq || op == sqlparse.OpLe || op == sqlparse.OpLt
		if isLo && lo.fn == nil {
			lo = bound{fn: Compile(val, empty), excl: op == sqlparse.OpGt}
		}
		if isHi && hi.fn == nil {
			hi = bound{fn: Compile(val, empty), excl: op == sqlparse.OpLt}
		}
	}
	return lo, hi
}

// mirror swaps the sides of an ordering comparison.
func mirror(op sqlparse.BinOp) sqlparse.BinOp {
	switch op {
	case sqlparse.OpLt:
		return sqlparse.OpGt
	case sqlparse.OpLe:
		return sqlparse.OpGe
	case sqlparse.OpGt:
		return sqlparse.OpLt
	case sqlparse.OpGe:
		return sqlparse.OpLe
	}
	return op
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

// AccessDesc names the plan's static access path — "index-eq(col)",
// "index-in(col)", "index-range(a,b)" (a two-column index probed between
// bounds on b), "index-order(a,b)" (probed in ORDER BY order, bounded or
// not: no sort, and a LIMIT stops the probe) or "scan" — for the tracing
// layer's per-statement spans. It describes the first candidate, the one
// the executor tries first; a NULL-valued parameter can still de-index an
// individual execution at runtime.
func (p *SelectPlan) AccessDesc() string {
	if len(p.access) == 0 {
		return "scan"
	}
	c := &p.access[0]
	name := p.from.Columns[c.ord].Name
	switch {
	case c.eq == nil:
		return "index-in(" + name + ")"
	case c.by >= 0 && c.order != storage.ByID:
		return "index-order(" + name + "," + p.from.Columns[c.by].Name + ")"
	case c.by >= 0 && (c.lo.fn != nil || c.hi.fn != nil):
		return "index-range(" + name + "," + p.from.Columns[c.by].Name + ")"
	}
	return "index-eq(" + name + ")"
}
