package plan

import (
	"fmt"

	"repro/internal/sqldb"
	"repro/internal/sqldb/sqlparse"
	"repro/internal/sqldb/storage"
)

// Write plans cache the resolution work of mutating statements: table and
// column ordinals, compiled value/SET expressions, and the compiled WHERE
// access path. The engine keeps the execution loops (it owns the
// statement's publication scope); the plans supply everything that used to be re-derived
// per call.

// InsertPlan is a compiled INSERT. Row arity is checked at execution time
// per row (len(RowFns[i]) vs len(Ordinals)): a multi-row INSERT whose later
// row is malformed still applies the earlier rows, as before.
type InsertPlan struct {
	T        *storage.Table
	Ordinals []int
	RowFns   [][]EvalFn
}

// CompileInsert resolves the target table and column ordinals and compiles
// the value expressions (against an empty environment: INSERT values may
// not reference columns). The caller must hold the store lock.
func CompileInsert(st *sqlparse.InsertStmt, store *storage.Store) (*InsertPlan, error) {
	t, ok := store.Table(st.Table)
	if !ok {
		return nil, fmt.Errorf("engine: unknown table %q", st.Table)
	}
	p := &InsertPlan{T: t}
	// Map statement columns to table ordinals; default is positional.
	if st.Cols == nil {
		for i := range t.Columns {
			p.Ordinals = append(p.Ordinals, i)
		}
	} else {
		for _, name := range st.Cols {
			i, ok := t.ColOrdinal(name)
			if !ok {
				return nil, fmt.Errorf("engine: table %q has no column %q", st.Table, name)
			}
			p.Ordinals = append(p.Ordinals, i)
		}
	}
	empty := NewEnv()
	for _, exprRow := range st.Rows {
		fns := make([]EvalFn, len(exprRow))
		for j, e := range exprRow {
			fns[j] = Compile(e, empty)
		}
		p.RowFns = append(p.RowFns, fns)
	}
	return p, nil
}

// UpdatePlan is a compiled UPDATE.
type UpdatePlan struct {
	T       *storage.Table
	SetOrds []int
	SetFns  []EvalFn
	Access  TableAccess
}

// CompileUpdate resolves SET ordinals and compiles SET expressions and the
// WHERE access path. The caller must hold the store lock.
func CompileUpdate(st *sqlparse.UpdateStmt, store *storage.Store) (*UpdatePlan, error) {
	t, ok := store.Table(st.Table)
	if !ok {
		return nil, fmt.Errorf("engine: unknown table %q", st.Table)
	}
	env := NewEnv()
	if _, err := env.AddFrame(st.Table, t); err != nil {
		return nil, err
	}
	p := &UpdatePlan{T: t}
	for _, a := range st.Sets {
		ord, ok := t.ColOrdinal(a.Col)
		if !ok {
			return nil, fmt.Errorf("engine: table %q has no column %q", st.Table, a.Col)
		}
		p.SetOrds = append(p.SetOrds, ord)
		p.SetFns = append(p.SetFns, Compile(a.Expr, env))
	}
	p.Access = compileTableAccess(t, st.Table, st.Where, env)
	return p, nil
}

// DeletePlan is a compiled DELETE.
type DeletePlan struct {
	T      *storage.Table
	Access TableAccess
}

// CompileDelete compiles the WHERE access path. The caller must hold the
// store lock.
func CompileDelete(st *sqlparse.DeleteStmt, store *storage.Store) (*DeletePlan, error) {
	t, ok := store.Table(st.Table)
	if !ok {
		return nil, fmt.Errorf("engine: unknown table %q", st.Table)
	}
	env := NewEnv()
	if _, err := env.AddFrame(st.Table, t); err != nil {
		return nil, err
	}
	return &DeletePlan{T: t, Access: compileTableAccess(t, st.Table, st.Where, env)}, nil
}

// TableAccess is the compiled row-matching path of an UPDATE or DELETE:
// index candidates plus the compiled WHERE filter over single-table rows.
type TableAccess struct {
	t      *storage.Table
	access []accessCand
	where  EvalFn // nil when the statement has no WHERE clause
}

func compileTableAccess(t *storage.Table, binding string, where sqlparse.Expr, env *Env) TableAccess {
	a := TableAccess{t: t, access: accessCands(t, binding, where)}
	if where != nil {
		a.where = Compile(where, env)
	}
	return a
}

// Match returns ids of rows satisfying the WHERE clause, through the index
// path pick chooses or a scan, plus the scanned-row count. WHERE
// evaluates on the stored row images, which it only reads — no copies. The
// caller must hold the store lock.
func (a *TableAccess) Match(args []sqldb.Value) ([]storage.RowID, int, error) {
	var out []storage.RowID
	var err error
	scanned := 0
	visit := func(id storage.RowID, row storage.Row) bool {
		scanned++
		if a.where != nil {
			v, werr := a.where(row, args)
			if werr != nil {
				err = werr
				return false
			}
			if v == nil || !sqldb.Truthy(v) {
				return true
			}
		}
		out = append(out, id)
		return true
	}
	var key [1]sqldb.Value
	if c, vals := pick(a.access, args, key[:0]); c != nil {
		for _, val := range vals {
			for _, id := range a.t.Lookup(c.ord, val) {
				if row, ok := a.t.RowAt(id, nil); ok && !visit(id, row) {
					return nil, scanned, err
				}
			}
		}
		return out, scanned, nil
	}
	a.t.Scan(visit)
	if err != nil {
		return nil, scanned, err
	}
	return out, scanned, nil
}
