// Package storage is a stub of the real storage layer: the analyzers
// recognize it by import-path suffix, so the method set is what matters.
package storage

// Store owns the publication scope.
type Store struct{ depth int }

func (s *Store) BeginStmt() { s.depth++ }
func (s *Store) EndStmt()   { s.depth-- }

// Table carries the mutation API rule 2 guards.
type Table struct{ rows []int }

func (t *Table) Insert(v int) { t.rows = append(t.rows, v) }
func (t *Table) Update(v int) { t.rows[0] = v }
func (t *Table) Delete(v int) { t.rows = t.rows[1:] }
func (t *Table) Len() int     { return len(t.rows) }
