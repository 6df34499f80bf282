// Package storage stubs the mutation surface snapwrite seeds from.
package storage

type Store struct {
	w Writer
}

func (s *Store) Write(fn func(w *Writer) error) error { return fn(&s.w) }
func (s *Store) Lock()                                {}

type Writer struct{}

func (w *Writer) Insert(t *Table, v int) { t.insert(v) }

type Table struct{ rows []int }

func (t *Table) insert(v int) { t.rows = append(t.rows, v) }
func (t *Table) Len() int     { return len(t.rows) }
func (t *Table) Get(i int) int {
	return t.rows[i]
}
