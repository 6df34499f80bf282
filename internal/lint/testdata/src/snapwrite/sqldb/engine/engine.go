// Package engine is the snapwrite fixture root layer: every SnapSession
// method is a snapshot entry point. Cross-package reachability flows in
// through the plan package's exported fact.
package engine

import (
	"sqldb/plan"
	"sqldb/storage"
)

type SnapSession struct {
	tab   *storage.Table
	store *storage.Store
}

// Reads are fine.
func (s *SnapSession) ExecSelect() int {
	return s.sum()
}

func (s *SnapSession) sum() int {
	n := 0
	for i := 0; i < s.tab.Len(); i++ {
		n += s.tab.Get(i)
	}
	return n
}

// Direct mutation from a snapshot root: opening a Write is the violation,
// whatever its fn does.
func (s *SnapSession) BadWrite(v int) { // want "snapshot entry point (SnapSession).BadWrite reaches a storage mutation: (SnapSession).BadWrite -> (Store).Write"
	s.store.Write(func(w *storage.Writer) error {
		w.Insert(s.tab, v)
		return nil
	})
}

// A Writer smuggled in from elsewhere is caught at its methods.
func (s *SnapSession) BadWriter(w *storage.Writer) { // want "(SnapSession).BadWriter -> (Writer).Insert"
	w.Insert(s.tab, 1)
}

// Locking is as forbidden as writing: the writer may be blocked on us.
func (s *SnapSession) BadLock() { // want "(SnapSession).BadLock reaches a storage mutation: (SnapSession).BadLock -> (Store).Lock"
	s.store.Lock()
}

// Mutation through an imported package, seen via the plan fact.
func (s *SnapSession) BadViaPlan(p *plan.UpsertPlan) int { // want "(SnapSession).BadViaPlan reaches a storage mutation"
	return p.ExecSnap()
}

// Clean cross-package call: SelectPlan.ExecSnap has no mutating chain.
func (s *SnapSession) GoodViaPlan(p *plan.SelectPlan) int {
	return p.ExecSnap()
}

// Helpers outside the SnapSession receiver are not roots even when they
// mutate: the write path legitimately writes.
type WriteSession struct {
	tab   *storage.Table
	store *storage.Store
}

func (ws *WriteSession) Apply(v int) {
	ws.store.Write(func(w *storage.Writer) error {
		w.Insert(ws.tab, v)
		return nil
	})
}
