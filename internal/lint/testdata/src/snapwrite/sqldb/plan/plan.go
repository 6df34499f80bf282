// Package plan is the middle layer: its ExecSnap methods are snapshot
// roots themselves, and its fact carries mutation reachability upward to
// the engine package.
package plan

import "sqldb/storage"

type SelectPlan struct{ tab *storage.Table }

// ExecSnap is a snapshot root that stays read-only: clean.
func (p *SelectPlan) ExecSnap() int {
	return p.scan()
}

func (p *SelectPlan) scan() int {
	n := 0
	for i := 0; i < p.tab.Len(); i++ {
		n += p.tab.Get(i)
	}
	return n
}

type UpsertPlan struct {
	tab   *storage.Table
	store *storage.Store
}

// ExecSnap here reaches a mutation two hops down.
func (p *UpsertPlan) ExecSnap() int { // want "snapshot entry point (UpsertPlan).ExecSnap reaches a storage mutation"
	p.apply()
	return 0
}

func (p *UpsertPlan) apply() {
	p.store.Write(func(w *storage.Writer) error {
		w.Insert(p.tab, 1)
		return nil
	})
}
