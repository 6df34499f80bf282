// Package engine is the stmtscope fixture: rule 1 (scopes close on all
// paths) everywhere, rule 2 (mutations run scoped) because the import
// path ends in sqldb/engine.
package engine

import "sqldb/storage"

type Session struct {
	store *storage.Store
	tab   *storage.Table
}

// execWrite is the wrapper shape: opens a scope, invokes the func-typed
// parameter inside it.
func (s *Session) execWrite(fn func() error) error {
	s.store.BeginStmt()
	defer s.store.EndStmt()
	return fn()
}

// GoodDefer mutates inside a literal passed to the wrapper: scoped.
func (s *Session) GoodDefer(v int) error {
	return s.execWrite(func() error {
		s.tab.Insert(v)
		return nil
	})
}

// GoodStraight uses the straight-line form: Begin, simple statements,
// End — a deliberate false-positive check for both rules.
func (s *Session) GoodStraight(v int) {
	s.store.BeginStmt()
	s.tab.Insert(v)
	s.store.EndStmt()
}

// GoodStraightAssign: an assignment between Begin and End is a simple
// statement too.
func (s *Session) GoodStraightAssign(v int) int {
	s.store.BeginStmt()
	n := s.tab.Len()
	s.tab.Update(v)
	s.store.EndStmt()
	return n
}

// insertPair is only ever called from scoped contexts, so its mutations
// inherit the callers' scopes.
func (s *Session) insertPair(v int) {
	s.tab.Insert(v)
	s.tab.Insert(v + 1)
}

func (s *Session) GoodViaHelper(v int) error {
	return s.execWrite(func() error {
		s.insertPair(v)
		return nil
	})
}

// BadLeak opens a scope that a branch can exit before EndStmt.
func (s *Session) BadLeak(fail bool) {
	s.store.BeginStmt() // want "without an EndStmt guaranteed on all paths"
	if fail {
		return
	}
	s.store.EndStmt()
}

// BadUnscoped mutates with no scope anywhere in its caller chain.
func (s *Session) BadUnscoped(v int) {
	s.tab.Delete(v) // want "outside a BeginStmt/EndStmt publication scope"
}

// AllowedBulk documents a deliberate exemption.
func (s *Session) AllowedBulk(v int) {
	//slothvet:allow stmtscope(fixture: bulk load publishes per row by design)
	s.tab.Insert(v)
}
