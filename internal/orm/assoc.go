package orm

import "repro/internal/sqldb"

// FetchMode selects an association's fetching strategy (paper Sec. 1). The
// choice only affects ModeOriginal sessions: Sloth fetches entities exactly
// when the application demands them, making the annotation irrelevant —
// one of the paper's headline usability claims.
type FetchMode int

const (
	// FetchLazy loads the association on first access (one round trip per
	// access — the source of Hibernate's 1+N problem).
	FetchLazy FetchMode = iota
	// FetchEager loads the association immediately with its owner, wasting
	// queries when the association is never used.
	FetchEager
)

// HasMany is a one-to-many association: parent P owns the C rows whose
// foreign-key column equals the parent's primary key.
type HasMany[P, C any] struct {
	parent *Meta[P]
	child  *Meta[C]
	fkCond string // "<fk column> = ?", built once
	mode   FetchMode
}

// NewHasMany declares the association. With FetchEager, loading a P under
// ModeOriginal immediately loads its C children too (and their cascades).
func NewHasMany[P, C any](parent *Meta[P], child *Meta[C], fkCol string, mode FetchMode) *HasMany[P, C] {
	a := &HasMany[P, C]{parent: parent, child: child, fkCond: fkCol + " = ?", mode: mode}
	if mode == FetchEager {
		parent.EagerLoad(func(s *Session, e *P) {
			s.stats.EagerLoads++
			// Result is loaded (and cached in the identity map) whether or
			// not the application ever looks at it — the waste the paper
			// attributes to eager fetching.
			_, _ = a.Of(s, parent.pkOf(e)).Get()
		})
	}
	return a
}

// Of returns the children of the given parent id. Under ModeSloth this is
// an unforced thunk whose query is already registered.
func (a *HasMany[P, C]) Of(s *Session, parentID int64) Lazy[[]*C] {
	return a.child.Where(s, a.fkCond, parentID)
}

// OfWhere narrows the association with an extra condition appended with
// AND; args follow the parent id.
func (a *HasMany[P, C]) OfWhere(s *Session, parentID int64, cond string, args ...sqldb.Value) Lazy[[]*C] {
	allArgs := append([]sqldb.Value{parentID}, args...)
	return a.child.Where(s, a.fkCond+" AND ("+cond+")", allArgs...)
}

// CountOf counts children without materializing them.
func (a *HasMany[P, C]) CountOf(s *Session, parentID int64) Lazy[int64] {
	return a.child.CountWhere(s, a.fkCond, parentID)
}

// BelongsTo is a many-to-one association: each C references one P through a
// foreign key value carried on the child.
type BelongsTo[C, P any] struct {
	child  *Meta[C]
	parent *Meta[P]
	mode   FetchMode
}

// NewBelongsTo declares the association. fk extracts the foreign-key value
// from a child entity. With FetchEager, loading a C under ModeOriginal
// immediately loads the referenced P (reference hydration — the cascade
// that inflates original-application query counts).
func NewBelongsTo[C, P any](child *Meta[C], parent *Meta[P], fk func(*C) int64, mode FetchMode) *BelongsTo[C, P] {
	a := &BelongsTo[C, P]{child: child, parent: parent, mode: mode}
	if mode == FetchEager {
		child.EagerLoad(func(s *Session, e *C) {
			id := fk(e)
			if id == 0 {
				return
			}
			s.stats.EagerLoads++
			_, _ = parent.Find(s, id).Get()
		})
	}
	return a
}

// Ref resolves the referenced parent for a foreign key value.
func (a *BelongsTo[C, P]) Ref(s *Session, fkValue int64) Lazy[*P] {
	return a.parent.Find(s, fkValue)
}
