package storage

import "fmt"

// undoKind tags entries in a transaction's undo log.
type undoKind int

const (
	undoInsert undoKind = iota // row was inserted; undo deletes it
	undoDelete                 // row was deleted; undo reinserts it
	undoUpdate                 // row was updated; undo restores the old image
)

// undoEntry is one logged mutation.
type undoEntry struct {
	kind  undoKind
	table *Table
	id    RowID
	old   Row // prior image for undoDelete/undoUpdate
}

// Txn is an undo-log transaction over a Store. The engine creates one per
// connection on BEGIN; autocommit statements run in an implicit transaction
// that commits immediately. Rollback replays the undo log in reverse.
type Txn struct {
	store *Store
	log   []undoEntry
	done  bool
}

// Begin opens a transaction. The store lock is NOT held across the
// transaction; each mutation acquires it internally via the engine's
// statement execution, so Txn only records undo information.
func (s *Store) Begin() *Txn {
	return &Txn{store: s}
}

// LogInsert records that the row id was inserted into t.
func (tx *Txn) LogInsert(t *Table, id RowID) {
	tx.log = append(tx.log, undoEntry{kind: undoInsert, table: t, id: id})
}

// LogDelete records the prior image of a deleted row.
func (tx *Txn) LogDelete(t *Table, id RowID, old Row) {
	tx.log = append(tx.log, undoEntry{kind: undoDelete, table: t, id: id, old: old.clone()})
}

// LogUpdate records the prior image of an updated row.
func (tx *Txn) LogUpdate(t *Table, id RowID, old Row) {
	tx.log = append(tx.log, undoEntry{kind: undoUpdate, table: t, id: id, old: old.clone()})
}

// Commit makes the transaction's effects permanent (they are already
// visible; commit just discards the undo log).
func (tx *Txn) Commit() error {
	if tx.done {
		return fmt.Errorf("storage: transaction already finished")
	}
	tx.done = true
	tx.log = nil
	return nil
}

// Rollback undoes every logged mutation in reverse order. The caller must
// hold the store lock.
func (tx *Txn) Rollback() error {
	if tx.done {
		return fmt.Errorf("storage: transaction already finished")
	}
	tx.done = true
	for i := len(tx.log) - 1; i >= 0; i-- {
		e := tx.log[i]
		switch e.kind {
		case undoInsert:
			e.table.Delete(e.id)
		case undoDelete, undoUpdate:
			e.table.insertAt(e.id, e.old)
		}
	}
	tx.log = nil
	return nil
}
