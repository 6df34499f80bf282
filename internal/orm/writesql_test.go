package orm_test

import (
	"reflect"
	"testing"

	"repro/internal/apps/itracker"
	"repro/internal/apps/openmrs"
	"repro/internal/orm"
)

// visit is the access_log mapping the session workloads insert through.
type visit struct {
	ID      int64 `orm:"id,pk"`
	Session int64 `orm:"session_id"`
	Page    int64 `orm:"page_id"`
}

// keyOnly and keyLast are the edge shapes: nothing to SET, and a key that
// is not the first column.
type keyOnly struct {
	ID int64 `orm:"id,pk"`
}

type keyLast struct {
	Name string `orm:"name"`
	ID   int64  `orm:"id,pk"`
}

type writeSQL interface {
	Table() string
	WriteSQL() [3]string
	ConcatWriteSQL() [3]string
}

// TestWriteSQLMatchesPerCallBuilder: the INSERT, UPDATE and DELETE text
// Register builds is byte-identical to what the per-call builders produced,
// for every mapping the applications register.
func TestWriteSQLMatchesPerCallBuilder(t *testing.T) {
	var metas []writeSQL
	for _, set := range []any{itracker.NewMetas(), openmrs.NewMetas()} {
		v := reflect.ValueOf(set).Elem()
		for i := 0; i < v.NumField(); i++ {
			if m, ok := v.Field(i).Interface().(writeSQL); ok {
				metas = append(metas, m)
			}
		}
	}
	if len(metas) < 30 {
		t.Fatalf("found %d mappings in the two applications", len(metas))
	}
	metas = append(metas, orm.MustRegister[visit]("access_log"),
		orm.MustRegister[keyOnly]("key_only"), orm.MustRegister[keyLast]("key_last"))
	for _, m := range metas {
		if got, want := m.WriteSQL(), m.ConcatWriteSQL(); got != want {
			t.Errorf("%s: write SQL\n%q\nwant\n%q", m.Table(), got, want)
		}
	}
	if got := metas[len(metas)-1].WriteSQL(); got != [3]string{
		"INSERT INTO key_last (name, id) VALUES (?, ?)",
		"UPDATE key_last SET name = ? WHERE id = ?",
		"DELETE FROM key_last WHERE id = ?",
	} {
		t.Errorf("key_last write SQL = %q", got)
	}
}
