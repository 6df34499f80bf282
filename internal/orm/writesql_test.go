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

// keyOnly and keyLast are the edge shapes: a mapping that is all key, and
// a key that is not the first column.
type keyOnly struct {
	ID int64 `orm:"id,pk"`
}

type keyLast struct {
	Name string `orm:"name"`
	ID   int64  `orm:"id,pk"`
}

type writeSQL interface {
	Table() string
	InsertSQL() string
	ConcatInsertSQL() string
}

// TestWriteSQLMatchesPerCallBuilder: the INSERT text Register builds is
// byte-identical to what the per-call builder produced, for every mapping
// the applications register.
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
		if got, want := m.InsertSQL(), m.ConcatInsertSQL(); got != want {
			t.Errorf("%s: insert SQL\n%q\nwant\n%q", m.Table(), got, want)
		}
	}
	if got := metas[len(metas)-1].InsertSQL(); got != "INSERT INTO key_last (name, id) VALUES (?, ?)" {
		t.Errorf("key_last insert SQL = %q", got)
	}
}
