package orm

import (
	"fmt"
	"maps"
	"reflect"
	"strings"
	"sync/atomic"

	"repro/internal/sqldb"
)

// colInfo maps one struct field to one table column.
type colInfo struct {
	name     string // column name
	fieldIdx int    // struct field index
	pk       bool
}

// Meta is the mapping between an entity struct T and its table, built once
// with Register and shared across sessions (like a Hibernate
// SessionFactory's metadata).
type Meta[T any] struct {
	table   string // its address is the mapping's identity-map token
	cols    []colInfo
	pkIdx   int // index into cols
	selList string
	findSQL string // SELECT ... WHERE pk = ?

	// insertSQL is Insert's statement text, built at Register like findSQL.
	insertSQL string // INSERT INTO ... (cols) VALUES (?, ...)

	// conds caches the SELECT and COUNT text per WHERE condition. Conditions
	// are the application's string constants, so the set is small and
	// read-mostly: readers load the map, a miss publishes a copy with one
	// more entry, and past maxConds texts are built without being stored, so
	// conditions assembled at run time cannot grow it.
	conds atomic.Pointer[map[string]condSQL]

	// eagerLoaders run after a ModeOriginal load of each entity,
	// reproducing Hibernate's eager fetch cascades. Each loader issues its
	// own immediate queries (and possibly nested cascades).
	eagerLoaders []func(s *Session, e *T)
}

// Register builds the mapping for entity type T stored in table. Fields
// are mapped with `orm:"column"` tags; `orm:"column,pk"` marks the primary
// key. Untagged and `orm:"-"` fields are ignored.
func Register[T any](table string) (*Meta[T], error) {
	var zero T
	rt := reflect.TypeOf(zero)
	if rt == nil || rt.Kind() != reflect.Struct {
		return nil, fmt.Errorf("orm: entity type must be a struct, got %v", rt)
	}
	m := &Meta[T]{table: table, pkIdx: -1}
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		tag := f.Tag.Get("orm")
		if tag == "" || tag == "-" {
			continue
		}
		parts := strings.Split(tag, ",")
		ci := colInfo{name: parts[0], fieldIdx: i}
		for _, opt := range parts[1:] {
			if opt == "pk" {
				ci.pk = true
			}
		}
		switch f.Type.Kind() {
		case reflect.Int64, reflect.String, reflect.Float64, reflect.Bool:
		default:
			return nil, fmt.Errorf("orm: field %s.%s: unsupported type %v (use int64, string, float64, or bool)", rt.Name(), f.Name, f.Type)
		}
		if ci.pk {
			if m.pkIdx != -1 {
				return nil, fmt.Errorf("orm: entity %s has multiple pk fields", rt.Name())
			}
			if f.Type.Kind() != reflect.Int64 {
				return nil, fmt.Errorf("orm: pk field %s.%s must be int64", rt.Name(), f.Name)
			}
			m.pkIdx = len(m.cols)
		}
		m.cols = append(m.cols, ci)
	}
	if len(m.cols) == 0 {
		return nil, fmt.Errorf("orm: entity %s maps no columns", rt.Name())
	}
	if m.pkIdx == -1 {
		return nil, fmt.Errorf("orm: entity %s has no pk field", rt.Name())
	}
	names := make([]string, len(m.cols))
	for i, c := range m.cols {
		names[i] = c.name
	}
	m.selList = strings.Join(names, ", ")
	m.findSQL = m.buildSQL(m.PKColumn() + " = ?").sel
	m.insertSQL = "INSERT INTO " + table + " (" + m.selList + ") VALUES (" +
		strings.Repeat("?, ", len(names)-1) + "?)"
	return m, nil
}

// MustRegister is Register panicking on error, for package-level metadata.
func MustRegister[T any](table string) *Meta[T] {
	m, err := Register[T](table)
	if err != nil {
		panic(err)
	}
	return m
}

// PKColumn returns the primary key column name.
func (m *Meta[T]) PKColumn() string { return m.cols[m.pkIdx].name }

// pkOf extracts the primary key value from an entity.
func (m *Meta[T]) pkOf(e *T) int64 {
	return reflect.ValueOf(e).Elem().Field(m.cols[m.pkIdx].fieldIdx).Int()
}

// condSQL is the statement text for one WHERE condition ("" for none).
type condSQL struct{ sel, count string }

// maxConds bounds a Meta's condition cache.
const maxConds = 256

func (m *Meta[T]) buildSQL(where string) condSQL {
	from := " FROM " + m.table
	if where != "" {
		from += " WHERE " + where
	}
	return condSQL{sel: "SELECT " + m.selList + from, count: "SELECT COUNT(*) AS n" + from}
}

// sqlFor returns the texts for where, building and publishing them on
// first use while the cache has room. A publish that loses a race is
// dropped: the texts are a pure function of where, so the next call just
// builds them again.
func (m *Meta[T]) sqlFor(where string) condSQL {
	cur := m.conds.Load()
	var have map[string]condSQL
	if cur != nil {
		have = *cur
	}
	c, ok := have[where]
	if !ok {
		c = m.buildSQL(where)
		if len(have) < maxConds {
			next := maps.Clone(have)
			if next == nil {
				next = make(map[string]condSQL)
			}
			next[where] = c
			m.conds.CompareAndSwap(cur, &next)
		}
	}
	return c
}

// deserialize materializes entities from a result set, consulting and
// populating the session identity map so each row id deserializes once
// (the paper's memoized p', Sec. 2).
func (m *Meta[T]) deserialize(s *Session, rs *sqldb.ResultSet) ([]*T, error) {
	var posBuf [16]int // keeps colPos on the stack for up to 16 columns
	colPos := append(posBuf[:0], make([]int, len(m.cols))...)
	for i, c := range m.cols {
		p, ok := rs.ColIndex(c.name)
		if !ok {
			return nil, fmt.Errorf("orm: result for %s lacks column %q", m.table, c.name)
		}
		colPos[i] = p
	}
	out := make([]*T, 0, len(rs.Rows))
	for _, row := range rs.Rows {
		pkVal, ok := row[colPos[m.pkIdx]].(int64)
		if ok {
			if cached, hit := s.identityGet(&m.table, pkVal); hit {
				out = append(out, cached.(*T))
				continue
			}
		}
		e := new(T)
		rv := reflect.ValueOf(e).Elem()
		for i, c := range m.cols {
			v := row[colPos[i]]
			if v == nil {
				continue // NULL leaves the zero value
			}
			f := rv.Field(c.fieldIdx)
			switch f.Kind() {
			case reflect.Int64:
				n, ok := v.(int64)
				if !ok {
					return nil, fmt.Errorf("orm: column %s.%s: %T is not int64", m.table, c.name, v)
				}
				f.SetInt(n)
			case reflect.String:
				str, ok := v.(string)
				if !ok {
					return nil, fmt.Errorf("orm: column %s.%s: %T is not string", m.table, c.name, v)
				}
				f.SetString(str)
			case reflect.Float64:
				switch x := v.(type) {
				case float64:
					f.SetFloat(x)
				case int64:
					f.SetFloat(float64(x))
				default:
					return nil, fmt.Errorf("orm: column %s.%s: %T is not float", m.table, c.name, v)
				}
			case reflect.Bool:
				b, ok := v.(bool)
				if !ok {
					return nil, fmt.Errorf("orm: column %s.%s: %T is not bool", m.table, c.name, v)
				}
				f.SetBool(b)
			}
		}
		if ok {
			s.identityPut(&m.table, pkVal, e)
		}
		s.stats.Deserialized++
		out = append(out, e)
	}
	return out, nil
}

// values extracts column values from an entity in column order.
func (m *Meta[T]) values(e *T) []sqldb.Value {
	rv := reflect.ValueOf(e).Elem()
	out := make([]sqldb.Value, len(m.cols))
	for i, c := range m.cols {
		f := rv.Field(c.fieldIdx)
		switch f.Kind() {
		case reflect.Int64:
			out[i] = f.Int()
		case reflect.String:
			out[i] = f.String()
		case reflect.Float64:
			out[i] = f.Float()
		case reflect.Bool:
			out[i] = f.Bool()
		}
	}
	return out
}

// EagerLoad attaches an eager-fetch cascade to this entity: under
// ModeOriginal, fn runs immediately after each entity of this type loads.
// Associations register themselves here when declared with FetchEager.
func (m *Meta[T]) EagerLoad(fn func(s *Session, e *T)) {
	m.eagerLoaders = append(m.eagerLoaders, fn)
}

func (m *Meta[T]) runEagerCascades(s *Session, es []*T) {
	if s.mode != ModeOriginal {
		// Sloth only brings in entities as the application requests them
		// (paper Sec. 1): no cascades.
		return
	}
	for _, e := range es {
		for _, fn := range m.eagerLoaders {
			fn(s, e)
		}
	}
}
