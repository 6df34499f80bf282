// Package sqldb defines the value model shared by the SQL front end
// (sqlparse), the storage layer (storage), and the query engine (engine)
// that together form the reproduction's stand-in for the MySQL server used
// in the paper's experiments.
package sqldb

import (
	"fmt"
	"strconv"
	"strings"
)

// Type enumerates the column types supported by the engine.
type Type int

const (
	// TypeInt is a 64-bit signed integer column.
	TypeInt Type = iota
	// TypeFloat is a 64-bit floating point column.
	TypeFloat
	// TypeText is a string column.
	TypeText
	// TypeBool is a boolean column.
	TypeBool
)

// String returns the SQL spelling of the type.
func (t Type) String() string {
	switch t {
	case TypeInt:
		return "INT"
	case TypeFloat:
		return "FLOAT"
	case TypeText:
		return "TEXT"
	case TypeBool:
		return "BOOL"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// ParseType parses a SQL type name. It accepts common aliases so schemas
// read naturally (INTEGER, BIGINT, VARCHAR, DOUBLE, ...).
func ParseType(s string) (Type, error) {
	switch strings.ToUpper(s) {
	case "INT", "INTEGER", "BIGINT", "SMALLINT":
		return TypeInt, nil
	case "FLOAT", "DOUBLE", "REAL", "DECIMAL", "NUMERIC":
		return TypeFloat, nil
	case "TEXT", "VARCHAR", "CHAR", "STRING", "CLOB":
		return TypeText, nil
	case "BOOL", "BOOLEAN":
		return TypeBool, nil
	default:
		return 0, fmt.Errorf("sqldb: unknown type %q", s)
	}
}

// Value is a SQL value: int64, float64, string, bool, or nil (SQL NULL).
type Value any

// IsNull reports whether v is SQL NULL.
func IsNull(v Value) bool { return v == nil }

// Compare orders two non-null values. Mixed int/float comparisons promote to
// float. It returns -1, 0, or +1, and an error for incomparable types.
func Compare(a, b Value) (int, error) {
	switch av := a.(type) {
	case int64:
		switch bv := b.(type) {
		case int64:
			return cmpInt(av, bv), nil
		case float64:
			return cmpFloat(float64(av), bv), nil
		}
	case float64:
		switch bv := b.(type) {
		case int64:
			return cmpFloat(av, float64(bv)), nil
		case float64:
			return cmpFloat(av, bv), nil
		}
	case string:
		if bv, ok := b.(string); ok {
			return strings.Compare(av, bv), nil
		}
	case bool:
		if bv, ok := b.(bool); ok {
			return cmpBool(av, bv), nil
		}
	}
	return 0, fmt.Errorf("sqldb: cannot compare %T with %T", a, b)
}

// CompareOrder orders two values as ORDER BY does: NULLs first, then
// Compare, incomparable values equal. It is the one definition of that
// order: the executor's sort and the two-column index's posting order must
// agree for a probe in index order to replace a sort.
func CompareOrder(a, b Value) int {
	switch {
	case a == nil && b == nil:
		return 0
	case a == nil:
		return -1
	case b == nil:
		return 1
	}
	c, err := Compare(a, b)
	if err != nil {
		return 0
	}
	return c
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpBool(a, b bool) int {
	switch {
	case a == b:
		return 0
	case !a:
		return -1
	default:
		return 1
	}
}

// Equal reports whether two values are equal under SQL semantics, where NULL
// never equals anything (including NULL).
func Equal(a, b Value) bool {
	if IsNull(a) || IsNull(b) {
		return false
	}
	c, err := Compare(a, b)
	return err == nil && c == 0
}

// Coerce converts v to the column type t, or reports an error. NULL passes
// through unchanged.
func Coerce(v Value, t Type) (Value, error) {
	if IsNull(v) {
		return nil, nil
	}
	switch t {
	case TypeInt:
		switch x := v.(type) {
		case int64:
			return x, nil
		case int:
			return int64(x), nil
		case float64:
			return int64(x), nil
		case bool:
			if x {
				return int64(1), nil
			}
			return int64(0), nil
		}
	case TypeFloat:
		switch x := v.(type) {
		case float64:
			return x, nil
		case int64:
			return float64(x), nil
		case int:
			return float64(x), nil
		}
	case TypeText:
		if x, ok := v.(string); ok {
			return x, nil
		}
	case TypeBool:
		switch x := v.(type) {
		case bool:
			return x, nil
		case int64:
			return x != 0, nil
		}
	}
	return nil, fmt.Errorf("sqldb: cannot coerce %T to %v", v, t)
}

// Normalize maps convenient Go values (int, int32, float32, ...) onto the
// canonical Value representation. Unknown types are returned unchanged.
func Normalize(v Value) Value {
	switch x := v.(type) {
	case int:
		return int64(x)
	case int32:
		return int64(x)
	case int16:
		return int64(x)
	case int8:
		return int64(x)
	case uint:
		return int64(x)
	case uint32:
		return int64(x)
	case uint64:
		return int64(x)
	case float32:
		return float64(x)
	default:
		return v
	}
}

// Format renders a value as it would appear in a result set dump; strings
// are quoted, NULL renders as NULL.
func Format(v Value) string {
	var buf [32]byte
	return string(AppendFormat(buf[:0], v))
}

// AppendFormat appends Format(v) to buf without an intermediate string.
// These bytes are the canonical text of a value: row identity for DISTINCT
// and GROUP BY and the shard hash are both computed over them.
func AppendFormat(buf []byte, v Value) []byte {
	switch x := v.(type) {
	case nil:
		return append(buf, "NULL"...)
	case string:
		return strconv.AppendQuote(buf, x)
	case int64:
		return strconv.AppendInt(buf, x, 10)
	case float64:
		return strconv.AppendFloat(buf, x, 'g', -1, 64)
	case bool:
		if x {
			return append(buf, "TRUE"...)
		}
		return append(buf, "FALSE"...)
	default:
		return append(buf, fmt.Sprintf("%v", x)...)
	}
}

// Truthy interprets a value as a SQL condition result: NULL and false are
// falsy, non-zero numbers and true are truthy.
func Truthy(v Value) bool {
	switch x := v.(type) {
	case nil:
		return false
	case bool:
		return x
	case int64:
		return x != 0
	case float64:
		return x != 0
	case string:
		return x != ""
	default:
		return false
	}
}

// SizeOf estimates the wire size of a value in bytes, used by the network
// simulator's byte accounting.
func SizeOf(v Value) int {
	switch x := v.(type) {
	case nil:
		return 1
	case string:
		return len(x) + 4
	case bool:
		return 1
	default:
		return 8
	}
}
