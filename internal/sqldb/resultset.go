package sqldb

import (
	"fmt"
	"strings"
)

// ResultSet is the tabular result of executing one statement. Write
// statements report RowsAffected with an empty Rows. RowsScanned feeds the
// cost model used by the experiment harness (DB time share of Fig. 8).
type ResultSet struct {
	Cols         []string
	Rows         [][]Value
	RowsAffected int
	// RowsScanned counts physical rows the executor visited, the input to
	// the per-query cost model.
	RowsScanned int
	// LastInsertID is the primary key assigned by the most recent INSERT
	// when the engine auto-assigned one, else 0.
	LastInsertID int64
}

// NumRows reports the number of result rows.
func (rs *ResultSet) NumRows() int { return len(rs.Rows) }

// ColIndex resolves a column label (case-insensitive) to its position.
func (rs *ResultSet) ColIndex(name string) (int, bool) {
	for i, c := range rs.Cols {
		if strings.EqualFold(c, name) {
			return i, true
		}
	}
	return 0, false
}

// Get returns the value at (row, named column).
func (rs *ResultSet) Get(row int, col string) (Value, error) {
	if row < 0 || row >= len(rs.Rows) {
		return nil, fmt.Errorf("sqldb: row %d out of range (%d rows)", row, len(rs.Rows))
	}
	i, ok := rs.ColIndex(col)
	if !ok {
		return nil, fmt.Errorf("sqldb: no column %q in result", col)
	}
	return rs.Rows[row][i], nil
}

// Int returns the value at (row, col) as int64, treating NULL as 0.
func (rs *ResultSet) Int(row int, col string) (int64, error) {
	v, err := rs.Get(row, col)
	if err != nil {
		return 0, err
	}
	switch x := v.(type) {
	case nil:
		return 0, nil
	case int64:
		return x, nil
	case float64:
		return int64(x), nil
	default:
		return 0, fmt.Errorf("sqldb: column %q is %T, not numeric", col, v)
	}
}

// WireSize estimates the serialized size of the result set in bytes for the
// network simulator.
func (rs *ResultSet) WireSize() int {
	size := 16
	for _, c := range rs.Cols {
		size += len(c) + 2
	}
	for _, row := range rs.Rows {
		for _, v := range row {
			size += SizeOf(v)
		}
	}
	return size
}

// String renders a compact table dump for debugging.
func (rs *ResultSet) String() string {
	var sb strings.Builder
	sb.WriteString(strings.Join(rs.Cols, " | "))
	sb.WriteByte('\n')
	for _, row := range rs.Rows {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = Format(v)
		}
		sb.WriteString(strings.Join(parts, " | "))
		sb.WriteByte('\n')
	}
	return sb.String()
}
