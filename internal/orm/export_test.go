package orm

// Table returns the mapped table name.
func (m *Meta[T]) Table() string { return m.table }

// InsertSQL returns the mapping's prebuilt INSERT text.
func (m *Meta[T]) InsertSQL() string { return m.insertSQL }

// ConcatInsertSQL builds the same INSERT the way Insert used to on every
// call, as the reference the prebuilt text must match byte for byte.
func (m *Meta[T]) ConcatInsertSQL() string {
	placeholders := make([]byte, 0, 2*len(m.cols))
	for i := range m.cols {
		if i > 0 {
			placeholders = append(placeholders, ',', ' ')
		}
		placeholders = append(placeholders, '?')
	}
	return "INSERT INTO " + m.table + " (" + m.selList + ") VALUES (" + string(placeholders) + ")"
}
