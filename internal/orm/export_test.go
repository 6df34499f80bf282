package orm

// WriteSQL returns the mapping's INSERT, UPDATE and DELETE text.
func (m *Meta[T]) WriteSQL() [3]string {
	return [3]string{m.insertSQL, m.updateSQL, m.deleteSQL}
}

// ConcatWriteSQL builds the same three statements the way Insert, Update and
// Delete used to on every call, as the reference the prebuilt text must
// match byte for byte.
func (m *Meta[T]) ConcatWriteSQL() [3]string {
	placeholders := make([]byte, 0, 2*len(m.cols))
	for i := range m.cols {
		if i > 0 {
			placeholders = append(placeholders, ',', ' ')
		}
		placeholders = append(placeholders, '?')
	}
	insert := "INSERT INTO " + m.table + " (" + m.selList + ") VALUES (" + string(placeholders) + ")"
	var sets []byte
	for i, c := range m.cols {
		if i == m.pkIdx {
			continue
		}
		if len(sets) > 0 {
			sets = append(sets, ", "...)
		}
		sets = append(sets, (c.name + " = ?")...)
	}
	update := "UPDATE " + m.table + " SET " + string(sets) + " WHERE " + m.PKColumn() + " = ?"
	return [3]string{insert, update, "DELETE FROM " + m.table + " WHERE " + m.PKColumn() + " = ?"}
}
