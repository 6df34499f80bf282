package merge

// CachedShapes counts the entries of the process-wide shape cache and
// template interner.
func CachedShapes() (shapes, tmpls int) {
	shapeCache.Range(func(_, _ any) bool { shapes++; return true })
	templates.Range(func(_, _ any) bool { tmpls++; return true })
	return shapes, tmpls
}

// ResetShapeCache empties both, and the merged-text cache keyed by shape,
// so a test can start cold.
func ResetShapeCache() {
	shapeCache.Clear()
	templates.Clear()
	texts.Clear()
}
