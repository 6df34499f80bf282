package thunk

// Forced reports whether the thunk has already been evaluated.
func (t *Thunk[T]) Forced() bool { return t.done }
