package lazyc

// ForceHeap forces every thunk reachable from the heap (equivalence tests
// call this after Run, per the paper's theorem statement).
func (in *LazyInterp) ForceHeap() error {
	seen := make(map[Addr]bool)
	for i := 0; i < in.heap.Len(); i++ {
		if _, err := in.deepForce(Addr(i), seen); err != nil {
			return err
		}
	}
	return nil
}

// Len reports the number of allocated objects.
func (h *Heap) Len() int { return len(h.objs) }

// MustParse parses or panics; for fixtures.
func MustParse(src string) *Program {
	p, err := ParseProgram(src)
	if err != nil {
		panic(err)
	}
	return p
}
