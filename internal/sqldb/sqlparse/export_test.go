package sqlparse

// MustParse parses or panics; for statically-known SQL in tests.
func MustParse(input string) Statement {
	st, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return st
}
