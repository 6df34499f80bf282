package sqldb

import (
	"testing"
	"testing/quick"
)

func TestParseType(t *testing.T) {
	cases := map[string]Type{
		"INT": TypeInt, "integer": TypeInt, "BIGINT": TypeInt,
		"FLOAT": TypeFloat, "double": TypeFloat,
		"TEXT": TypeText, "VARCHAR": TypeText,
		"BOOL": TypeBool, "boolean": TypeBool,
	}
	for name, want := range cases {
		got, err := ParseType(name)
		if err != nil || got != want {
			t.Errorf("ParseType(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseType("BLOB9000"); err == nil {
		t.Error("ParseType accepted unknown type")
	}
}

func TestTypeString(t *testing.T) {
	if TypeInt.String() != "INT" || TypeText.String() != "TEXT" {
		t.Errorf("Type.String: %s %s", TypeInt, TypeText)
	}
}

func TestCompareMixedNumeric(t *testing.T) {
	c, err := Compare(int64(3), 3.5)
	if err != nil || c != -1 {
		t.Fatalf("Compare(3, 3.5) = %d, %v", c, err)
	}
	c, _ = Compare(4.0, int64(4))
	if c != 0 {
		t.Fatalf("Compare(4.0, 4) = %d", c)
	}
}

func TestCompareIncomparable(t *testing.T) {
	if _, err := Compare("x", int64(1)); err == nil {
		t.Fatal("expected error comparing string with int")
	}
	if _, err := Compare(true, "y"); err == nil {
		t.Fatal("expected error comparing bool with string")
	}
}

func TestCompareBools(t *testing.T) {
	c, _ := Compare(false, true)
	if c != -1 {
		t.Fatalf("Compare(false, true) = %d", c)
	}
}

func TestEqualNullNeverEqual(t *testing.T) {
	if Equal(nil, nil) || Equal(nil, int64(1)) || Equal("x", nil) {
		t.Fatal("NULL compared equal")
	}
	if !Equal(int64(2), int64(2)) {
		t.Fatal("2 != 2")
	}
}

func TestCoerce(t *testing.T) {
	v, err := Coerce(5, TypeInt)
	if err != nil || v != int64(5) {
		t.Fatalf("Coerce(5, INT) = %v, %v", v, err)
	}
	v, err = Coerce(int64(3), TypeFloat)
	if err != nil || v != 3.0 {
		t.Fatalf("Coerce(3, FLOAT) = %v, %v", v, err)
	}
	v, err = Coerce(true, TypeInt)
	if err != nil || v != int64(1) {
		t.Fatalf("Coerce(true, INT) = %v, %v", v, err)
	}
	v, err = Coerce(int64(0), TypeBool)
	if err != nil || v != false {
		t.Fatalf("Coerce(0, BOOL) = %v, %v", v, err)
	}
	if _, err := Coerce("str", TypeInt); err == nil {
		t.Fatal("Coerce accepted string as INT")
	}
	v, err = Coerce(nil, TypeText)
	if err != nil || v != nil {
		t.Fatalf("Coerce(NULL) = %v, %v", v, err)
	}
}

func TestNormalize(t *testing.T) {
	if Normalize(int32(7)) != int64(7) {
		t.Error("int32 not normalized")
	}
	if Normalize(float32(1.5)) != float64(1.5) {
		t.Error("float32 not normalized")
	}
	if Normalize("s") != "s" {
		t.Error("string changed by Normalize")
	}
}

func TestFormat(t *testing.T) {
	cases := map[string]Value{
		"NULL": nil, "3": int64(3), `"hi"`: "hi", "TRUE": true, "FALSE": false, "1.5": 1.5,
	}
	for want, v := range cases {
		if got := Format(v); got != want {
			t.Errorf("Format(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestTruthy(t *testing.T) {
	truthy := []Value{true, int64(1), 0.5, "x"}
	falsy := []Value{nil, false, int64(0), 0.0, ""}
	for _, v := range truthy {
		if !Truthy(v) {
			t.Errorf("Truthy(%v) = false", v)
		}
	}
	for _, v := range falsy {
		if Truthy(v) {
			t.Errorf("Truthy(%v) = true", v)
		}
	}
}

func TestResultSetAccessors(t *testing.T) {
	rs := &ResultSet{
		Cols: []string{"id", "name"},
		Rows: [][]Value{{int64(1), "Ann"}, {int64(2), nil}},
	}
	if rs.NumRows() != 2 {
		t.Fatalf("NumRows = %d", rs.NumRows())
	}
	if v, err := rs.Get(0, "NAME"); err != nil || v != "Ann" {
		t.Fatalf("Get = %v, %v", v, err)
	}
	n, err := rs.Int(1, "id")
	if err != nil || n != 2 {
		t.Fatalf("Int = %d, %v", n, err)
	}
	if v, err := rs.Get(1, "name"); err != nil || v != nil {
		t.Fatalf("Get(NULL) = %v, %v", v, err)
	}
	if _, err := rs.Get(5, "id"); err == nil {
		t.Fatal("out-of-range row accepted")
	}
	if _, err := rs.Get(0, "missing"); err == nil {
		t.Fatal("missing column accepted")
	}
}

func TestResultSetWireSizeGrowsWithRows(t *testing.T) {
	small := &ResultSet{Cols: []string{"a"}, Rows: [][]Value{{int64(1)}}}
	big := &ResultSet{Cols: []string{"a"}, Rows: [][]Value{{int64(1)}, {"long string value"}}}
	if small.WireSize() >= big.WireSize() {
		t.Fatalf("WireSize small=%d big=%d", small.WireSize(), big.WireSize())
	}
}

// Property: Compare is antisymmetric over int64s.
func TestQuickCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		x, _ := Compare(a, b)
		y, _ := Compare(b, a)
		return x == -y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Coerce to INT then FLOAT preserves integer magnitude.
func TestQuickCoerceRoundTrip(t *testing.T) {
	f := func(n int32) bool {
		v, err := Coerce(int64(n), TypeFloat)
		if err != nil {
			return false
		}
		back, err := Coerce(v, TypeInt)
		return err == nil && back == int64(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCompareOrder(t *testing.T) {
	for _, tc := range []struct {
		a, b Value
		want int
	}{
		{nil, nil, 0}, {nil, int64(-9), -1}, {"", nil, 1},
		{int64(2), int64(3), -1}, {int64(3), 2.5, 1}, {"b", "a", 1}, {false, true, -1},
		{int64(1), "1", 0}, // incomparable: equal, as ORDER BY has always had it
	} {
		if got := CompareOrder(tc.a, tc.b); got != tc.want {
			t.Errorf("CompareOrder(%v, %v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}
