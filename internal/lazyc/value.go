package lazyc

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/sqldb"
)

// Value is a kernel-language runtime value: int64, bool, string, nil, or a
// heap address. Lazy evaluation additionally threads *lthunk values, which
// only the lazy interpreter produces and forces.
type Value = any

// Addr is a heap address (records and arrays live on the heap, as in the
// paper's formal state (D, σ, h)).
type Addr int

// record is a heap object with named fields.
type record map[string]Value

// newRecord builds a record literal's object from its evaluated fields.
func newRecord(names []string, vals []Value) record {
	rec := make(record, len(names))
	for i, name := range names {
		rec[name] = vals[i]
	}
	return rec
}

// Heap maps addresses to records or []Value arrays.
type Heap struct {
	objs []any
}

// Alloc stores a new object and returns its address.
func (h *Heap) Alloc(obj any) Addr {
	h.objs = append(h.objs, obj)
	return Addr(len(h.objs) - 1)
}

// Get returns the object at a.
func (h *Heap) Get(a Addr) (any, error) {
	if int(a) < 0 || int(a) >= len(h.objs) {
		return nil, fmt.Errorf("lazyc: bad heap address %d", a)
	}
	return h.objs[a], nil
}

// record resolves a forced field-access receiver to the record it
// addresses; verb ("read of", "write to") names the access in errors.
func (h *Heap) record(recv Value, verb string) (record, error) {
	a, ok := recv.(Addr)
	if !ok {
		return nil, fmt.Errorf("lazyc: field %s non-record %T", verb, recv)
	}
	obj, err := h.Get(a)
	if err != nil {
		return nil, err
	}
	rec, ok := obj.(record)
	if !ok {
		return nil, fmt.Errorf("lazyc: field %s %T", verb, obj)
	}
	return rec, nil
}

// array resolves a forced index-access operand to the array it addresses;
// verb ("of", "write to") names the access in errors.
func (h *Heap) array(v Value, verb string) ([]Value, error) {
	a, ok := v.(Addr)
	if !ok {
		return nil, fmt.Errorf("lazyc: index %s non-array %T", verb, v)
	}
	obj, err := h.Get(a)
	if err != nil {
		return nil, err
	}
	arr, ok := obj.([]Value)
	if !ok {
		return nil, fmt.Errorf("lazyc: index %s %T", verb, obj)
	}
	return arr, nil
}

// elem returns the slot arr[idx], or false when the forced idx is not an
// in-range integer.
func elem(arr []Value, idx Value) (*Value, bool) {
	i, ok := idx.(int64)
	if !ok || i < 0 || int(i) >= len(arr) {
		return nil, false
	}
	return &arr[i], true
}

// Queryer abstracts database access for the interpreters; the driver's
// connection satisfies it via an adapter, keeping round-trip accounting in
// one place.
type Queryer interface {
	Query(sql string, args ...sqldb.Value) (*sqldb.ResultSet, error)
}

// resultToHeap converts a result set into a heap array of records, the
// kernel language's view of D[v].
func resultToHeap(h *Heap, rs *sqldb.ResultSet) Addr {
	rows := make([]Value, len(rs.Rows))
	for i, r := range rs.Rows {
		rec := make(record, len(rs.Cols))
		for j, c := range rs.Cols {
			rec[strings.ToLower(c)] = r[j]
		}
		rows[i] = h.Alloc(rec)
	}
	return h.Alloc(rows)
}

// render produces the canonical printed form of a value, following heap
// references; thunk-free values only (the lazy interpreter forces first).
func render(h *Heap, v Value) string {
	switch x := v.(type) {
	case nil:
		return "null"
	case int64:
		return strconv.FormatInt(x, 10)
	case bool:
		if x {
			return "true"
		}
		return "false"
	case string:
		return x
	case Addr:
		obj, err := h.Get(x)
		if err != nil {
			return "<bad addr>"
		}
		switch o := obj.(type) {
		case record:
			keys := make([]string, 0, len(o))
			for k := range o {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			parts := make([]string, len(keys))
			for i, k := range keys {
				parts[i] = k + ":" + render(h, o[k])
			}
			return "{" + strings.Join(parts, ",") + "}"
		case []Value:
			parts := make([]string, len(o))
			for i, e := range o {
				parts[i] = render(h, e)
			}
			return "[" + strings.Join(parts, ",") + "]"
		default:
			return fmt.Sprintf("%v", o)
		}
	default:
		return fmt.Sprintf("%v", v)
	}
}

// truthy interprets a value as a condition.
func truthy(v Value) (bool, error) {
	switch x := v.(type) {
	case bool:
		return x, nil
	case nil:
		return false, nil
	case int64:
		return x != 0, nil
	default:
		return false, fmt.Errorf("lazyc: %T is not a condition", v)
	}
}

// applyBinop evaluates a kernel binary operator over forced values.
func applyBinop(op string, l, r Value) (Value, error) {
	switch op {
	case "&&", "||":
		lb, err := truthy(l)
		if err != nil {
			return nil, err
		}
		rb, err := truthy(r)
		if err != nil {
			return nil, err
		}
		if op == "&&" {
			return lb && rb, nil
		}
		return lb || rb, nil
	case "==":
		return valueEq(l, r), nil
	case "!=":
		return !valueEq(l, r), nil
	}
	// String concatenation with +.
	if op == "+" {
		if ls, ok := l.(string); ok {
			if rs, ok := r.(string); ok {
				return ls + rs, nil
			}
		}
	}
	li, lok := l.(int64)
	ri, rok := r.(int64)
	if !lok || !rok {
		return nil, fmt.Errorf("lazyc: operator %s needs ints, got %T and %T", op, l, r)
	}
	switch op {
	case "+":
		return li + ri, nil
	case "-":
		return li - ri, nil
	case "*":
		return li * ri, nil
	case "<":
		return li < ri, nil
	case ">":
		return li > ri, nil
	case "<=":
		return li <= ri, nil
	case ">=":
		return li >= ri, nil
	default:
		return nil, fmt.Errorf("lazyc: unknown operator %s", op)
	}
}

func valueEq(l, r Value) bool {
	if l == nil || r == nil {
		return l == nil && r == nil
	}
	return l == r
}

// applyUnop evaluates ! and -.
func applyUnop(op string, v Value) (Value, error) {
	switch op {
	case "!":
		b, err := truthy(v)
		if err != nil {
			return nil, err
		}
		return !b, nil
	case "-":
		n, ok := v.(int64)
		if !ok {
			return nil, fmt.Errorf("lazyc: cannot negate %T", v)
		}
		return -n, nil
	default:
		return nil, fmt.Errorf("lazyc: unknown unary %s", op)
	}
}

// applyBuiltin evaluates the runtime primitives over forced values.
func applyBuiltin(h *Heap, name string, args []Value) (Value, error) {
	switch name {
	case "len":
		a, ok := args[0].(Addr)
		if !ok {
			if s, ok := args[0].(string); ok {
				return int64(len(s)), nil
			}
			return nil, fmt.Errorf("lazyc: len over %T", args[0])
		}
		obj, err := h.Get(a)
		if err != nil {
			return nil, err
		}
		switch o := obj.(type) {
		case []Value:
			return int64(len(o)), nil
		case record:
			return int64(len(o)), nil
		default:
			return nil, fmt.Errorf("lazyc: len over %T", obj)
		}
	case "str":
		return render(h, args[0]), nil
	case "row":
		a, ok := args[0].(Addr)
		if !ok {
			return nil, fmt.Errorf("lazyc: row over %T", args[0])
		}
		obj, err := h.Get(a)
		if err != nil {
			return nil, err
		}
		arr, ok := obj.([]Value)
		if !ok {
			return nil, fmt.Errorf("lazyc: row over non-array %T", obj)
		}
		i, ok := args[1].(int64)
		if !ok || i < 0 || int(i) >= len(arr) {
			return nil, fmt.Errorf("lazyc: row index %v out of range (%d rows)", args[1], len(arr))
		}
		return arr[i], nil
	case "col":
		a, ok := args[0].(Addr)
		if !ok {
			return nil, fmt.Errorf("lazyc: col over %T", args[0])
		}
		obj, err := h.Get(a)
		if err != nil {
			return nil, err
		}
		rec, ok := obj.(record)
		if !ok {
			return nil, fmt.Errorf("lazyc: col over non-record %T", obj)
		}
		f, ok := args[1].(string)
		if !ok {
			return nil, fmt.Errorf("lazyc: col field must be string")
		}
		v, ok := rec[strings.ToLower(f)]
		if !ok {
			return nil, nil // missing column reads as null
		}
		return v, nil
	default:
		return nil, fmt.Errorf("lazyc: unknown builtin %s", name)
	}
}
