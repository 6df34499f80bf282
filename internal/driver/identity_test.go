package driver

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/sqldb"
)

// identityArgs is the argument pool the identity tests draw from: every
// Normalize spelling of a few values, the strings that the old rendered
// dedup key confused with other types, and types Normalize does not know
// (one of them not comparable with ==).
var identityArgs = []sqldb.Value{
	int(5), int32(5), int64(5), int64(1), int(0), uint32(7),
	float32(1), float64(1), 2.5, math.NaN(), math.Copysign(0, -1), 0.0,
	"5", "~", "T", "1", "a\x1fb", "a", "b", "",
	true, false, nil,
	[]byte("5"), uint8(5), struct{ A int }{5},
}

// oracleEqual is typed equality spelled out case by case, independent of
// argOf: same SQL, same arity, and per position the same Normalize type
// with the same value (floats by bits; unknown types by %T and %v).
func oracleEqual(a, b Stmt) bool {
	if a.SQL != b.SQL || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		x, y := sqldb.Normalize(a.Args[i]), sqldb.Normalize(b.Args[i])
		switch xv := x.(type) {
		case nil:
			if y != nil {
				return false
			}
		case int64:
			if yv, ok := y.(int64); !ok || xv != yv {
				return false
			}
		case string:
			if yv, ok := y.(string); !ok || xv != yv {
				return false
			}
		case bool:
			if yv, ok := y.(bool); !ok || xv != yv {
				return false
			}
		case float64:
			if yv, ok := y.(float64); !ok || math.Float64bits(xv) != math.Float64bits(yv) {
				return false
			}
		default:
			if fmt.Sprintf("%T %v", x, x) != fmt.Sprintf("%T %v", y, y) {
				return false
			}
		}
	}
	return true
}

func randomStmt(rng *rand.Rand) Stmt {
	sqls := []string{
		"SELECT a FROM t WHERE x = ?",
		"SELECT a FROM t WHERE x = ? AND y = ?",
		"SELECT b FROM t WHERE x = ?",
		"SELECT a FROM t",
	}
	st := prep(sqls[rng.Intn(len(sqls))])
	for n := rng.Intn(3); n > 0; n-- {
		st.Args = append(st.Args, identityArgs[rng.Intn(len(identityArgs))])
	}
	return st
}

// TestStmtEqualMatchesOracle: Equal agrees with the spelled-out oracle on
// every pair, and equal statements hash alike.
func TestStmtEqualMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		a, b := randomStmt(rng), randomStmt(rng)
		if got, want := a.Equal(b), oracleEqual(a, b); got != want {
			t.Fatalf("Equal(%#v, %#v) = %v, oracle %v", a, b, got, want)
		}
		if a.Equal(b) && a.Hash() != b.Hash() {
			t.Fatalf("equal statements hash apart: %#v, %#v", a, b)
		}
	}
}

// TestStmtIndexMatchesQuadraticOracle dedups random batches through the
// index and through a quadratic scan with the oracle; positions must agree
// under the real hash and — since Equal, not the hash, decides — with every
// statement forced into one collision chain.
func TestStmtIndexMatchesQuadraticOracle(t *testing.T) {
	for _, collide := range []bool{false, true} {
		rng := rand.New(rand.NewSource(7))
		var idx StmtIndex
		for batch := 0; batch < 400; batch++ {
			idx.Reset()
			var kept []Stmt
			for n := 1 + rng.Intn(60); n > 0; n-- {
				st := randomStmt(rng)
				want := -1
				for i, k := range kept {
					if oracleEqual(k, st) {
						want = i
						break
					}
				}
				hash := uint32(st.Hash() >> 32)
				if collide {
					hash = 42
				}
				got, dup := idx.add(kept, st, hash)
				if !dup {
					got = -1
					kept = append(kept, st)
				}
				if got != want {
					t.Fatalf("collide=%v batch %d: %#v found at %d, oracle %d", collide, batch, st, got, want)
				}
			}
		}
	}
}

// TestStmtIdentityDoesNotAllocate: hashing and comparing statements whose
// arguments are canonical values is free — this runs once per registration.
func TestStmtIdentityDoesNotAllocate(t *testing.T) {
	a := prep("SELECT a FROM t WHERE x = ? AND y = ? AND z = ?", int64(91235), "eu-west", 3.25)
	b := prep(a.SQL, int64(91235), "eu-west", 3.25)
	var idx StmtIndex
	idx.Add(nil, a)
	stmts := []Stmt{a}
	if n := testing.AllocsPerRun(100, func() {
		if _, dup := idx.Add(stmts, b); !dup {
			t.Fatal("identical statement not found")
		}
	}); n != 0 {
		t.Fatalf("Add allocates %v times per call", n)
	}
}
