package lazyc

import (
	"fmt"
	"strings"

	"repro/internal/sqldb"
)

// StdStats counts standard-semantics activity.
type StdStats struct {
	Queries int64
	Steps   int64
}

// StdInterp evaluates programs under the standard (strict) semantics of
// Sec. 3.8: every statement executes when reached, every query runs in its
// own round trip. It is the walker of strict.go with nothing to force,
// delay or defer.
type StdInterp struct {
	w     walker
	db    Queryer
	stats StdStats

	maxSteps int64
}

// NewStd creates a standard interpreter over a database connection.
func NewStd(prog *Program, db Queryer) *StdInterp {
	in := &StdInterp{db: db, maxSteps: 5_000_000}
	in.w = walker{
		prog:  prog,
		heap:  &Heap{},
		out:   &strings.Builder{},
		step:  in.step,
		load:  identity,
		force: identity,
		show:  identity,
		delay: runNow,
		query: in.query,
	}
	in.w.call = in.w.callStd
	in.w.read = in.w.fetch
	return in
}

// Output returns everything printed so far.
func (in *StdInterp) Output() string { return in.w.out.String() }

// Stats returns execution counters.
func (in *StdInterp) Stats() StdStats { return in.stats }

// Run executes main().
func (in *StdInterp) Run() error {
	main, err := in.w.prog.Main()
	if err != nil {
		return err
	}
	_, err = in.w.callStd(main, nil)
	return err
}

func (in *StdInterp) step() error {
	in.stats.Steps++
	if in.stats.Steps > in.maxSteps {
		return fmt.Errorf("lazyc: step budget exhausted (possible infinite loop)")
	}
	return nil
}

func (in *StdInterp) query(sql string) (*sqldb.ResultSet, error) {
	in.stats.Queries++
	return in.db.Query(sql)
}
