package bench

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/merge"
	"repro/internal/orm"
	"repro/internal/querystore"
)

// This file holds the batch-merge ablation: the four-way comparison (no
// dedup / dedup only / dedup + equality merge / dedup + all merge families)
// that quantifies what the query-merge optimizer (internal/merge) saves on
// top of the paper's batching. Dedup removes statements that are textually
// identical; the "merge" rung additionally coalesces the 1+N point-lookup
// families that remain (the PR 1 baseline); the "agg" rung switches on the
// aggregate and range families too, folding the per-row COUNT(*) fan-outs
// into GROUP BY statements. The four rows form a ladder of within-batch
// optimization.

// MergeAblationRow is one configuration's aggregate over a page suite.
type MergeAblationRow struct {
	Label      string
	Time       time.Duration
	DBTime     time.Duration
	RoundTrips int64
	Queries    int64 // statements executed at the database
	DBRows     int64 // physical rows visited by the executor
	Saved      int64 // statements eliminated by merging
	// FamilySaved breaks Saved down per merge family (merge.FamilyID-
	// indexed: equality, aggregate, range).
	FamilySaved [merge.NumFamilies]int64
}

// MergeAblationReport is the ladder for one application suite.
type MergeAblationReport struct {
	App  AppID
	Rows []MergeAblationRow
}

// MergeConfig is the query-store configuration the merge experiments use:
// the paper's store with the batch-merge optimizer switched on, every
// family enabled.
func MergeConfig() querystore.Config {
	return querystore.Config{Merge: merge.Config{Enabled: true}}
}

// EqualityMergeConfig isolates the equality family — the optimizer as it
// stood before the aggregate and range families existed (the ablation
// ladder's "merge" rung).
func EqualityMergeConfig() querystore.Config {
	return querystore.Config{Merge: merge.Config{
		Enabled:           true,
		DisableAggregates: true,
		DisableRanges:     true,
	}}
}

// MergeAblation runs the app's full page suite in Sloth mode under the
// four configurations. Each page load uses a fresh connection and store,
// as in the paper's methodology.
func MergeAblation(env *Env) (MergeAblationReport, error) {
	configs := []struct {
		label string
		cfg   querystore.Config
	}{
		{"off", querystore.Config{DisableDedup: true}},
		{"dedup", querystore.Config{}},
		{"merge", EqualityMergeConfig()},
		{"agg", MergeConfig()},
	}
	rep := MergeAblationReport{App: env.ID}
	for _, c := range configs {
		m, err := env.suiteSum(orm.ModeSloth, c.cfg)
		if err != nil {
			return rep, fmt.Errorf("bench: merge ablation %s: %w", c.label, err)
		}
		rep.Rows = append(rep.Rows, MergeAblationRow{
			Label: c.label, Time: m.Total, DBTime: m.DBTime, RoundTrips: m.RoundTrips, Queries: m.Queries,
			DBRows: m.DBRows, Saved: m.MergeSaved, FamilySaved: m.MergeFamilySaved,
		})
	}
	return rep, nil
}

// Row returns the ladder row with the given label.
func (r MergeAblationReport) Row(label string) (MergeAblationRow, bool) {
	for _, row := range r.Rows {
		if row.Label == label {
			return row, true
		}
	}
	return MergeAblationRow{}, false
}

// StatementsSaved reports the statement reduction of the full-family merge
// row relative to dedup-only batching.
func (r MergeAblationReport) StatementsSaved() int64 {
	var dedup, merged int64
	if row, ok := r.Row("dedup"); ok {
		dedup = row.Queries
	}
	if row, ok := r.Row("agg"); ok {
		merged = row.Queries
	}
	return dedup - merged
}

// Format renders the ablation ladder with the dedup row as baseline.
func (r MergeAblationReport) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== Ablation: batch merging, %s full suite (sloth mode) ==\n", r.App)
	fmt.Fprintf(&sb, "%-8s %14s %14s %12s %10s %10s %8s %8s %8s %8s\n",
		"config", "total time", "db time", "round trips", "queries", "db rows",
		"saved", "sv-eq", "sv-agg", "sv-range")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-8s %14v %14v %12d %10d %10d %8d %8d %8d %8d\n",
			row.Label, row.Time.Round(time.Microsecond), row.DBTime.Round(time.Microsecond),
			row.RoundTrips, row.Queries, row.DBRows, row.Saved,
			row.FamilySaved[merge.FamilyEquality],
			row.FamilySaved[merge.FamilyAggregate],
			row.FamilySaved[merge.FamilyRange])
	}
	base, haveBase := r.Row("dedup")
	if haveBase && base.Queries > 0 {
		diff := func(label string) {
			row, ok := r.Row(label)
			if !ok {
				return
			}
			fmt.Fprintf(&sb, "%s vs dedup: %d fewer statements (%.1f%%), db time %v -> %v (%.1f%% less)\n",
				label,
				base.Queries-row.Queries,
				100*float64(base.Queries-row.Queries)/float64(base.Queries),
				base.DBTime.Round(time.Microsecond), row.DBTime.Round(time.Microsecond),
				100*(float64(base.DBTime)-float64(row.DBTime))/float64(base.DBTime))
		}
		diff("merge")
		diff("agg")
		if eq, ok := r.Row("merge"); ok {
			if agg, ok := r.Row("agg"); ok && eq.Queries > 0 {
				fmt.Fprintf(&sb, "agg vs merge: %d fewer statements (%.1f%%) from the aggregate + range families\n",
					eq.Queries-agg.Queries,
					100*float64(eq.Queries-agg.Queries)/float64(eq.Queries))
			}
		}
	}
	return sb.String()
}
