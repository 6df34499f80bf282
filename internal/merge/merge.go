// Package merge implements Sloth's batch query-merge optimizer: a rewrite
// pass that runs between the query store's flush and the batch driver's
// dispatch. The query store already collapses *identical* statements; this
// subsystem goes further and coalesces statements that are identical except
// for one varying part, organized as a registry of three families:
//
//   - equality (FamilyEquality): the classic ORM 1+N shape — `SELECT ...
//     WHERE owner_id = ?` issued once per rendered row — becomes a single
//     `WHERE col IN (...)` statement;
//   - aggregate (FamilyAggregate): the per-row scalar-aggregate fan-out —
//     `SELECT COUNT(*) FROM t WHERE fk = ?` once per listed row — becomes
//     one `SELECT fk, COUNT(*) FROM t WHERE fk IN (...) GROUP BY fk`, and
//     demux synthesizes each original's one-row result (including the
//     zero-count row for keys that matched nothing);
//   - range (FamilyRange): statements identical except for one value
//     window (`col BETWEEN ? AND ?` / `col >= ? AND col < ?`) become a
//     single OR-of-windows statement — one table scan instead of N — with
//     range-membership demux.
//
// After execution the merged result set is demultiplexed back into one
// ResultSet per original statement, so callers and cached query ids observe
// exactly the results the unmerged batch would have produced.
//
// The paper (conf_sigmod_CheungMS14, Sec. 6.7) identifies the accumulated
// batch as an optimization surface; merging makes batches *smaller* (fewer,
// wider statements) rather than just fewer. Every per-statement cost —
// server dispatch, parse, per-query execution overhead, result-set framing
// — is paid once per group instead of once per statement, and the aggregate
// and range families also cut row work (one GROUP BY probe / one scan
// instead of N).
//
// Safety rules (checked per statement, conservatively):
//
//   - reads only; writes and transaction control pass through untouched and
//     act as barriers that close all open groups, so no read is ever moved
//     across a write;
//   - single-table SELECTs without DISTINCT, JOIN, GROUP BY, HAVING,
//     LIMIT, or OFFSET; the equality and range families additionally
//     reject computed projections, while the aggregate family requires
//     every output column to be a plain aggregate call;
//   - the varying part must resolve to literal or parameter values; the
//     remaining conjuncts, the projection, and the ORDER BY must be
//     identical across a group. That is what a group key says: the shape's
//     interned template (all of the above with constants as holes), the
//     match value's type class, the resolved residual constants, the
//     write-barrier epoch and the owning shard — a comparable struct, not a
//     rendered string. What depends only on the AST is analyzed once per
//     statement template per process (shape.go); only argument values are
//     resolved per statement (family.go);
//   - the match column must be recoverable from the merged result rows
//     (projected for equality/range, added as the GROUP BY key for
//     aggregates), because demultiplexing keys on its value;
//   - merged IN lists and OR-of-window lists are capped at
//     MaxInWidth members; wider groups split into chunks.
package merge

import (
	"fmt"
	"sync"

	"repro/internal/driver"
	"repro/internal/sqldb"
)

// MaxInWidth bounds the IN list (or window list) of one merged statement,
// mirroring the way production drivers cap host-variable counts per
// statement.
const MaxInWidth = 64

// Config controls the optimizer. The zero value disables merging, so a
// zero-config query store behaves exactly as before this subsystem existed.
type Config struct {
	// Enabled turns the rewrite on.
	Enabled bool
	// DisableAggregates switches off the aggregate family (on by default
	// whenever Enabled is set) — an ablation knob isolating the equality
	// baseline.
	DisableAggregates bool
	// DisableRanges switches off the range family, likewise.
	DisableRanges bool
	// ShardOf, when set on a sharded deployment, maps a (table, column,
	// value) match conjunct to its owning storage shard (ok=false:
	// unroutable — not the partition column, or a NULL). Merge families
	// then split per shard BEFORE rewriting, so an emitted `IN (...)` list
	// never spans shards and every merged statement stays routable by the
	// driver's occupancy mask. Splitting changes statement widths, so with
	// merging enabled the virtual timeline is shard-count-DEPENDENT (page
	// HTML never changes — demux is transparent); the golden timeline
	// equality bar therefore applies to merge-off configurations, which is
	// what every default and throughput path runs.
	ShardOf func(table, col string, v sqldb.Value) (int, bool)
}

// familyOn reports whether a family participates under this configuration.
func (c Config) familyOn(f FamilyID) bool {
	switch f {
	case FamilyAggregate:
		return !c.DisableAggregates
	case FamilyRange:
		return !c.DisableRanges
	default:
		return true
	}
}

// Stats counts optimizer activity across the batches of one Merger.
type Stats struct {
	Batches     int64 // batches rewritten
	Groups      int64 // merged statements emitted (group chunks)
	Merged      int64 // original statements absorbed into merged statements
	Saved       int64 // statements eliminated (Merged - Groups)
	Ineligible  int64 // read statements that failed a shape check
	RowsDemuxed int64 // rows routed back to original statements
	// SavedByFamily and GroupsByFamily break Saved and Groups down per
	// merge family (indexed by FamilyID).
	SavedByFamily  [NumFamilies]int64
	GroupsByFamily [NumFamilies]int64
}

// Merger is the batch optimizer. A session's merger rewrites on that
// session's goroutine, inside Submit; the mutex lets Stats be read from any
// other goroutine meanwhile.
type Merger struct {
	cfg Config

	mu    sync.Mutex
	stats Stats
}

// New creates a merger.
func New(cfg Config) *Merger { return &Merger{cfg: cfg} }

// Enabled reports whether the rewrite pass is active.
func (m *Merger) Enabled() bool { return m.cfg.Enabled }

// Stats snapshots the optimizer counters.
func (m *Merger) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// route records where one original statement's result comes from in the
// rewritten batch.
type route struct {
	stmtIdx int        // index into Plan.Stmts
	merged  bool       // true when the result must be demultiplexed
	cand    *candidate // this original's analysis (merged routes only)
}

// Plan is a rewritten batch plus the routing needed to reconstruct
// per-original results.
type Plan struct {
	// Stmts is the batch to hand to the driver, in an order consistent with
	// the original: each merged statement sits at its first member's
	// position, and no read crosses a write.
	Stmts  []driver.Stmt
	routes []route
	m      *Merger

	groupsBy [NumFamilies]int
	mergedBy [NumFamilies]int
}

// Saved reports how many statements the rewrite eliminated.
func (p *Plan) Saved() int { return len(p.routes) - len(p.Stmts) }

// Groups reports how many merged statements this plan emitted — the
// per-batch delta behind the Merger's cumulative Groups counter.
func (p *Plan) Groups() int {
	n := 0
	for _, g := range p.groupsBy {
		n += g
	}
	return n
}

// SavedByFamily breaks Saved down per merge family (indexed by FamilyID).
func (p *Plan) SavedByFamily() [NumFamilies]int {
	var out [NumFamilies]int
	for f := range out {
		out[f] = p.mergedBy[f] - p.groupsBy[f]
	}
	return out
}

// group is one group key seen in the batch, with its member count; ci is
// set only once the group turns out to have more than one member, so
// singleton groups allocate nothing of their own.
type group struct {
	key groupKey
	n   int
	ci  *chunkInfo
}

// groupSet finds a candidate's group by key. Most batches carry a handful
// of distinct keys, so the set scans its groups and only builds a map once
// there are more than scanLimit of them.
type groupSet struct {
	groups []group
	byKey  map[groupKey]int32
}

const scanLimit = 8

// add counts one more member of key's group and returns the group's ordinal.
func (gs *groupSet) add(key groupKey) int32 {
	g, ok := gs.byKey[key] // a nil map finds nothing
	if gs.byKey == nil {
		for i := range gs.groups {
			if gs.groups[i].key == key {
				g, ok = int32(i), true
				break
			}
		}
	}
	if !ok {
		g = int32(len(gs.groups))
		gs.groups = append(gs.groups, group{key: key})
		if gs.byKey == nil && g >= scanLimit {
			gs.byKey = make(map[groupKey]int32, 4*scanLimit)
			for i := range gs.groups {
				gs.byKey[gs.groups[i].key] = int32(i)
			}
		} else if gs.byKey != nil {
			gs.byKey[key] = g
		}
	}
	gs.groups[g].n++
	return g
}

// chunkInfo partitions one multi-member group into width-capped merged
// statements.
type chunkInfo struct {
	reps [][]*candidate   // per chunk, distinct-valued members in order
	stmt []int            // per chunk, rewritten-batch index (-1 until emitted)
	left int              // members not yet placed, sizing the next chunk
	seen map[window]int32 // varying part -> chunk ordinal
}

// Rewrite analyzes a pending batch and coalesces mergeable groups. The
// returned plan's Stmts execute in place of the originals; Demux then maps
// the results back. Rewrite never fails: statements it cannot improve (or
// cannot parse) pass through verbatim. The counters are added under the lock
// at the end, so neither analysis nor the caller-supplied ShardOf hook runs
// with the Merger locked.
func (m *Merger) Rewrite(stmts []driver.Stmt) *Plan {
	p := &Plan{m: m, routes: make([]route, len(stmts))}
	var ineligible int64

	cands := make([]candidate, len(stmts))
	gs := groupSet{groups: make([]group, 0, min(len(stmts), scanLimit))}
	epoch := 0
	for i, st := range stmts {
		if st.IsWrite() {
			// Writes close all open groups: merging must not move a read
			// from one side of a write to the other.
			epoch++
			continue
		}
		c := &cands[i]
		key, ok := m.analyze(st, c)
		if !ok {
			ineligible++
			continue
		}
		// Equality and aggregate candidates carry one match value, so
		// their owning shard is known before rewrite and same-key
		// candidates keep grouping together. Range windows span keys and
		// stay unsplit (they fan out at execution regardless).
		key.epoch, key.shard = epoch, -1
		if m.cfg.ShardOf != nil && c.sh.fam != FamilyRange {
			if sh, ok := m.cfg.ShardOf(c.sh.sel.From.Name, c.sh.matchRef.Name, c.matchVal); ok {
				key.shard = sh
			}
		}
		c.group = gs.add(key)
	}

	// Partition each multi-member group into width-capped chunks of
	// distinct varying parts. Duplicate values/windows (possible with dedup
	// disabled) share the chunk that already carries them.
	out := len(stmts)
	for i := range cands {
		c := &cands[i]
		if c.sh == nil || gs.groups[c.group].n < 2 {
			continue
		}
		g := &gs.groups[c.group]
		if g.ci == nil {
			g.ci = &chunkInfo{left: g.n, seen: make(map[window]int32, g.n)}
		}
		ci, key := g.ci, c.varying()
		ci.left--
		out--
		if ord, dup := ci.seen[key]; dup {
			c.chunk = ord
			continue
		}
		if len(ci.reps) == 0 || len(ci.reps[len(ci.reps)-1]) >= MaxInWidth {
			ci.reps = append(ci.reps, make([]*candidate, 0, min(MaxInWidth, ci.left+1)))
			ci.stmt = append(ci.stmt, -1)
			out++
		}
		c.chunk = int32(len(ci.reps) - 1)
		ci.reps[c.chunk] = append(ci.reps[c.chunk], c)
		ci.seen[key] = c.chunk
	}

	// Emit pass: walk originals in order; each merged statement is emitted
	// at its chunk's first member, so relative order with pass-through
	// statements (and any write barrier) is preserved.
	p.Stmts = make([]driver.Stmt, 0, out)
	for i, st := range stmts {
		c := &cands[i]
		var ci *chunkInfo
		if c.sh != nil {
			ci = gs.groups[c.group].ci
		}
		if ci == nil {
			// Pass-through: write, ineligible, or singleton group.
			p.routes[i] = route{stmtIdx: len(p.Stmts)}
			p.Stmts = append(p.Stmts, st)
			continue
		}
		fam := c.sh.fam
		if ci.stmt[c.chunk] == -1 {
			sql, args, err := renderMergedFn(c, ci.reps[c.chunk])
			if err != nil {
				// Defensive fallback — candidate shapes are all
				// renderer-supported, but never let a render bug change
				// results: execute this statement unmerged.
				p.routes[i] = route{stmtIdx: len(p.Stmts)}
				p.Stmts = append(p.Stmts, st)
				ineligible++
				continue
			}
			ci.stmt[c.chunk] = len(p.Stmts)
			p.Stmts = append(p.Stmts, driver.Stmt{SQL: sql, Args: args})
			p.groupsBy[fam]++
		}
		p.routes[i] = route{stmtIdx: ci.stmt[c.chunk], merged: true, cand: c}
		p.mergedBy[fam]++
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.Batches++
	m.stats.Ineligible += ineligible
	m.stats.Saved += int64(p.Saved())
	for f, s := range p.SavedByFamily() {
		m.stats.Groups += int64(p.groupsBy[f])
		m.stats.Merged += int64(p.mergedBy[f])
		m.stats.GroupsByFamily[f] += int64(p.groupsBy[f])
		m.stats.SavedByFamily[f] += int64(s)
	}
	return p
}

// Demux routes the rewritten batch's results back to the original
// statements: pass-through statements forward their ResultSet unchanged,
// and each merged statement's rows are partitioned per family — by match
// value (equality), by GROUP BY key with zero-row synthesis (aggregate),
// or by window membership (range). Originals whose key matched no row
// receive exactly what their own execution would have returned: an empty
// ResultSet for equality/range, a one-row zero/NULL result for aggregates.
//
// The merged statement's scan work (ResultSet.RowsScanned) is pro-rated
// across its routes — earlier routes absorb the remainder — so per-original
// cost accounting stays comparable with unmerged execution.
func (p *Plan) Demux(results []*sqldb.ResultSet) ([]*sqldb.ResultSet, error) {
	if len(results) != len(p.Stmts) {
		return nil, fmt.Errorf("merge: demux: %d results for %d statements", len(results), len(p.Stmts))
	}
	// Pro-rating denominators: how many originals share each merged
	// statement, and how many of its shares have been handed out.
	shares := make(map[int]int)
	for _, r := range p.routes {
		if r.merged {
			shares[r.stmtIdx]++
		}
	}
	handed := make(map[int]int)

	out := make([]*sqldb.ResultSet, len(p.routes))
	var demuxedRows int64
	for i, r := range p.routes {
		rs := results[r.stmtIdx]
		if !r.merged {
			out[i] = rs
			continue
		}
		var sub *sqldb.ResultSet
		var err error
		switch r.cand.sh.fam {
		case FamilyAggregate:
			sub = demuxAggregate(rs, r.cand)
		case FamilyRange:
			sub, err = demuxRange(rs, r.cand)
		default:
			sub, err = demuxEquality(rs, r.cand)
		}
		if err != nil {
			return nil, err
		}
		n, k := shares[r.stmtIdx], handed[r.stmtIdx]
		sub.RowsScanned = scanShare(rs.RowsScanned, n, k)
		handed[r.stmtIdx]++
		demuxedRows += int64(len(sub.Rows))
		out[i] = sub
	}
	if p.m != nil {
		p.m.mu.Lock()
		p.m.stats.RowsDemuxed += demuxedRows
		p.m.mu.Unlock()
	}
	return out, nil
}

// scanShare splits a merged statement's scan count across its n routes:
// share k (0-based) gets the floor, with the remainder absorbed one row at
// a time by the earliest routes, so the shares always sum to scanned.
func scanShare(scanned, n, k int) int {
	if n <= 0 {
		return scanned
	}
	share := scanned / n
	if k < scanned%n {
		share++
	}
	return share
}

// demuxEquality partitions merged rows by the match column's value.
func demuxEquality(rs *sqldb.ResultSet, c *candidate) (*sqldb.ResultSet, error) {
	ci, ok := rs.ColIndex(c.sh.matchRef.Name)
	if !ok {
		return nil, fmt.Errorf("merge: demux: merged result lacks match column %q", c.sh.matchRef.Name)
	}
	sub := &sqldb.ResultSet{Cols: rs.Cols}
	for _, row := range rs.Rows {
		if sqldb.Equal(sqldb.Normalize(row[ci]), c.matchVal) {
			sub.Rows = append(sub.Rows, row)
		}
	}
	return sub, nil
}

// demuxAggregate reconstructs the one-row scalar result of an original
// aggregate statement from the merged GROUP BY result. The merged
// projection is positional — key first, then the aggregates in the
// original select-list order — and the output carries the original
// statement's own labels. A key with no group row gets the empty-set
// aggregate values: zero for COUNT, NULL otherwise.
func demuxAggregate(rs *sqldb.ResultSet, c *candidate) *sqldb.ResultSet {
	sub := &sqldb.ResultSet{Cols: c.sh.labels}
	for _, row := range rs.Rows {
		if !sqldb.Equal(sqldb.Normalize(row[0]), c.matchVal) {
			continue
		}
		vals := make([]sqldb.Value, len(c.sh.aggs))
		copy(vals, row[1:1+len(c.sh.aggs)])
		sub.Rows = append(sub.Rows, vals)
		return sub
	}
	vals := make([]sqldb.Value, len(c.sh.aggs))
	for i, fc := range c.sh.aggs {
		vals[i] = zeroValue(fc)
	}
	sub.Rows = append(sub.Rows, vals)
	return sub
}

// demuxRange partitions merged rows by membership in the original's value
// window.
func demuxRange(rs *sqldb.ResultSet, c *candidate) (*sqldb.ResultSet, error) {
	ci, ok := rs.ColIndex(c.sh.matchRef.Name)
	if !ok {
		return nil, fmt.Errorf("merge: demux: merged result lacks range column %q", c.sh.matchRef.Name)
	}
	sub := &sqldb.ResultSet{Cols: rs.Cols}
	for _, row := range rs.Rows {
		if c.win.contains(sqldb.Normalize(row[ci])) {
			sub.Rows = append(sub.Rows, row)
		}
	}
	return sub, nil
}
