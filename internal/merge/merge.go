// Package merge implements Sloth's batch query-merge optimizer: a rewrite
// pass that runs between the query store's flush and the batch driver's
// dispatch. The query store already collapses *identical* statements; this
// subsystem goes further and coalesces statements that are identical except
// for one match value, organized as a registry of two families:
//
//   - equality (FamilyEquality): the classic ORM 1+N shape — `SELECT ...
//     WHERE owner_id = ?` issued once per rendered row — becomes a single
//     `WHERE col IN (...)` statement;
//   - aggregate (FamilyAggregate): the per-row scalar-aggregate fan-out —
//     `SELECT COUNT(*) FROM t WHERE fk = ?` once per listed row — becomes
//     one `SELECT fk, COUNT(*) FROM t WHERE fk IN (...) GROUP BY fk`, and
//     demux synthesizes each original's one-row result (including the
//     zero-count row for keys that matched nothing).
//
// A family arrives together with a workload that exercises it.
//
// After execution the merged result set is demultiplexed back into one
// ResultSet per original statement, so callers and cached query ids observe
// exactly the results the unmerged batch would have produced.
//
// The paper (conf_sigmod_CheungMS14, Sec. 6.7) identifies the accumulated
// batch as an optimization surface; merging makes batches *smaller* (fewer,
// wider statements) rather than just fewer. Every per-statement cost —
// server dispatch, parse, per-query execution overhead, result-set framing
// — is paid once per group instead of once per statement, and the
// aggregate family also cuts row work (one GROUP BY probe instead of N).
//
// Merging knows nothing of storage sharding: a merged IN list may span
// shards, and the driver prices it with one occupancy-mask bit per key, so
// a session's virtual timeline does not depend on the shard count.
//
// Safety rules (checked per statement, conservatively):
//
//   - reads only; writes and transaction control pass through untouched and
//     act as barriers that close all open groups, so no read is ever moved
//     across a write;
//   - single-table SELECTs without DISTINCT, JOIN, GROUP BY, HAVING,
//     LIMIT, or OFFSET; the equality family additionally rejects computed
//     projections, while the aggregate family requires every output column
//     to be a plain aggregate call;
//   - the match value must resolve to a literal or parameter value; the
//     remaining conjuncts, the projection, and the ORDER BY must be
//     identical across a group. That is what a group key says: the shape's
//     interned template (all of the above with constants as holes), the
//     match value's type class, the resolved residual constants and the
//     write-barrier epoch — a comparable struct, not a rendered string.
//     What depends only on the AST is analyzed once per statement template
//     per process (shape.go); only argument values are resolved per
//     statement (family.go);
//   - the match column must be recoverable from the merged result rows
//     (projected for equality, added as the GROUP BY key for aggregates),
//     because demultiplexing keys on its value;
//   - merged IN lists are capped at MaxInWidth members; wider groups split
//     into chunks.
package merge

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/driver"
	"repro/internal/sqldb"
	"repro/internal/sqldb/sqlparse"
)

// MaxInWidth bounds the IN list of one merged statement,
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
// session's goroutine, inside Submit, one batch at a time; the mutex lets
// Stats be read from any other goroutine meanwhile.
type Merger struct {
	cfg Config
	// pass is the plan Rewrite hands back when nothing merges, reused so
	// that a pass-through batch allocates nothing.
	pass Plan

	mu    sync.Mutex
	stats Stats
}

// New creates a merger.
func New(cfg Config) *Merger { return &Merger{cfg: cfg} }

// Stats snapshots the optimizer counters.
func (m *Merger) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Plan is a rewritten batch plus the routing needed to reconstruct
// per-original results. A pass-through plan (nothing merged: Groups() == 0)
// is its Merger's own and valid until that Merger's next Rewrite; its
// Stmts is the batch itself and its Demux the identity. A merged plan holds
// the batch's working memory until Demux gives it back, so it is
// single-use: a second Demux returns an error rather than stale rows.
type Plan struct {
	// Stmts is the batch to hand to the driver, in an order consistent with
	// the original: each merged statement sits at its first member's
	// position, and no read crosses a write.
	Stmts   []driver.Stmt
	n       int      // original statements
	s       *scratch // a merged plan's working memory, until Demux
	demuxed bool     // a merged plan whose Demux has run
	m       *Merger

	groupsBy [NumFamilies]int
	mergedBy [NumFamilies]int
}

// Saved reports how many statements the rewrite eliminated.
func (p *Plan) Saved() int { return p.n - len(p.Stmts) }

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

// group is one group key seen in the batch, with its member count, how
// many of them partition has walked, and the chunk its next distinct member
// joins (-1: none yet).
type group struct {
	key       groupKey
	n, walked int
	open      int32
}

// groupSet finds a candidate's group by key. Most batches carry a handful
// of distinct keys, so the set scans its groups and only indexes them in
// byKey (emptied, not dropped, between batches) past scanLimit of them.
type groupSet struct {
	groups []group
	byKey  map[groupKey]int32
}

const scanLimit = 8

// add counts one more member of key's group and returns the group's ordinal.
func (gs *groupSet) add(key groupKey) int32 {
	g, ok := gs.byKey[key]
	indexed := len(gs.byKey) > 0
	if !indexed {
		for i := range gs.groups {
			if gs.groups[i].key == key {
				g, ok = int32(i), true
				break
			}
		}
	}
	if !ok {
		g = int32(len(gs.groups))
		gs.groups = append(gs.groups, group{key: key, open: -1})
		if !indexed && g >= scanLimit {
			if gs.byKey == nil {
				gs.byKey = make(map[groupKey]int32, 4*scanLimit)
			}
			for i := range gs.groups {
				gs.byKey[gs.groups[i].key] = int32(i)
			}
		} else if indexed {
			gs.byKey[key] = g
		}
	}
	gs.groups[g].n++
	return g
}

// chunk is one width-capped merged statement of a multi-member group.
type chunk struct {
	off, width int32 // its distinct members: scratch.members[off : off+width]
	stmt       int32 // rewritten-batch index (-1 until emitted, -2: render failed)
	routes     int32 // originals routed to it
	handed     int32 // scan shares Demux has handed out
}

// partKey names a match value within a group.
type partKey struct {
	group int32
	v     sqldb.Value
}

// hit is one merged row routed to a match value, chained to its next one.
type hit struct {
	row  []sqldb.Value
	next int32
}

// scratch is one batch's working memory, borrowed from scratchPool by
// Rewrite and given back by Rewrite when nothing merges, else by Demux.
// Everything is emptied on the way back, so cands is zero on the way out.
type scratch struct {
	cands   []candidate // indexed like the batch
	gs      groupSet
	chunks  []chunk
	members []*candidate      // the chunks' distinct members, chunk by chunk
	dedup   map[partKey]int32 // match value -> the candidate carrying it first
	hits    []hit             // Demux: merged rows, chained per match value
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func (s *scratch) release() {
	clear(s.cands)
	clear(s.gs.groups)
	clear(s.gs.byKey)
	clear(s.members)
	clear(s.dedup)
	clear(s.hits)
	s.cands, s.gs.groups, s.chunks, s.members, s.hits = s.cands[:0], s.gs.groups[:0], s.chunks[:0], s.members[:0], s.hits[:0]
	scratchPool.Put(s)
}

// inGroup reports whether c belongs to a multi-member group; its result
// then comes out of a merged statement unless its chunk failed to render.
func (s *scratch) inGroup(c *candidate) bool {
	return c.sh != nil && s.gs.groups[c.group].n > 1
}

// Rewrite analyzes a pending batch and coalesces mergeable groups. The
// returned plan's Stmts execute in place of the originals; Demux then maps
// the results back (see Plan for how long each kind of plan stays valid).
// Rewrite never fails: statements it cannot improve (or whose merged text
// fails to render or parse) pass through verbatim, and a batch in which
// nothing merges costs its analysis and nothing else. The counters are
// added under the lock at the end, so analysis never runs with the Merger
// locked.
func (m *Merger) Rewrite(stmts []driver.Stmt) *Plan {
	s := scratchPool.Get().(*scratch)
	s.cands = slices.Grow(s.cands, len(stmts))[:len(stmts)]
	var ineligible int64
	merging := false
	epoch := 0
	for i, st := range stmts {
		if sqlparse.IsWrite(st.Parsed) {
			// Writes close all open groups: merging must not move a read
			// from one side of a write to the other.
			epoch++
			continue
		}
		c := &s.cands[i]
		key, ok := m.analyze(st, c)
		if !ok {
			ineligible++
			continue
		}
		key.epoch = epoch
		c.group = s.gs.add(key)
		merging = merging || s.gs.groups[c.group].n > 1
	}
	if !merging {
		s.release()
		m.pass = Plan{Stmts: stmts, n: len(stmts), m: m}
		m.count(&m.pass, ineligible)
		return &m.pass
	}

	// Partition each multi-member group into width-capped chunks of
	// distinct match values, in batch order; a duplicate value (possible
	// with dedup disabled) rides on the candidate carrying it first, and so
	// shares its chunk.
	if s.dedup == nil {
		s.dedup = make(map[partKey]int32)
	}
	absorbed := 0
	for i := range s.cands {
		c := &s.cands[i]
		if !s.inGroup(c) {
			continue
		}
		absorbed++
		g := &s.gs.groups[c.group]
		g.walked++
		k := partKey{c.group, c.matchVal}
		if rep, dup := s.dedup[k]; dup {
			c.rep, c.chunk = rep, s.cands[rep].chunk
			continue
		}
		s.dedup[k], c.rep = int32(i), int32(i)
		if g.open < 0 || s.chunks[g.open].width == MaxInWidth {
			// Room for every member the group has left, up to the cap.
			off, room := len(s.members), min(MaxInWidth, g.n-g.walked+1)
			s.members = slices.Grow(s.members, room)[:off+room]
			g.open = int32(len(s.chunks))
			s.chunks = append(s.chunks, chunk{off: int32(off), stmt: -1})
		}
		ch := &s.chunks[g.open]
		c.chunk, s.members[ch.off+ch.width] = g.open, c
		ch.width++
	}

	// Emit pass: walk originals in order; each merged statement is emitted
	// at its chunk's first member, so relative order with pass-through
	// statements (and any write barrier) is preserved.
	p := &Plan{n: len(stmts), s: s, m: m}
	p.Stmts = make([]driver.Stmt, 0, len(stmts)-absorbed+len(s.chunks))
	for i, st := range stmts {
		c := &s.cands[i]
		if s.inGroup(c) {
			fam, ch := c.sh.fam, &s.chunks[c.chunk]
			if ch.stmt == -1 {
				// A render error is defensive — candidate shapes are all
				// renderer-supported — but never let a render bug change
				// results: the chunk's members then execute unmerged.
				if merged, err := renderMergedFn(c, s.members[ch.off:ch.off+ch.width]); err != nil {
					ch.stmt = -2
				} else {
					ch.stmt = int32(len(p.Stmts))
					p.Stmts = append(p.Stmts, merged)
					p.groupsBy[fam]++
				}
			}
			if ch.stmt >= 0 {
				ch.routes++
				p.mergedBy[fam]++
				continue
			}
			ineligible++
		}
		// Pass-through: write, ineligible, singleton group or failed render.
		c.out = int32(len(p.Stmts))
		p.Stmts = append(p.Stmts, st)
	}
	m.count(p, ineligible)
	return p
}

// count adds one rewritten batch to the Merger's counters.
func (m *Merger) count(p *Plan, ineligible int64) {
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
}

// Demux routes the rewritten batch's results back to the original
// statements: pass-through statements forward their ResultSet unchanged,
// and each merged statement's rows, routed once (route), are partitioned
// per family — by match value (equality) or by GROUP BY key with zero-row
// synthesis (aggregate) — into results
// carved from one ResultSet slab and one row backing. Every original gets
// exactly what its own execution would have returned, duplicates the whole
// bag of their key's rows, a key with no rows an empty ResultSet (a one-row
// zero/NULL result for aggregates). The merged statement's scan work
// (ResultSet.RowsScanned) is pro-rated across its routes — earlier routes
// absorb the remainder — so per-original cost accounting stays comparable
// with unmerged execution.
func (p *Plan) Demux(results []*sqldb.ResultSet) ([]*sqldb.ResultSet, error) {
	if len(results) != len(p.Stmts) {
		return nil, fmt.Errorf("merge: demux: %d results for %d statements", len(results), len(p.Stmts))
	}
	s := p.s
	if s == nil {
		if p.demuxed {
			return nil, fmt.Errorf("merge: demux: plan already demultiplexed")
		}
		return results, nil
	}
	p.s, p.demuxed = nil, true
	defer s.release()

	nsub, nrows, nvals := 0, 0, 0
	for k := range s.chunks {
		if ch := &s.chunks[k]; ch.stmt >= 0 {
			if err := s.route(results[ch.stmt], int32(k)); err != nil {
				return nil, err
			}
		}
	}
	for i := range s.cands {
		if c := &s.cands[i]; !s.inGroup(c) || s.chunks[c.chunk].stmt < 0 {
			continue
		} else if c.sh.fam == FamilyAggregate {
			nsub, nrows, nvals = nsub+1, nrows+1, nvals+len(c.sh.aggs)
		} else {
			nsub, nrows = nsub+1, nrows+int(s.cands[c.rep].nrows)
		}
	}
	out := make([]*sqldb.ResultSet, p.n)
	subs := make([]sqldb.ResultSet, nsub)
	rows := make([][]sqldb.Value, nrows)
	vals := make([]sqldb.Value, nvals)
	var demuxedRows int64
	for i := range s.cands {
		c := &s.cands[i]
		if !s.inGroup(c) || s.chunks[c.chunk].stmt < 0 {
			out[i] = results[c.out]
			continue
		}
		rep, ch, sub := &s.cands[c.rep], &s.chunks[c.chunk], &subs[0]
		rs := results[ch.stmt]
		subs = subs[1:]
		if n := len(c.sh.aggs); c.sh.fam == FamilyAggregate {
			// Key first, then the aggregates in select-list order, under
			// the original's own labels; a key with no group row gets the
			// empty-set values.
			v := vals[:n:n]
			if vals = vals[n:]; rep.nrows > 0 {
				copy(v, s.hits[rep.first].row[1:1+n])
			} else {
				for j, fc := range c.sh.aggs {
					v[j] = zeroValue(fc)
				}
			}
			sub.Cols, sub.Rows, rows = c.sh.labels, rows[:1:1], rows[1:]
			sub.Rows[0] = v
		} else if n := int(rep.nrows); n > 0 {
			sub.Cols, sub.Rows, rows = rs.Cols, rows[:n:n], rows[n:]
			for j, h := 0, rep.first; j < n; j, h = j+1, s.hits[h].next {
				sub.Rows[j] = s.hits[h].row
			}
		} else {
			sub.Cols = rs.Cols
		}
		sub.RowsScanned = scanShare(rs.RowsScanned, int(ch.routes), int(ch.handed))
		ch.handed++
		demuxedRows += int64(len(sub.Rows))
		out[i] = sub
	}
	p.m.mu.Lock()
	p.m.stats.RowsDemuxed += demuxedRows
	p.m.mu.Unlock()
	return out, nil
}

// route matches every row of chunk k's merged statement against the
// chunk's distinct members once, chaining each match onto the member it
// matched. A row whose match value has the members' type class, where that class is one in which Go == agrees with
// sqldb.Equal (int64, string, bool), takes one dedup-map lookup; any other
// row — NULL, a float, an int key against a FLOAT column (numeric
// promotion) — is compared with sqldb.Equal member by member.
func (s *scratch) route(rs *sqldb.ResultSet, k int32) error {
	ch := &s.chunks[k]
	members := s.members[ch.off : ch.off+ch.width]
	sh := members[0].sh
	col, ok := 0, true // aggregate: the GROUP BY key leads
	if sh.fam != FamilyAggregate {
		col, ok = rs.ColIndex(sh.matchRef.Name)
	}
	if !ok {
		return fmt.Errorf("merge: demux: merged result lacks match column %q", sh.matchRef.Name)
	}
	group, class := members[0].group, scalarClass(members[0].matchVal)
	for _, row := range rs.Rows {
		v := sqldb.Normalize(row[col])
		if class != 'f' && scalarClass(v) == class {
			if rep, ok := s.dedup[partKey{group, v}]; ok && s.cands[rep].chunk == k {
				s.hit(&s.cands[rep], row)
			}
			continue
		}
		for _, m := range members {
			if sqldb.Equal(v, m.matchVal) {
				s.hit(m, row)
			}
		}
	}
	return nil
}

// hit chains row onto c's matches.
func (s *scratch) hit(c *candidate, row []sqldb.Value) {
	h := int32(len(s.hits))
	s.hits = append(s.hits, hit{row: row, next: -1})
	if c.nrows == 0 {
		c.first = h
	} else {
		s.hits[c.last].next = h
	}
	c.last = h
	c.nrows++
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
