package plan

import (
	"math/bits"
	"sync"

	"repro/internal/sqldb"
	"repro/internal/sqldb/storage"
)

// This file holds the vectorized (block-mode) executor: instead of pushing
// rows one at a time through WHERE / projection / GROUP BY closures, the
// plan gathers source rows into fixed-size blocks and runs each phase over
// the block with a selection bitmap — the cache-friendly inner loop each
// parallel DB worker spins in. Joins still execute row-at-a-time (the
// join inner loop builds fresh combined rows anyway), so the executor is
// chosen by the plan's shape alone: join-free plans run here, plans with
// joins take the row path in SelectPlan.exec.
//
// Blocking changes neither results nor RowsScanned: the same rows flow
// through the same closures in the same order as a row-at-a-time pass.

// blockRows is the block size: 256 row references plus a 4-word selection
// bitmap stay comfortably inside L1 while amortizing per-block overhead.
const blockRows = 256

// rowBlock is one execution block: aliased source-row references, the
// WHERE survivor bitmap, and the fill count.
type rowBlock struct {
	rows [blockRows][]sqldb.Value
	sel  [blockRows / 64]uint64
	n    int
}

var blockPool = sync.Pool{New: func() any { return new(rowBlock) }}

// execBlock is the vectorized twin of the row path for join-free plans:
// source rows batch into blocks; each flush runs the WHERE pass (filling
// the selection bitmap), then the consume pass (projection or aggregate
// accumulation) over the surviving lanes.
func (p *SelectPlan) execBlock(args []sqldb.Value, snap *storage.Snap) (*sqldb.ResultSet, error) {
	scanned := 0
	rs := &sqldb.ResultSet{Cols: p.cols}
	var run *aggRun
	if p.agg != nil {
		run = p.agg.newRun()
	}
	// needKeys: a non-aggregate ORDER BY term reads source columns, so keys
	// must be computed while the source row is at hand (result rows carry
	// only projected values).
	needKeys := false
	if run == nil {
		for _, ob := range p.orderBy {
			if ob.outCol < 0 {
				needKeys = true
				break
			}
		}
	}
	var orderKeys [][]sqldb.Value

	blk := blockPool.Get().(*rowBlock)
	defer func() {
		// Clear row references so the pooled block doesn't pin stored rows
		// (flush clears on success; this covers error returns).
		for i := 0; i < blk.n; i++ {
			blk.rows[i] = nil
		}
		blk.n = 0
		blockPool.Put(blk)
	}()

	flush := func() error {
		n := blk.n
		if n == 0 {
			return nil
		}
		words := (n + 63) / 64
		if p.where == nil {
			for w := 0; w < words; w++ {
				blk.sel[w] = ^uint64(0)
			}
			if rem := n % 64; rem != 0 {
				blk.sel[words-1] = (1 << rem) - 1
			}
		} else {
			for w := 0; w < words; w++ {
				blk.sel[w] = 0
			}
			for i := 0; i < n; i++ {
				v, err := p.where(blk.rows[i], args)
				if err != nil {
					return err
				}
				if v != nil && sqldb.Truthy(v) {
					blk.sel[i/64] |= 1 << uint(i%64)
				}
			}
		}
		for w := 0; w < words; w++ {
			m := blk.sel[w]
			for m != 0 {
				i := w*64 + bits.TrailingZeros64(m)
				m &= m - 1
				row := blk.rows[i]
				if run != nil {
					if err := run.add(row, args); err != nil {
						return err
					}
					continue
				}
				out := make([]sqldb.Value, len(p.projs))
				for j, fn := range p.projs {
					v, err := fn(row, args)
					if err != nil {
						return err
					}
					out[j] = v
				}
				rs.Rows = append(rs.Rows, out)
				if needKeys {
					ks := make([]sqldb.Value, len(p.orderBy))
					for k, ob := range p.orderBy {
						if ob.outCol >= 0 {
							ks[k] = out[ob.outCol]
							continue
						}
						v, err := ob.key(row, args)
						if err != nil {
							return err
						}
						ks[k] = v
					}
					orderKeys = append(orderKeys, ks)
				}
			}
		}
		for i := 0; i < n; i++ {
			blk.rows[i] = nil
		}
		blk.n = 0
		return nil
	}

	add := func(r storage.Row) error {
		scanned++
		blk.rows[blk.n] = r
		blk.n++
		if blk.n == blockRows {
			return flush()
		}
		return nil
	}

	source := func() error {
		for i := range p.access {
			vals, ok := p.access[i].values(args)
			if !ok {
				continue
			}
			for _, val := range vals {
				if err := p.from.LookupEach(p.access[i].ord, val, snap, add); err != nil {
					return err
				}
			}
			return nil
		}
		return p.from.ScanEach(snap, add)
	}
	if err := source(); err != nil {
		return nil, err
	}
	if err := flush(); err != nil {
		return nil, err
	}

	if run != nil {
		var err error
		rs, err = run.finish(args)
		if err != nil {
			return nil, err
		}
	}
	rs.RowsScanned = scanned

	if len(p.orderBy) > 0 {
		if run == nil && needKeys {
			p.sortKeyed(rs, orderKeys)
		} else if err := p.orderResult(rs, nil, args); err != nil {
			return nil, err
		}
	}
	p.finishRows(rs)
	return rs, nil
}
