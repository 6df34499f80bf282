package main

import (
	"encoding/json"
	"io"
	"sort"
	"time"

	"repro/internal/apps/tpcc"
	"repro/internal/dispatch"
	"repro/internal/driver"
	"repro/internal/sqldb"
	"repro/internal/sqldb/sqlparse"
)

// The traced run times calls into each layer from outside, at the seams
// the program already exposes: the benchmark wraps the dispatcher it hands
// to querystore.NewWithDispatcher, the merge stage it hands to the
// dispatcher, and the tpcc.Executor it hands to the TPC clients. No span
// is recorded inside the program. Spans stay in memory and are written out
// (-trace-out) only after the run.

// spanName identifies a span kind; names are small integers so a span
// holds no pointers and the garbage collector never scans the span log.
type spanName uint8

const (
	spanOp spanName = iota
	spanSubmit
	spanWait
	spanRewrite
	spanDemux
	spanExecRead
	spanExecWrite
	nSpanNames
)

var spanNames = [nSpanNames]string{
	"op", "dispatch.submit", "dispatch.wait", "merge.rewrite", "merge.demux",
	"exec.query.read", "exec.query.write",
}

// span is one timed interval: host nanoseconds since the tracer's origin,
// the index of the span that caused it (-1 for a root) and the op it
// belongs to. Spans of one op share its id.
type span struct {
	start, end int64
	parent, op int32
	name       spanName
}

// tracer is one client's span log. A client is one goroutine, so the log
// needs no lock; cur is the innermost open span.
type tracer struct {
	origin time.Time
	spans  []span
	cur    int32
	op     int32
}

func newTracer(origin time.Time) *tracer {
	return &tracer{origin: origin, spans: make([]span, 0, 1<<16), cur: -1, op: -1}
}

// begin opens a span under the innermost open one and returns its index.
// A nil tracer records nothing, so call sites need no branch.
func (t *tracer) begin(name spanName) int32 {
	if t == nil {
		return -1
	}
	if name == spanOp {
		t.op++
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{start: int64(hostNow().Sub(t.origin)), parent: t.cur, op: t.op, name: name})
	t.cur = i
	return i
}

// reset drops everything logged so far (the warm-up's spans).
func (t *tracer) reset() {
	if t != nil {
		t.spans, t.cur, t.op = t.spans[:0], -1, -1
	}
}

// log returns the spans recorded so far.
func (t *tracer) log() []span {
	if t == nil {
		return nil
	}
	return t.spans
}

func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.spans[i].end = int64(hostNow().Sub(t.origin))
	t.cur = t.spans[i].parent
}

// spanTotals aggregates one span kind.
type spanTotals struct {
	count int64
	dur   int64 // sum of durations, ns
	self  int64 // sum of self times, ns
}

// selfTimes computes every span's self time: its duration minus the part
// of its interval covered by the union of its direct children. Children
// may overlap one another (a worker goroutine's span beside the session's)
// and may stick out of the parent; only the covered part inside the parent
// counts, and it counts once.
func selfTimes(spans []span) []int64 {
	// Children grouped per parent in one flat array (a log holds millions
	// of spans on oltp_sloth): first[p] .. first[p+1] index into kidsOf.
	first := make([]int32, len(spans)+1)
	for _, s := range spans {
		if s.parent >= 0 {
			first[s.parent+1]++
		}
	}
	for i := 1; i < len(first); i++ {
		first[i] += first[i-1]
	}
	kidsOf := make([]int32, first[len(spans)])
	fill := append([]int32(nil), first[:len(spans)]...)
	for i, s := range spans {
		if s.parent >= 0 {
			kidsOf[fill[s.parent]] = int32(i)
			fill[s.parent]++
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := kidsOf[first[i]:first[i+1]]
		if len(kids) > 1 {
			// A single goroutine logs its children in start order already.
			byStart := func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start }
			if !sort.SliceIsSorted(kids, byStart) {
				sort.Slice(kids, byStart)
			}
		}
		covered, edge := int64(0), s.start
		for _, k := range kids {
			from, to := max(spans[k].start, edge), min(spans[k].end, s.end)
			if to > from {
				covered += to - from
				edge = to
			}
		}
		self[i] = (s.end - s.start) - covered
	}
	return self
}

// aggregate sums count, duration and self time per span kind.
func aggregate(spans []span) [nSpanNames]spanTotals {
	var out [nSpanNames]spanTotals
	self := selfTimes(spans)
	for i, s := range spans {
		t := &out[s.name]
		t.count++
		t.dur += s.end - s.start
		t.self += self[i]
	}
	return out
}

// writeSpans dumps the span logs as JSON lines, one span per line.
func writeSpans(w io.Writer, logs [][]span) error {
	enc := json.NewEncoder(w)
	for client, spans := range logs {
		for i, s := range spans {
			rec := struct {
				Client  int    `json:"client"`
				ID      int    `json:"id"`
				Parent  int32  `json:"parent"`
				Op      int32  `json:"op"`
				Name    string `json:"name"`
				StartNS int64  `json:"start_ns"`
				EndNS   int64  `json:"end_ns"`
			}{client, i, s.parent, s.op, spanNames[s.name], s.start, s.end}
			if err := enc.Encode(rec); err != nil {
				return err
			}
		}
	}
	return nil
}

// tracedDispatcher times Submit and Wait of the dispatcher it wraps.
type tracedDispatcher struct {
	inner dispatch.Dispatcher
	tr    *tracer
}

func (d tracedDispatcher) Submit(stmts []driver.Stmt) *dispatch.Ticket {
	s := d.tr.begin(spanSubmit)
	t := d.inner.Submit(stmts)
	d.tr.end(s)
	return t
}

func (d tracedDispatcher) Wait(t *dispatch.Ticket) ([]*sqldb.ResultSet, dispatch.BatchStats, error) {
	s := d.tr.begin(spanWait)
	rs, bs, err := d.inner.Wait(t)
	d.tr.end(s)
	return rs, bs, err
}

func (d tracedDispatcher) Deferred() bool        { return d.inner.Deferred() }
func (d tracedDispatcher) Stats() dispatch.Stats { return d.inner.Stats() }
func (d tracedDispatcher) Close()                { d.inner.Close() }

// tracedStage times a pipeline stage's rewrite and the demux it returns.
// It is only ever installed under the synchronous dispatcher, where the
// stage runs on the session's goroutine inside Submit.
type tracedStage struct {
	inner dispatch.Stage
	tr    *tracer
}

func (st tracedStage) Apply(stmts []driver.Stmt) ([]driver.Stmt, dispatch.Demux, dispatch.StageStats) {
	s := st.tr.begin(spanRewrite)
	out, demux, ss := st.inner.Apply(stmts)
	st.tr.end(s)
	if demux == nil {
		return out, nil, ss
	}
	timed := func(results []*sqldb.ResultSet) ([]*sqldb.ResultSet, error) {
		s := st.tr.begin(spanDemux)
		rs, err := demux(results)
		st.tr.end(s)
		return rs, err
	}
	return out, timed, ss
}

// tracedExecutor times every statement a TPC client issues, classed as
// read or write.
type tracedExecutor struct {
	inner tpcc.Executor
	tr    *tracer
}

func (e tracedExecutor) Query(sql string, args ...sqldb.Value) (*sqldb.ResultSet, error) {
	name := spanExecRead
	if sqlparse.IsWriteSQL(sql) {
		name = spanExecWrite
	}
	s := e.tr.begin(name)
	rs, err := e.inner.Query(sql, args...)
	e.tr.end(s)
	return rs, err
}
