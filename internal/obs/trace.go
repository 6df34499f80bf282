// Package obs is the observability spine of the reproduction: a
// deterministic query-lifecycle tracer and fixed-bucket latency histograms.
// Counts are not kept here: each layer's Stats struct holds its own.
//
// The paper's entire argument is about where time goes inside a page load —
// round trips deferred, batched, and overlapped — so the tracer records
// SPANS ON THE VIRTUAL CLOCK: every span is stamped with the virtual
// start/end times of the timeline it happened on (a session's clock, a DB
// worker queue's horizon), not with host time. Because a single session's
// simulation is deterministic, a page's span tree is itself deterministic
// and golden-testable: two runs of the same page produce byte-identical
// waterfalls, including timestamps.
//
// Tracing is zero-cost when disabled, and disabled means a nil *Tracer (the
// default everywhere): a tracer records iff it is non-nil. The span context
// Ctx is a value type whose methods begin with a nil check and return
// immediately, so instrumented code paths pay one predictable branch.
//
// Span parents are threaded explicitly, never through goroutine-local
// state: webapp.Load opens a page root and hands the Ctx to the query
// store, which parents flush spans under it and installs the flush Ctx on
// its connection while it submits; the dispatcher parents the batch's
// execution spans under that context, on the right branch of the right
// page tree.
package obs

import (
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// SpanID identifies a span within its tracer. Zero is "no span".
type SpanID int

// Arg is one key/value annotation on a span. Values must be one of
// string, int, int64, float64, bool, or time.Duration so rendering is
// deterministic.
type Arg struct {
	K string
	V any
}

// span is the internal record.
type span struct {
	id     SpanID
	parent SpanID
	cat    string
	name   string
	track  string
	start  time.Duration // virtual
	end    time.Duration // virtual; == start until End
	args   []Arg
}

// Span is the exported snapshot of one recorded span (tests, exporters).
type Span struct {
	ID     SpanID
	Parent SpanID
	Cat    string
	Name   string
	Track  string
	Start  time.Duration
	End    time.Duration
	Args   []Arg
}

// Tracer records spans. It is safe for concurrent use: concurrent sessions
// record from their own goroutines.
type Tracer struct {
	mu    sync.Mutex
	spans []span
}

// NewTracer returns a recording tracer.
func NewTracer() *Tracer { return &Tracer{} }

// SpanCount reports how many spans have been recorded.
func (t *Tracer) SpanCount() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Spans snapshots every recorded span in recording order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	for i := range t.spans {
		s := &t.spans[i]
		out[i] = Span{
			ID: s.id, Parent: s.parent, Cat: s.cat, Name: s.name,
			Track: s.track, Start: s.start, End: s.end, Args: s.args,
		}
	}
	return out
}

// Roots lists the ids of parentless spans (page roots) in recording order.
func (t *Tracer) Roots() []SpanID {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []SpanID
	for i := range t.spans {
		if t.spans[i].parent == 0 {
			out = append(out, t.spans[i].id)
		}
	}
	return out
}

// start appends a span and returns its Ctx. Callers hold no locks.
func (t *Tracer) start(parent SpanID, track, cat, name string, at time.Duration, args []Arg) Ctx {
	t.mu.Lock()
	id := SpanID(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		id: id, parent: parent, cat: cat, name: name, track: track,
		start: at, end: at, args: args,
	})
	t.mu.Unlock()
	return Ctx{t: t, id: id, track: track}
}

// Root opens a parentless span on the given exporter track (one track per
// session and per DB worker).
func (t *Tracer) Root(track, cat, name string, start time.Duration, args ...Arg) Ctx {
	if t == nil {
		return Ctx{}
	}
	return t.start(0, track, cat, name, start, args)
}

// Ctx is a handle to an open span: the parent under which children record.
// The zero value is the disabled context — every method on it is a no-op —
// so instrumentation threads Ctx values unconditionally and pays only a
// nil check when tracing is off. Ctx is an immutable value and safe to
// hand across goroutines.
type Ctx struct {
	t     *Tracer
	id    SpanID
	track string
}

// Enabled reports whether this context records spans.
func (c Ctx) Enabled() bool { return c.t != nil }

// Child opens a span under c on the same track.
func (c Ctx) Child(cat, name string, start time.Duration, args ...Arg) Ctx {
	if !c.Enabled() {
		return Ctx{}
	}
	return c.t.start(c.id, c.track, cat, name, start, args)
}

// ChildTrack opens a span under c on a different exporter track (DB worker
// occupancy spans live on per-worker tracks while staying in the page
// tree).
func (c Ctx) ChildTrack(track, cat, name string, start time.Duration, args ...Arg) Ctx {
	if !c.Enabled() {
		return Ctx{}
	}
	return c.t.start(c.id, track, cat, name, start, args)
}

// End closes the span at the given virtual time.
func (c Ctx) End(end time.Duration) { c.EndArgs(end) }

// EndArgs closes the span and appends result annotations (rows scanned,
// statements saved, ...).
func (c Ctx) EndArgs(end time.Duration, args ...Arg) {
	if !c.Enabled() {
		return
	}
	c.t.mu.Lock()
	s := &c.t.spans[c.id-1]
	s.end = end
	if len(args) > 0 {
		s.args = append(s.args, args...)
	}
	c.t.mu.Unlock()
}

// Instant records a zero-width marker span under c (error events, stage
// annotations with no duration of their own).
func (c Ctx) Instant(cat, name string, at time.Duration, args ...Arg) {
	if !c.Enabled() {
		return
	}
	c.t.start(c.id, c.track, cat, name, at, args).End(at)
}

// formatArg renders one annotation value deterministically.
func formatArg(v any) string {
	switch x := v.(type) {
	case string:
		return x
	case int:
		return strconv.Itoa(x)
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case bool:
		if x {
			return "true"
		}
		return "false"
	case time.Duration:
		return x.String()
	default:
		return "?"
	}
}

// argString renders a span's annotations as " {k=v k=v}" in recording
// order (instrumentation sites emit args in a fixed order, so this is
// deterministic).
func argString(args []Arg) string {
	if len(args) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteString(" {")
	for i, a := range args {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(a.K)
		sb.WriteByte('=')
		sb.WriteString(formatArg(a.V))
	}
	sb.WriteByte('}')
	return sb.String()
}

// Waterfall renders the span tree rooted at id as an indented text
// timeline on the virtual clock. The rendering is the GOLDEN FORM of a
// trace: it includes span names, categories, annotations, and virtual
// start/end timestamps, and deliberately excludes everything
// placement-dependent — exporter tracks (a DB span lands on a different
// worker track under -workers 4, but its virtual times are identical), and
// recording order (children sort by virtual time, then category, name, and
// annotations).
func (t *Tracer) Waterfall(root SpanID) string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	spans := make([]span, len(t.spans))
	copy(spans, t.spans)
	t.mu.Unlock()

	children := make(map[SpanID][]int)
	byID := make(map[SpanID]int, len(spans))
	for i := range spans {
		byID[spans[i].id] = i
		children[spans[i].parent] = append(children[spans[i].parent], i)
	}
	for _, kids := range children {
		sort.SliceStable(kids, func(a, b int) bool {
			x, y := &spans[kids[a]], &spans[kids[b]]
			if x.start != y.start {
				return x.start < y.start
			}
			if x.end != y.end {
				return x.end < y.end
			}
			if x.cat != y.cat {
				return x.cat < y.cat
			}
			if x.name != y.name {
				return x.name < y.name
			}
			return argString(x.args) < argString(y.args)
		})
	}

	var sb strings.Builder
	var walk func(idx, depth int)
	walk = func(idx, depth int) {
		s := &spans[idx]
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(s.cat)
		if s.name != s.cat {
			sb.WriteByte(' ')
			sb.WriteString(s.name)
		}
		sb.WriteString(" [")
		sb.WriteString(s.start.String())
		sb.WriteString(" → ")
		sb.WriteString(s.end.String())
		sb.WriteByte(']')
		sb.WriteString(argString(s.args))
		sb.WriteByte('\n')
		for _, k := range children[s.id] {
			walk(k, depth+1)
		}
	}
	rootIdx, ok := byID[root]
	if !ok {
		return ""
	}
	walk(rootIdx, 0)
	return sb.String()
}
