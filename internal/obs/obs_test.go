package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	ctx := tr.Root("s", "page", "p", 0)
	if ctx.Enabled() {
		t.Fatal("nil-tracer ctx reports enabled")
	}
	child := ctx.Child("flush", "flush", time.Millisecond)
	child.End(2 * time.Millisecond)
	ctx.Instant("err", "boom", time.Millisecond)
	if tr.SpanCount() != 0 {
		t.Fatal("nil tracer recorded spans")
	}
	if got := tr.Waterfall(1); got != "" {
		t.Fatalf("nil tracer waterfall = %q", got)
	}
}

func TestDisabledTracerRecordsNothing(t *testing.T) {
	tr := NewTracer()
	tr.SetEnabled(false)
	ctx := tr.Root("s", "page", "p", 0)
	ctx.Child("flush", "flush", 0).End(time.Millisecond)
	if tr.SpanCount() != 0 {
		t.Fatalf("disabled tracer recorded %d spans", tr.SpanCount())
	}
	if ctx.Enabled() {
		t.Fatal("ctx from disabled tracer enabled")
	}
}

func TestSpanTreeAndWaterfall(t *testing.T) {
	tr := NewTracer()
	page := tr.Root("session", "page", "view issue.jsp", 0, Arg{"mode", "sloth"})
	fl := page.Child("flush", "flush", 2*time.Millisecond, Arg{"trigger", "force"})
	db := fl.ChildTrack("db-worker-0", "db", "batch", 3*time.Millisecond, Arg{"stmts", 4})
	db.End(4 * time.Millisecond)
	fl.EndArgs(5*time.Millisecond, Arg{"stmts", 4})
	page.End(10 * time.Millisecond)

	roots := tr.Roots()
	if len(roots) != 1 {
		t.Fatalf("roots = %v, want one", roots)
	}
	got := tr.Waterfall(roots[0])
	want := strings.Join([]string{
		"page view issue.jsp [0s → 10ms] {mode=sloth}",
		"  flush [2ms → 5ms] {trigger=force stmts=4}",
		"    db batch [3ms → 4ms] {stmts=4}",
		"",
	}, "\n")
	if got != want {
		t.Fatalf("waterfall:\n%s\nwant:\n%s", got, want)
	}
}

// The golden rendering sorts children by virtual time, so recording order
// (which races when a shared window closes on another session's goroutine)
// must not affect the waterfall.
func TestWaterfallOrderIndependent(t *testing.T) {
	build := func(order []int) string {
		tr := NewTracer()
		page := tr.Root("s", "page", "p", 0)
		for _, i := range order {
			page.Child("flush", "flush", time.Duration(i)*time.Millisecond,
				Arg{"n", i}).End(time.Duration(i+1) * time.Millisecond)
		}
		page.End(20 * time.Millisecond)
		return tr.Waterfall(tr.Roots()[0])
	}
	a := build([]int{1, 2, 3})
	b := build([]int{3, 1, 2})
	if a != b {
		t.Fatalf("waterfall depends on recording order:\n%s\nvs\n%s", a, b)
	}
}

// Worker placement may differ across -workers settings; only the track
// changes, and tracks are excluded from the golden waterfall.
func TestWaterfallExcludesTrack(t *testing.T) {
	build := func(track string) string {
		tr := NewTracer()
		page := tr.Root("s", "page", "p", 0)
		page.ChildTrack(track, "db", "batch", time.Millisecond).End(2 * time.Millisecond)
		page.End(3 * time.Millisecond)
		return tr.Waterfall(tr.Roots()[0])
	}
	if build("db-worker-0") != build("db-worker-3") {
		t.Fatal("waterfall leaks worker track")
	}
}

func TestTracerConcurrentRecording(t *testing.T) {
	tr := NewTracer()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			root := tr.Root("s", "page", "p", 0)
			for i := 0; i < 100; i++ {
				root.Child("flush", "flush", time.Duration(i)).End(time.Duration(i + 1))
			}
			root.End(time.Second)
		}(g)
	}
	wg.Wait()
	if n := tr.SpanCount(); n != 8*101 {
		t.Fatalf("spans = %d, want %d", n, 8*101)
	}
}

func TestChromeTraceExportAndValidate(t *testing.T) {
	tr := NewTracer()
	page := tr.Root("session-0", "page", "p", 0)
	page.ChildTrack("db-worker-0", "db", "batch", time.Millisecond).End(2 * time.Millisecond)
	page.End(3 * time.Millisecond)

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	n, err := ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("validate: %v\n%s", err, buf.String())
	}
	if n != 2 {
		t.Fatalf("complete events = %d, want 2", n)
	}
	for _, want := range []string{`"thread_name"`, `"session-0"`, `"db-worker-0"`, `"ph":"X"`} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("trace JSON missing %s:\n%s", want, buf.String())
		}
	}
}

func TestValidateChromeTraceRejectsGarbage(t *testing.T) {
	cases := []string{
		`not json`,
		`{"traceEvents":[]}`,
		`{"traceEvents":[{"ph":"X","ts":0,"pid":1,"tid":1}]}`,
		`{"traceEvents":[{"ph":"Q","name":"x","ts":0,"pid":1,"tid":1}]}`,
		`{"traceEvents":[{"ph":"M","name":"thread_name","pid":1,"tid":1}]}`,
	}
	for _, c := range cases {
		if _, err := ValidateChromeTrace([]byte(c)); err == nil {
			t.Fatalf("accepted invalid trace %s", c)
		}
	}
}
