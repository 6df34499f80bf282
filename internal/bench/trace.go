package bench

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/orm"
)

// This file is the trace experiment: a fully traced replay of the golden
// suite (every page of both applications, original and Sloth mode) that
// cross-checks every rendered page against an untraced replay — proving the
// instrumentation is observation-only — and exports the span record as
// Chrome trace-event JSON that Perfetto or chrome://tracing loads directly,
// one lane per application session and per DB worker.

// TraceOptions configures TraceSuite.
type TraceOptions struct {
	// RTT is the link round-trip latency of the replayed suites.
	RTT time.Duration
	// Out, when non-empty, is the path of the Chrome trace JSON to write.
	Out string
}

// waterfallPage is the page whose waterfall the report shows: the paper's
// running example, itracker's view-issue page.
const waterfallPage = "module-projects/view issue.jsp"

// TraceAppRow is one application's traced replay.
type TraceAppRow struct {
	App   string
	Pages int // page loads traced (both modes of every page)
	Spans int // spans recorded for this app's loads
}

// TraceReport is the traced-replay summary.
type TraceReport struct {
	Rows   []TraceAppRow
	Spans  int    // total spans recorded
	Events int    // complete events validated in the exported JSON
	Out    string // JSON path written ("" when not requested)
	Sample string // golden waterfall of the sample page's Sloth load
}

// TraceSuite replays the full golden suite with tracing enabled, verifies
// every page renders byte-identically to an untraced replay, and exports
// the combined trace. One tracer spans both applications so the exported
// file shows their sessions as separate lanes.
func TraceSuite(opts TraceOptions) (*TraceReport, error) {
	tr := obs.NewTracer()
	rep := &TraceReport{}
	for _, id := range []AppID{Itracker, OpenMRS} {
		base, err := NewEnv(id, 1, 1)
		if err != nil {
			return nil, err
		}
		traced, err := NewEnv(id, 1, 1)
		if err != nil {
			return nil, err
		}
		tcfg := traced.StoreCfg
		tcfg.Trace = tr
		tcfg.TraceTrack = id.String()
		before := tr.SpanCount()
		row := TraceAppRow{App: id.String()}
		for _, page := range traced.Pages() {
			for _, mode := range []orm.Mode{orm.ModeOriginal, orm.ModeSloth} {
				want, _, err := base.LoadPageHTML(page, mode, opts.RTT, base.StoreCfg)
				if err != nil {
					return nil, err
				}
				rootsBefore := len(tr.Roots())
				got, _, err := traced.LoadPageHTML(page, mode, opts.RTT, tcfg)
				if err != nil {
					return nil, err
				}
				if got != want {
					return nil, fmt.Errorf("bench: trace: %s %s page %q renders differently with tracing enabled",
						id, mode2str(mode), page)
				}
				row.Pages++
				if id == Itracker && page == waterfallPage && mode == orm.ModeSloth && rep.Sample == "" {
					if roots := tr.Roots(); len(roots) > rootsBefore {
						rep.Sample = tr.Waterfall(roots[rootsBefore])
					}
				}
			}
		}
		row.Spans = tr.SpanCount() - before
		rep.Rows = append(rep.Rows, row)
	}
	rep.Spans = tr.SpanCount()

	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, tr); err != nil {
		return nil, fmt.Errorf("bench: trace export: %w", err)
	}
	events, err := obs.ValidateChromeTrace(buf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("bench: trace validation: %w", err)
	}
	rep.Events = events
	if opts.Out != "" {
		if err := os.WriteFile(opts.Out, buf.Bytes(), 0o644); err != nil {
			return nil, fmt.Errorf("bench: trace artifact: %w", err)
		}
		rep.Out = opts.Out
	}
	return rep, nil
}

// Format renders the trace report: per-app span counts, the validation
// result, and the sample page's golden waterfall.
func (r *TraceReport) Format() string {
	var sb strings.Builder
	sb.WriteString("Traced golden-suite replay (virtual-clock spans, Chrome trace-event export)\n")
	sb.WriteString(fmt.Sprintf("%-10s %7s %8s\n", "app", "pages", "spans"))
	for _, row := range r.Rows {
		sb.WriteString(fmt.Sprintf("%-10s %7d %8d\n", row.App, row.Pages, row.Spans))
	}
	sb.WriteString(fmt.Sprintf("\nall pages render byte-identically with tracing enabled\n"))
	sb.WriteString(fmt.Sprintf("exported %d complete events (schema-validated)", r.Events))
	if r.Out != "" {
		sb.WriteString(fmt.Sprintf(" → %s (load in Perfetto / chrome://tracing)", r.Out))
	}
	sb.WriteByte('\n')
	if r.Sample != "" {
		sb.WriteString("\nsample waterfall — itracker view-issue, Sloth mode:\n")
		sb.WriteString(r.Sample)
	}
	return sb.String()
}
