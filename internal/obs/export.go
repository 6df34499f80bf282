package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// chromeEvent is one entry of the Chrome trace-event format ("JSON Array
// Format" with an outer object), which Perfetto and chrome://tracing load
// directly. Complete spans use ph "X" with microsecond ts/dur; track
// naming uses ph "M" thread_name metadata records.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace exports every recorded span as Chrome trace-event JSON.
// Tracks (sessions, DB workers) become "threads" of one
// process: each distinct track gets a tid in sorted-name order plus a
// thread_name metadata event, so Perfetto shows one lane per session and
// per DB worker. Timestamps are virtual microseconds; the optional
// host-clock duration rides along as an arg.
func WriteChromeTrace(w io.Writer, t *Tracer) error {
	spans := t.Spans()

	trackNames := map[string]bool{}
	for i := range spans {
		trackNames[spans[i].Track] = true
	}
	sorted := make([]string, 0, len(trackNames))
	for name := range trackNames {
		sorted = append(sorted, name)
	}
	sort.Strings(sorted)
	tids := make(map[string]int, len(sorted))
	for i, name := range sorted {
		tids[name] = i + 1
	}

	events := make([]chromeEvent, 0, len(spans)+len(sorted))
	for _, name := range sorted {
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: tids[name],
			Args: map[string]any{"name": name},
		})
	}
	for i := range spans {
		s := &spans[i]
		ev := chromeEvent{
			Name: s.Name, Cat: s.Cat, Ph: "X",
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			Pid: 1, Tid: tids[s.Track],
		}
		if len(s.Args) > 0 || s.HostDur > 0 {
			ev.Args = make(map[string]any, len(s.Args)+1)
			for _, a := range s.Args {
				ev.Args[a.K] = formatArg(a.V)
			}
			if s.HostDur > 0 {
				ev.Args["host_dur"] = s.HostDur.String()
			}
		}
		events = append(events, ev)
	}

	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// ValidateChromeTrace checks that data parses as trace-event JSON and that
// every event satisfies the schema subset this package emits: ph "X" with
// a name and non-negative ts/dur, or ph "M" thread_name metadata with an
// args.name. It returns the number of complete ("X") events. The CI trace
// smoke step runs the emitted file through this before uploading it.
func ValidateChromeTrace(data []byte) (int, error) {
	var tr struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		return 0, fmt.Errorf("obs: trace is not valid JSON: %w", err)
	}
	if len(tr.TraceEvents) == 0 {
		return 0, fmt.Errorf("obs: trace has no traceEvents")
	}
	complete := 0
	for i, ev := range tr.TraceEvents {
		ph, _ := ev["ph"].(string)
		switch ph {
		case "X":
			name, _ := ev["name"].(string)
			if name == "" {
				return 0, fmt.Errorf("obs: event %d: X event without name", i)
			}
			ts, ok := ev["ts"].(float64)
			if !ok || ts < 0 {
				return 0, fmt.Errorf("obs: event %d: X event with bad ts", i)
			}
			if dur, present := ev["dur"]; present {
				d, ok := dur.(float64)
				if !ok || d < 0 {
					return 0, fmt.Errorf("obs: event %d: X event with bad dur", i)
				}
			}
			if _, ok := ev["pid"].(float64); !ok {
				return 0, fmt.Errorf("obs: event %d: missing pid", i)
			}
			if _, ok := ev["tid"].(float64); !ok {
				return 0, fmt.Errorf("obs: event %d: missing tid", i)
			}
			complete++
		case "M":
			name, _ := ev["name"].(string)
			if name != "thread_name" {
				return 0, fmt.Errorf("obs: event %d: unexpected metadata %q", i, name)
			}
			args, _ := ev["args"].(map[string]any)
			if tn, _ := args["name"].(string); tn == "" {
				return 0, fmt.Errorf("obs: event %d: thread_name without args.name", i)
			}
		default:
			return 0, fmt.Errorf("obs: event %d: unexpected ph %q", i, ph)
		}
	}
	if complete == 0 {
		return 0, fmt.Errorf("obs: trace has no complete (X) events")
	}
	return complete, nil
}
