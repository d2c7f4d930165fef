package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded from outside it. Spans
// of one round share the tracer; Parent links a span to the one that
// caused it (0 = a root).
type span struct {
	ID     int
	Parent int
	Name   string // "<layer>.<operation>", or a root's plain name
	Start  time.Duration
	End    time.Duration
	// Synthetic marks a span rebuilt from a duration the program itself
	// reported (Pipeline.SRCTime/SPFTime), not from the bench's clock.
	Synthetic bool
}

func (s span) dur() time.Duration { return s.End - s.Start }

// layerOf is the repo module a span belongs to. Roots belong to the
// benchmark itself: their self time is glue no layer accounts for.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return "bench"
}

// tracer keeps spans in memory; nothing is written until the run ends.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent and returns its ID.
func (t *tracer) begin(parent int, name string) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name})
	t.spans[len(t.spans)-1].Start = time.Since(t.epoch)
	return len(t.spans)
}

// end closes the span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.End = time.Since(t.epoch)
	return s.dur()
}

// synthetic records a child of parent whose duration the program
// reported; it is laid out at offset from the parent's start.
func (t *tracer) synthetic(parent int, name string, offset, d time.Duration) {
	start := t.spans[parent-1].Start + offset
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: start, End: start + d, Synthetic: true})
}

// total sums the durations of the spans called name.
func (t *tracer) total(name string) (sum time.Duration) {
	for _, s := range t.spans {
		if s.Name == name {
			sum += s.dur()
		}
	}
	return sum
}

// durations lists the durations of the spans called name, ascending.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// selfTimes returns each layer's self time — a span's duration minus
// the part its children cover — and the wall clock of all roots.
func (t *tracer) selfTimes() (byLayer map[string]time.Duration, wall time.Duration) {
	covered := make([]time.Duration, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.dur()
		}
	}
	byLayer = map[string]time.Duration{}
	for _, s := range t.spans {
		if s.Parent == 0 {
			wall += s.dur()
		}
		// Synthetic children can overrun a parent by clock skew.
		byLayer[layerOf(s.Name)] += max(s.dur()-covered[s.ID], 0)
	}
	return byLayer, wall
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, which Perfetto and chrome://tracing open directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

type chromeTrace struct {
	TraceEvents []chromeEvent  `json:"traceEvents"`
	Metadata    map[string]any `json:"metadata"`
}

// write stores the spans as a Chrome trace at path.
func (t *tracer) write(path string, metadata map[string]any) error {
	ct := chromeTrace{Metadata: metadata, TraceEvents: make([]chromeEvent, 0, len(t.spans))}
	for _, s := range t.spans {
		args := map[string]any{"id": s.ID, "parent": s.Parent}
		if s.Synthetic {
			args["synthetic"] = true
		}
		ct.TraceEvents = append(ct.TraceEvents, chromeEvent{
			Name: s.Name, Cat: layerOf(s.Name), Ph: "X",
			Ts: float64(s.Start.Nanoseconds()) / 1e3, Dur: float64(s.dur().Nanoseconds()) / 1e3,
			Pid: 1, Tid: 1, Args: args,
		})
	}
	data, err := json.Marshal(ct)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
