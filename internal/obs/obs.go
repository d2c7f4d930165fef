// Package obs is the telemetry substrate of the SRE pipeline: counters
// and gauges with atomic updates and a JSON snapshot, a bounded flight
// recorder of stage events (the one place a stage is timed), and a
// pluggable progress sink.
//
// The package is stdlib-only and imports nothing from the rest of the
// repository, so every layer (including internal/bdd at the bottom of
// the dependency tree) can publish into it.
//
// Everything is nil-safe: a nil *Telemetry hands out nil instrument
// handles, and every method on a nil handle is a no-op. Hot paths
// therefore resolve their handles once at construction time and call
// them unconditionally; with telemetry disabled the calls reduce to a
// nil check (no allocation, no atomics — see TestNilTelemetryAllocs).
//
// Metric naming convention: dotted "layer.metric" names, e.g.
// "bdd.gc_runs", "src.activations", "spf.pfecs". Counters are
// cumulative and monotone for the lifetime of the registry, even when
// several BDD managers (miner strata) report into it in sequence.
package obs

import (
	"encoding/json"
	"io"
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter. A nil *Counter is a
// valid no-op instrument.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (n must be non-negative to preserve
// monotonicity; negative deltas are dropped).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 value that can move both ways. A nil *Gauge is a
// valid no-op instrument.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores x.
func (g *Gauge) Set(x float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(x))
}

// Max stores x only if it exceeds the current value (high-water marks
// such as peak BDD nodes across several managers).
func (g *Gauge) Max(x float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= x {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(x)) {
			return
		}
	}
}

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Telemetry is a registry of named instruments, with an optional
// flight recorder and progress sink. A nil *Telemetry disables
// everything.
type Telemetry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge

	sink atomic.Pointer[sinkBox]
	rec  atomic.Pointer[Recorder]
	// worker tags the registry with the scheduler worker recording
	// through it (see SetWorker); written before the worker goroutine
	// starts, read by Record.
	worker int32
}

type sinkBox struct{ s Sink }

// New creates an empty telemetry registry.
func New() *Telemetry {
	return &Telemetry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
	}
}

// SetSink installs the progress sink (nil removes it). Safe to call
// concurrently with Emit.
func (t *Telemetry) SetSink(s Sink) {
	if t == nil {
		return
	}
	if s == nil {
		t.sink.Store(nil)
		return
	}
	t.sink.Store(&sinkBox{s: s})
}

// Active reports whether a progress sink is installed. Producers use it
// to skip building event detail strings when nobody listens.
func (t *Telemetry) Active() bool {
	return t != nil && t.sink.Load() != nil
}

// Emit forwards a progress event to the sink, if any.
func (t *Telemetry) Emit(e Event) {
	if t == nil {
		return
	}
	if box := t.sink.Load(); box != nil {
		box.s.Emit(e)
	}
}

// Counter returns the named counter, creating it on first use. Returns
// nil (a no-op handle) on a nil registry.
func (t *Telemetry) Counter(name string) *Counter {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.counters[name]
	if !ok {
		c = &Counter{}
		t.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (t *Telemetry) Gauge(name string) *Gauge {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	g, ok := t.gauges[name]
	if !ok {
		g = &Gauge{}
		t.gauges[name] = g
	}
	return g
}

// Shard creates a child registry for one worker of a parallel run. The
// shard has its own instrument maps — updates touch no shared state, so
// workers never contend on the parent's lock or cachelines — but
// records flight-recorder events into the parent's recorder (whose ring
// is lock-striped by worker, so shards lock disjoint stripes) and, when
// the parent has a progress sink, forwards progress events to it (sinks
// must be safe for concurrent use, which the package's sinks are). A
// shard of a registry without a sink is not Active, so its producers
// build no progress events; install the sink before sharding. Fold a
// finished shard back with Merge. Returns nil on a nil registry.
func (t *Telemetry) Shard() *Telemetry {
	if t == nil {
		return nil
	}
	s := New()
	if t.Active() {
		s.SetSink(SinkFunc(t.Emit))
	}
	s.SetRecorder(t.rec.Load())
	return s
}

// Merge folds the instruments of a shard into t: counters add, and
// gauges merge by maximum (they track high-water marks across
// managers). Call it after the shard's worker has stopped updating;
// Merge itself is safe to call concurrently with reads of t.
func (t *Telemetry) Merge(s *Telemetry) {
	if t == nil || s == nil {
		return
	}
	r := s.Snapshot()
	for k, v := range r.Counters {
		t.Counter(k).Add(v)
	}
	for k, v := range r.Gauges {
		t.Gauge(k).Max(v)
	}
	// Shards created by Shard share the parent's recorder (absorb is a
	// no-op then); a foreign shard's private recorder is drained in.
	t.rec.Load().absorb(s.rec.Load())
}

// Report is the JSON snapshot of a telemetry registry: what `-metrics`
// writes, and the per-task shard a fleet worker ships back to the
// coordinator, which rebuilds it with Import and folds it in with Merge.
type Report struct {
	Counters map[string]int64   `json:"counters"`
	Gauges   map[string]float64 `json:"gauges"`
}

// Snapshot captures every instrument. Safe to call concurrently with
// updates; counters never decrease between snapshots.
func (t *Telemetry) Snapshot() Report {
	r := Report{
		Counters: map[string]int64{},
		Gauges:   map[string]float64{},
	}
	if t == nil {
		return r
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for k, c := range t.counters {
		r.Counters[k] = c.Value()
	}
	for k, g := range t.gauges {
		r.Gauges[k] = g.Value()
	}
	return r
}

// Import rebuilds a registry from its snapshot. A snapshot written by
// an older build may carry a "histograms" object; decoding ignores it.
// Returns nil on a nil report — and Merge(nil) is a no-op, so a lost
// shard degrades to "no telemetry", never a crash.
func (r *Report) Import() *Telemetry {
	if r == nil {
		return nil
	}
	t := New()
	for k, v := range r.Counters {
		t.Counter(k).Add(v)
	}
	for k, v := range r.Gauges {
		t.Gauge(k).Set(v)
	}
	return t
}

// WriteJSON writes the snapshot as indented JSON.
func (t *Telemetry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t.Snapshot())
}
