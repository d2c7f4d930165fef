// Package obs is the telemetry substrate of the SRE pipeline: counters,
// gauges, and histograms with atomic updates and a JSON snapshot, a
// bounded flight recorder of stage events, and a pluggable progress
// sink.
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
	"math/bits"
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

// histBuckets is the number of power-of-two histogram buckets: bucket i
// counts observations whose bit length is i, i.e. values in
// [2^(i-1), 2^i). Bucket 0 counts observations ≤ 0.
const histBuckets = 64

// Histogram records a distribution of int64 observations (typically
// nanosecond durations) in power-of-two buckets. A nil *Histogram is a
// valid no-op instrument.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one observation.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		old := h.max.Load()
		if old >= v || h.max.CompareAndSwap(old, v) {
			break
		}
	}
	idx := 0
	if v > 0 {
		idx = bits.Len64(uint64(v))
	}
	if idx >= histBuckets {
		idx = histBuckets - 1
	}
	h.buckets[idx].Add(1)
}

// HistogramSnapshot is the JSON form of a histogram: the quantile
// summary for readers and the raw buckets, so that an imported snapshot
// merges bucket for bucket like the original.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Mean  float64 `json:"mean"`
	Max   int64   `json:"max"`
	// P50/P90/P99 are upper bounds of the power-of-two bucket holding
	// the respective quantile (order-of-magnitude precision).
	P50 int64 `json:"p50"`
	P90 int64 `json:"p90"`
	P99 int64 `json:"p99"`
	// Buckets[i] counts observations of bit length i (values in
	// [2^(i-1), 2^i); bucket 0 counts observations ≤ 0), matching the
	// in-memory layout. Trailing zero buckets are trimmed.
	Buckets []int64 `json:"buckets,omitempty"`
}

// snapshot captures the histogram. Concurrent Observe calls may tear
// between fields; counts remain monotone.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load(), Max: h.max.Load()}
	if s.Count > 0 {
		s.Mean = float64(s.Sum) / float64(s.Count)
	}
	var buckets [histBuckets]int64
	last := -1
	for i := range buckets {
		if buckets[i] = h.buckets[i].Load(); buckets[i] != 0 {
			last = i
		}
	}
	if last >= 0 {
		s.Buckets = append([]int64(nil), buckets[:last+1]...)
	}
	quantile := func(q float64) int64 {
		target := int64(math.Ceil(q * float64(s.Count)))
		if target <= 0 {
			return 0
		}
		cum := int64(0)
		for i, n := range s.Buckets {
			cum += n
			if cum >= target {
				if i == 0 {
					return 0
				}
				if i >= 63 {
					return math.MaxInt64
				}
				return 1 << i // bucket upper bound
			}
		}
		return s.Max
	}
	s.P50, s.P90, s.P99 = quantile(0.50), quantile(0.90), quantile(0.99)
	return s
}

// Telemetry is a registry of named instruments, with an optional
// flight recorder and progress sink. A nil *Telemetry disables
// everything.
type Telemetry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

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
		hists:    make(map[string]*Histogram),
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

// Histogram returns the named histogram, creating it on first use.
func (t *Telemetry) Histogram(name string) *Histogram {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	h, ok := t.hists[name]
	if !ok {
		h = &Histogram{}
		t.hists[name] = h
	}
	return h
}

// Shard creates a child registry for one worker of a parallel run. The
// shard has its own instrument maps — updates touch no shared state, so
// workers never contend on the parent's lock or cachelines — but
// forwards progress events to the parent's sink (sinks must be safe for
// concurrent use, which the package's sinks are) and records flight-
// recorder events into the parent's recorder (whose ring is lock-
// striped by worker, so shards lock disjoint stripes). Fold a finished
// shard back with Merge. Returns nil on a nil registry.
func (t *Telemetry) Shard() *Telemetry {
	if t == nil {
		return nil
	}
	s := New()
	s.SetSink(SinkFunc(t.Emit))
	s.SetRecorder(t.rec.Load())
	return s
}

// Merge folds the instruments of a shard into t: counters add, gauges
// merge by maximum (they track high-water marks across managers), and
// histograms merge bucket-wise. Call it after the shard's worker has
// stopped updating; Merge itself is safe to call concurrently with
// reads of t.
func (t *Telemetry) Merge(s *Telemetry) {
	if t == nil || s == nil {
		return
	}
	s.mu.Lock()
	counters := make(map[string]*Counter, len(s.counters))
	for k, v := range s.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(s.gauges))
	for k, v := range s.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(s.hists))
	for k, v := range s.hists {
		hists[k] = v
	}
	s.mu.Unlock()

	for k, c := range counters {
		t.Counter(k).Add(c.Value())
	}
	for k, g := range gauges {
		t.Gauge(k).Max(g.Value())
	}
	for k, h := range hists {
		t.Histogram(k).merge(h)
	}
	// Shards created by Shard share the parent's recorder (absorb is a
	// no-op then); a foreign shard's private recorder is drained in.
	t.rec.Load().absorb(s.rec.Load())
}

// merge folds src into h bucket-wise.
func (h *Histogram) merge(src *Histogram) {
	if h == nil || src == nil {
		return
	}
	h.count.Add(src.count.Load())
	h.sum.Add(src.sum.Load())
	for {
		v := src.max.Load()
		old := h.max.Load()
		if old >= v || h.max.CompareAndSwap(old, v) {
			break
		}
	}
	for i := 0; i < histBuckets; i++ {
		h.buckets[i].Add(src.buckets[i].Load())
	}
}

// Report is the JSON snapshot of a telemetry registry: what `-metrics`
// writes, and the per-task shard a fleet worker ships back to the
// coordinator, which rebuilds it with Import and folds it in with Merge.
type Report struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every instrument. Safe to call concurrently with
// updates (fields of one histogram may tear between each other);
// counters never decrease between snapshots.
func (t *Telemetry) Snapshot() Report {
	r := Report{
		Counters: map[string]int64{},
		Gauges:   map[string]float64{},
	}
	if t == nil {
		return r
	}
	t.mu.Lock()
	counters := make(map[string]*Counter, len(t.counters))
	for k, v := range t.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(t.gauges))
	for k, v := range t.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(t.hists))
	for k, v := range t.hists {
		hists[k] = v
	}
	t.mu.Unlock()

	for k, c := range counters {
		r.Counters[k] = c.Value()
	}
	for k, g := range gauges {
		r.Gauges[k] = g.Value()
	}
	if len(hists) > 0 {
		r.Histograms = make(map[string]HistogramSnapshot, len(hists))
		for k, h := range hists {
			r.Histograms[k] = h.snapshot()
		}
	}
	return r
}

// Import rebuilds a registry from its snapshot. Bucket indices beyond
// the receiver's bucket count (a snapshot from a build with a different
// histBuckets) fold into the last bucket, so Count always equals the
// bucket total. Returns nil on a nil report — and Merge(nil) is a
// no-op, so a lost shard degrades to "no telemetry", never a crash.
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
	for k, hs := range r.Histograms {
		h := t.Histogram(k)
		h.count.Store(hs.Count)
		h.sum.Store(hs.Sum)
		h.max.Store(hs.Max)
		for i, n := range hs.Buckets {
			h.buckets[min(i, histBuckets-1)].Add(n)
		}
	}
	return t
}

// WriteJSON writes the snapshot as indented JSON.
func (t *Telemetry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t.Snapshot())
}
