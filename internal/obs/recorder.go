package obs

import (
	"sort"
	"sync"
	"time"
)

// TraceEvent is one flight-recorder record: a pipeline stage boundary
// with its attribution (which prefix, which worker), cost (wall and
// best-effort thread CPU time), resource deltas (BDD nodes, op-cache
// lookups), and outcome. Events are fixed-size values: recording one
// allocates nothing beyond the ring slot it lands in, and building one
// from static strings allocates nothing at all.
//
// Stages currently emitted:
//
//	src        one SRC+setup phase of a pipeline (analysis layer)
//	spf        one symbolic-forwarding phase of a pipeline
//	stratum    one stratum of specification mining
//	task       one scheduler task on a worker (sched layer)
//	prefix     one per-prefix attempt/outcome (parallel resilient runs)
//	decode     one result-store hit rebuilt into pipelines (analysis layer)
//	bdd.gc     one garbage collection
//	bdd.overflow  a node-table overflow (point event)
//	coord.*    fleet coordinator: spawn, task, crash, retry, quarantine
//	store.quarantine  a store record set aside as corrupt (point event)
type TraceEvent struct {
	// Stage names the emitting stage boundary (see the list above).
	Stage string `json:"stage"`
	// Prefix attributes the event to a destination prefix, when the
	// emitting scope is per-prefix ("" otherwise).
	Prefix string `json:"prefix,omitempty"`
	// Worker is the scheduler worker the event was recorded on (0 for
	// sequential runs and the main goroutine).
	Worker int32 `json:"worker"`
	// Start is nanoseconds since the recorder's epoch.
	Start int64 `json:"start_ns"`
	// Wall is the stage's wall-clock duration in nanoseconds (0 for
	// point events such as overflows).
	Wall int64 `json:"wall_ns"`
	// CPU is the stage's thread CPU time in nanoseconds, best-effort:
	// it reads RUSAGE_THREAD around the stage, so a goroutine migrating
	// OS threads mid-stage under-reports. 0 where unsupported.
	CPU int64 `json:"cpu_ns,omitempty"`
	// Nodes is the live BDD node delta across the stage (negative for
	// collections).
	Nodes int64 `json:"nodes,omitempty"`
	// Cache is the op-cache lookup delta (hits+misses) across the stage.
	Cache int64 `json:"cache,omitempty"`
	// Count is a stage-specific magnitude: activations for src, PFECs
	// for spf, undecided pairs entering the stratum for stratum, freed
	// nodes for bdd.gc, cost estimate for task, record payload bytes for
	// decode.
	Count int64 `json:"count,omitempty"`
	// Outcome classifies how the stage ended: "", "ok", "error",
	// "overflow", "failed", or a degradation rung name.
	Outcome string `json:"outcome,omitempty"`
}

// End returns the event's end time in nanoseconds since the epoch.
func (e TraceEvent) End() int64 { return e.Start + e.Wall }

// recStripes is the number of ring stripes. Events select their stripe
// by worker ID, so concurrent workers lock disjoint stripes; within one
// stripe events stay in emission order.
const recStripes = 8

// DefaultRecorderCapacity is the total event capacity used when
// NewRecorder is given 0.
const DefaultRecorderCapacity = 1 << 16

// Recorder is a bounded, lock-striped ring buffer of TraceEvents — the
// pipeline's flight recorder. Producers append through
// Telemetry.Record; when a stripe is full the oldest events of that
// stripe are overwritten (and counted as dropped), so a recorder holds
// the most recent window of a run at a fixed memory ceiling.
//
// A nil *Recorder is valid and records nothing; the enabled check on
// the hot path is Telemetry.Recording.
type Recorder struct {
	epoch   time.Time
	stripes [recStripes]recStripe
}

type recStripe struct {
	mu      sync.Mutex
	buf     []TraceEvent // fixed-length ring once full
	cap     int
	next    int   // next write position once len(buf) == cap
	written int64 // total events ever written to this stripe
}

// NewRecorder creates a recorder holding up to capacity events in
// total (DefaultRecorderCapacity when capacity <= 0).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultRecorderCapacity
	}
	per := capacity / recStripes
	if per < 1 {
		per = 1
	}
	r := &Recorder{epoch: time.Now()}
	for i := range r.stripes {
		r.stripes[i].cap = per
	}
	return r
}

// Epoch returns the recorder's time origin: event Start/End offsets are
// nanoseconds since this instant.
func (r *Recorder) Epoch() time.Time { return r.epoch }

// add appends one event, overwriting the stripe's oldest when full.
func (r *Recorder) add(e TraceEvent) {
	s := &r.stripes[int(uint32(e.Worker))%recStripes]
	s.mu.Lock()
	if len(s.buf) < s.cap {
		s.buf = append(s.buf, e)
	} else {
		s.buf[s.next] = e
		s.next = (s.next + 1) % s.cap
	}
	s.written++
	s.mu.Unlock()
}

// Events returns a copy of the recorded events, oldest first (sorted by
// Start). Safe to call concurrently with recording.
func (r *Recorder) Events() []TraceEvent {
	if r == nil {
		return nil
	}
	var out []TraceEvent
	for i := range r.stripes {
		s := &r.stripes[i]
		s.mu.Lock()
		if len(s.buf) < s.cap {
			out = append(out, s.buf...)
		} else {
			out = append(out, s.buf[s.next:]...)
			out = append(out, s.buf[:s.next]...)
		}
		s.mu.Unlock()
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Len returns the number of events currently held.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	n := 0
	for i := range r.stripes {
		s := &r.stripes[i]
		s.mu.Lock()
		n += len(s.buf)
		s.mu.Unlock()
	}
	return n
}

// Dropped returns how many events have been overwritten by ring
// wraparound.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	var d int64
	for i := range r.stripes {
		s := &r.stripes[i]
		s.mu.Lock()
		if over := s.written - int64(len(s.buf)); over > 0 {
			d += over
		}
		s.mu.Unlock()
	}
	return d
}

// absorb appends every event of src (used by Telemetry.Merge when a
// shard carries a recorder of its own — shards normally share the
// parent's, making the merge a no-op).
func (r *Recorder) absorb(src *Recorder) {
	if r == nil || src == nil || r == src {
		return
	}
	for _, e := range src.Events() {
		r.add(e)
	}
}

// SetRecorder installs the flight recorder (nil removes it). Safe to
// call concurrently with Record.
func (t *Telemetry) SetRecorder(r *Recorder) {
	if t == nil {
		return
	}
	if r == nil {
		t.rec.Store(nil)
		return
	}
	t.rec.Store(r)
}

// FlightRecorder returns the installed recorder, if any.
func (t *Telemetry) FlightRecorder() *Recorder {
	if t == nil {
		return nil
	}
	return t.rec.Load()
}

// Recording reports whether a flight recorder is installed. Producers
// use it to skip building event attribution (prefix strings, BDD stat
// snapshots) when nobody records — the same idiom as Active for
// progress detail strings. On a nil or recorder-less registry this is a
// nil check plus an atomic load: no allocation.
func (t *Telemetry) Recording() bool {
	return t != nil && t.rec.Load() != nil
}

// SetWorker tags the registry with a scheduler worker ID; events
// recorded through it are attributed to that worker. Call it on a
// freshly created Shard before its worker goroutine starts.
func (t *Telemetry) SetWorker(id int) {
	if t == nil {
		return
	}
	t.worker = int32(id)
}

// Worker returns the registry's worker tag (0 by default).
func (t *Telemetry) Worker() int {
	if t == nil {
		return 0
	}
	return int(t.worker)
}

// Record appends one flight-recorder event. The event's Start is
// derived from start (time.Time{} means "now" — point events), and its
// Worker is stamped from the registry's worker tag. A nil registry or
// absent recorder records nothing and allocates nothing.
func (t *Telemetry) Record(start time.Time, e TraceEvent) {
	if t == nil {
		return
	}
	r := t.rec.Load()
	if r == nil {
		return
	}
	if start.IsZero() {
		start = time.Now()
	}
	e.Start = start.Sub(r.epoch).Nanoseconds()
	e.Worker = t.worker
	r.add(e)
}
