package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRecorderWraparound pins the ring semantics: a full stripe
// overwrites its oldest events, Dropped counts the overwritten ones,
// and Events returns the surviving window in Start order.
func TestRecorderWraparound(t *testing.T) {
	r := NewRecorder(recStripes * 2) // 2 slots per stripe
	tel := New()
	tel.SetRecorder(r)
	tel.SetWorker(0) // everything lands on stripe 0
	for i := 0; i < 5; i++ {
		tel.Record(r.Epoch().Add(time.Duration(i)*time.Millisecond),
			TraceEvent{Stage: "s", Count: int64(i)})
	}
	if got := r.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2 (stripe capacity)", got)
	}
	if got := r.Dropped(); got != 3 {
		t.Fatalf("Dropped = %d, want 3", got)
	}
	evs := r.Events()
	if len(evs) != 2 || evs[0].Count != 3 || evs[1].Count != 4 {
		t.Fatalf("Events = %+v, want the two newest (counts 3, 4)", evs)
	}
	if evs[0].Start >= evs[1].Start {
		t.Fatalf("Events not sorted by Start: %d then %d", evs[0].Start, evs[1].Start)
	}
}

// TestRecorderConcurrentShards drives one recorder from many worker
// shards under the race detector: shards share the parent's recorder
// (stripes are selected by worker ID), Merge leaves the event set
// intact, and Worker attribution survives.
func TestRecorderConcurrentShards(t *testing.T) {
	const workers, perWorker = 8, 200
	r := NewRecorder(workers * perWorker)
	parent := New()
	parent.SetRecorder(r)
	shards := make([]*Telemetry, workers)
	for i := range shards {
		shards[i] = parent.Shard()
		shards[i].SetWorker(i)
	}
	var wg sync.WaitGroup
	for i, s := range shards {
		wg.Add(1)
		go func(i int, s *Telemetry) {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				s.Record(time.Time{}, TraceEvent{Stage: "task", Count: int64(j)})
			}
		}(i, s)
	}
	wg.Wait()
	for _, s := range shards {
		parent.Merge(s)
	}
	if got := r.Len(); got != workers*perWorker {
		t.Fatalf("Len = %d, want %d (capacity was never exceeded)", got, workers*perWorker)
	}
	if got := r.Dropped(); got != 0 {
		t.Fatalf("Dropped = %d, want 0", got)
	}
	perID := map[int32]int{}
	for _, e := range r.Events() {
		perID[e.Worker]++
	}
	for i := 0; i < workers; i++ {
		if perID[int32(i)] != perWorker {
			t.Fatalf("worker %d recorded %d events, want %d", i, perID[int32(i)], perWorker)
		}
	}
}

// TestRecordingDisabledAllocs pins the zero-allocation guarantee of the
// disabled flight recorder: Recording and Record on a nil registry or a
// registry without a recorder must not allocate — stage boundaries pay
// one nil check and an atomic load when nobody records.
func TestRecordingDisabledAllocs(t *testing.T) {
	var nilTel *Telemetry
	bare := New() // telemetry on, recorder off
	allocs := testing.AllocsPerRun(100, func() {
		if nilTel.Recording() || bare.Recording() {
			t.Fatal("must not be recording")
		}
		nilTel.Record(time.Time{}, TraceEvent{Stage: "src"})
		bare.Record(time.Time{}, TraceEvent{Stage: "src"})
		nilTel.SetWorker(3)
	})
	if allocs != 0 {
		t.Errorf("disabled recorder allocated %v times per op, want 0", allocs)
	}
}

// TestRecorderEnabledNoAllocs: recording an event built from static
// strings into a pre-grown stripe allocates nothing either — the event
// is a fixed-size value copied into the ring slot.
func TestRecorderEnabledNoAllocs(t *testing.T) {
	r := NewRecorder(recStripes * 4)
	tel := New()
	tel.SetRecorder(r)
	start := time.Now()
	// Fill stripe 0 so the steady state is overwrite, not append.
	for i := 0; i < 8; i++ {
		tel.Record(start, TraceEvent{Stage: "warm"})
	}
	allocs := testing.AllocsPerRun(100, func() {
		tel.Record(start, TraceEvent{Stage: "src", Wall: 5, Count: 7, Outcome: "ok"})
	})
	if allocs != 0 {
		t.Errorf("enabled recorder allocated %v times per event, want 0", allocs)
	}
}

// TestMergeAbsorbsForeignRecorder: merging a shard that carries its own
// recorder (e.g. telemetry from another process) drains its events into
// the parent's recorder.
func TestMergeAbsorbsForeignRecorder(t *testing.T) {
	parent := New()
	parent.SetRecorder(NewRecorder(64))
	foreign := New()
	foreign.SetRecorder(NewRecorder(64))
	foreign.Record(time.Time{}, TraceEvent{Stage: "remote"})
	parent.Merge(foreign)
	evs := parent.FlightRecorder().Events()
	if len(evs) != 1 || evs[0].Stage != "remote" {
		t.Fatalf("parent recorder = %+v, want the foreign event", evs)
	}
}

// TestEventLogRoundTrip: WriteEventLog → ReadEventLog is lossless for
// events, header counts, and environment metadata.
func TestEventLogRoundTrip(t *testing.T) {
	r := NewRecorder(64)
	tel := New()
	tel.SetRecorder(r)
	tel.SetWorker(2)
	in := []TraceEvent{
		{Stage: "src", Prefix: "10.0.0.0/24", Wall: 1000, CPU: 900, Nodes: 42, Cache: 7, Count: 3, Outcome: "ok"},
		{Stage: "bdd.overflow", Outcome: "overflow"},
	}
	for i, e := range in {
		tel.Record(r.Epoch().Add(time.Duration(i)*time.Microsecond), e)
	}
	env := Environment()
	var buf bytes.Buffer
	if err := r.WriteEventLog(&buf, env); err != nil {
		t.Fatal(err)
	}
	hdr, out, err := ReadEventLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Format != EventLogFormat || hdr.Events != 2 || hdr.Dropped != 0 {
		t.Fatalf("header = %+v", hdr)
	}
	if hdr.Env != env {
		t.Fatalf("header env = %+v, want %+v", hdr.Env, env)
	}
	if len(out) != 2 {
		t.Fatalf("read %d events, want 2", len(out))
	}
	for i := range out {
		wantE := in[i]
		wantE.Worker = 2
		wantE.Start = out[i].Start // stamped at record time
		if out[i] != wantE {
			t.Errorf("event %d = %+v, want %+v", i, out[i], wantE)
		}
	}
}

// TestChromeTraceShape sanity-checks the Chrome trace export: valid
// JSON, one thread_name metadata record per worker, spans as "X" with
// microsecond timestamps, point events as instants.
func TestChromeTraceShape(t *testing.T) {
	r := NewRecorder(64)
	tel := New()
	tel.SetRecorder(r)
	tel.Record(r.Epoch(), TraceEvent{Stage: "src", Wall: 2_000_000, Outcome: "ok"})
	tel.SetWorker(1)
	tel.Record(r.Epoch(), TraceEvent{Stage: "bdd.overflow", Outcome: "overflow"})
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf, Environment()); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
			TID  int32   `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var threads, spans, instants int
	for _, e := range trace.TraceEvents {
		switch e.Ph {
		case "M":
			threads++
		case "X":
			spans++
			if e.Name == "src" && e.Dur != 2000 {
				t.Errorf("src dur = %v µs, want 2000", e.Dur)
			}
		case "i":
			instants++
		}
	}
	if threads != 2 || spans != 1 || instants != 1 {
		t.Fatalf("trace has %d thread records, %d spans, %d instants; want 2/1/1", threads, spans, instants)
	}
}

// TestAutoTickerPlainWhenNotTTY: progress on a pipe/file must not use
// ANSI escapes — NewAutoTicker falls back to the line-per-event Ticker.
func TestAutoTickerPlainWhenNotTTY(t *testing.T) {
	f, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sink := NewAutoTicker(f, time.Hour)
	if _, ok := sink.(*Ticker); !ok {
		t.Fatalf("NewAutoTicker on a regular file returned %T, want *Ticker", sink)
	}
	if IsTerminal(f) {
		t.Error("IsTerminal(regular file) = true")
	}
}

// TestStatusLineRedraw pins the interactive sink's ANSI behaviour:
// non-final events redraw in place, final events print a permanent
// line, Close erases a live line.
func TestStatusLineRedraw(t *testing.T) {
	var buf bytes.Buffer
	s := NewStatusLine(&buf, time.Nanosecond)
	s.Emit(Event{Stage: "src", Done: 1})
	time.Sleep(2 * time.Nanosecond)
	s.Emit(Event{Stage: "src", Done: 2, Final: true})
	out := buf.String()
	if !strings.Contains(out, "\r\x1b[K") {
		t.Errorf("status line output %q lacks the redraw sequence", out)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Errorf("final event must end with a newline, got %q", out)
	}
	buf.Reset()
	s.Emit(Event{Stage: "spf", Done: 1})
	s.Close()
	if got := buf.String(); !strings.HasSuffix(got, "\r\x1b[K") {
		t.Errorf("Close must erase the live line, got %q", got)
	}
}
