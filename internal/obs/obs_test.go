package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCountersConcurrent hammers one counter from many goroutines; run
// with -race this also vets the atomic implementation.
func TestCountersConcurrent(t *testing.T) {
	tel := New()
	c := tel.Counter("x")
	g := tel.Gauge("g")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Max(float64(i*1000 + j))
			}
		}(i)
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	if g.Value() != 7999 {
		t.Errorf("gauge max = %v, want 7999", g.Value())
	}
}

// TestSnapshotValidJSON checks the metrics JSON schema: the snapshot
// marshals to valid JSON holding only counters and gauges, which
// round-trips into a Report.
func TestSnapshotValidJSON(t *testing.T) {
	tel := New()
	tel.Counter("bdd.gc_runs").Add(3)
	tel.Gauge("bdd.peak_nodes").Set(1234)

	var buf bytes.Buffer
	if err := tel.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("invalid JSON: %s", buf.String())
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys["counters"] == nil || keys["gauges"] == nil {
		t.Errorf("snapshot %s, want counters and gauges only", buf.String())
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["bdd.gc_runs"] != 3 {
		t.Errorf("counter lost in round trip: %+v", back.Counters)
	}
	if back.Gauges["bdd.peak_nodes"] != 1234 {
		t.Errorf("gauge lost in round trip: %+v", back.Gauges)
	}
}

// TestCountersMonotone verifies counters never decrease across
// snapshots while updates are in flight.
func TestCountersMonotone(t *testing.T) {
	tel := New()
	c := tel.Counter("work")
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 5000; i++ {
			c.Add(2)
		}
	}()
	prev := int64(-1)
	for i := 0; i < 100; i++ {
		cur := tel.Snapshot().Counters["work"]
		if cur < prev {
			t.Fatalf("counter decreased: %d -> %d", prev, cur)
		}
		prev = cur
	}
	<-done
	if got := tel.Snapshot().Counters["work"]; got != 10000 {
		t.Errorf("final counter = %d, want 10000", got)
	}
	// Negative deltas are dropped, not applied.
	c.Add(-5)
	if got := c.Value(); got != 10000 {
		t.Errorf("counter after negative add = %d, want 10000", got)
	}
}

// TestNilTelemetryAllocs pins the disabled-telemetry fast path: nil
// handles must not allocate (the <5% overhead budget of the fat-tree
// benchmark depends on this).
func TestNilTelemetryAllocs(t *testing.T) {
	var tel *Telemetry
	c := tel.Counter("x")
	g := tel.Gauge("x")
	allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(5)
		g.Set(1)
		g.Max(2)
		tel.Emit(Event{Stage: "x"})
		if tel.Active() {
			t.Fatal("nil telemetry must not be active")
		}
	})
	if allocs != 0 {
		t.Errorf("nil telemetry allocated %v times per op, want 0", allocs)
	}
	if snap := tel.Snapshot(); len(snap.Counters) != 0 {
		t.Error("nil telemetry snapshot must be empty")
	}
}

// TestTickerRateLimit checks the stderr-style ticker drops events inside
// the interval and always passes final events.
func TestTickerRateLimit(t *testing.T) {
	var buf bytes.Buffer
	tk := NewTicker(&buf, time.Hour)
	tk.Emit(Event{Stage: "spf", Done: 1, Total: 10, Unit: "routers"})
	tk.Emit(Event{Stage: "spf", Done: 2, Total: 10, Unit: "routers"}) // dropped
	tk.Emit(Event{Stage: "src", Done: 3, Unit: "activations"})        // different stage
	tk.Emit(Event{Stage: "spf", Done: 10, Total: 10, Unit: "routers", Final: true})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3: %q", len(lines), buf.String())
	}
	if lines[0] != "spf: 1/10 routers" {
		t.Errorf("line 0 = %q", lines[0])
	}
	if lines[1] != "src: 3 activations" {
		t.Errorf("line 1 = %q", lines[1])
	}
	if lines[2] != "spf: 10/10 routers" {
		t.Errorf("line 2 = %q", lines[2])
	}
}

// TestEventString covers the formatting contract of the example line in
// the package documentation.
func TestEventString(t *testing.T) {
	e := Event{Stage: "spf", Done: 412, Total: 1280, Unit: "routers",
		Detail: "18.2k PFECs, bdd 1.4M nodes (peak 2.1M), cache hit 93%"}
	want := "412/1280 routers, 18.2k PFECs, bdd 1.4M nodes (peak 2.1M), cache hit 93%"
	if e.String() != want {
		t.Errorf("got %q, want %q", e.String(), want)
	}
	if got := HumanCount(18200); got != "18.2k" {
		t.Errorf("HumanCount = %q", got)
	}
	if got := HumanCount(1400000); got != "1.4M" {
		t.Errorf("HumanCount = %q", got)
	}
	if got := HumanPct(93, 100); got != "93.0%" {
		t.Errorf("HumanPct = %q", got)
	}
}

// TestShardMerge covers the worker-shard lifecycle used by the
// scheduler: per-worker registries collect independently, then fold
// into the parent — counters add and gauges keep the high-water mark.
func TestShardMerge(t *testing.T) {
	parent := New()
	parent.Counter("c").Add(1)
	a, b := parent.Shard(), parent.Shard()
	a.Counter("c").Add(3)
	b.Counter("c").Add(4)
	a.Gauge("g").Max(10)
	b.Gauge("g").Max(7)
	parent.Merge(a)
	parent.Merge(b)
	snap := parent.Snapshot()
	if got := snap.Counters["c"]; got != 8 {
		t.Errorf("merged counter = %d, want 1+3+4", got)
	}
	if got := snap.Gauges["g"]; got != 10 {
		t.Errorf("merged gauge = %v, want max 10", got)
	}
}

// TestShardEmitForwards checks that events emitted on a shard reach the
// parent's sink: live progress keeps flowing while workers run, before
// any merge happens. A shard of a registry without a sink is not
// Active, so its producers build no progress events for no one.
func TestShardEmitForwards(t *testing.T) {
	parent := New()
	if parent.Shard().Active() {
		t.Error("a shard of a registry without a sink must not be Active")
	}
	var mu sync.Mutex
	var got []Event
	parent.SetSink(SinkFunc(func(e Event) {
		mu.Lock()
		got = append(got, e)
		mu.Unlock()
	}))
	shard := parent.Shard()
	shard.Emit(Event{Stage: "src", Done: 1, Total: 2})
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got[0].Stage != "src" {
		t.Fatalf("parent sink saw %+v, want the shard's event", got)
	}
}

// TestNilShardMerge: a nil registry shards to nil and merging nil is a
// no-op, so disabled telemetry costs nothing in the pool.
func TestNilShardMerge(t *testing.T) {
	var tel *Telemetry
	if s := tel.Shard(); s != nil {
		t.Fatal("nil telemetry must shard to nil")
	}
	tel.Merge(nil) // must not panic
	parent := New()
	parent.Merge(nil) // must not panic
}

// TestWireRoundTrip pins the coordinator/worker telemetry contract:
// snapshotting a registry, shipping the report as JSON, importing it,
// and merging into a parent must be indistinguishable from merging the
// original shard in-process (the Merge semantics of TestShardMerge).
func TestWireRoundTrip(t *testing.T) {
	shard := New()
	shard.Counter("bdd.gc_runs").Add(3)
	shard.Counter("src.activations").Add(41)
	shard.Gauge("bdd.peak_nodes").Max(12345)

	raw, err := json.Marshal(shard.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}

	direct, viaWire := New(), New()
	direct.Counter("seed").Inc()
	viaWire.Counter("seed").Inc()
	direct.Merge(shard)
	viaWire.Merge(back.Import())

	if ds, ws := direct.Snapshot(), viaWire.Snapshot(); !reflect.DeepEqual(ds, ws) {
		t.Errorf("merged snapshots diverge:\ndirect %+v\n  wire %+v", ds, ws)
	}
}

// TestWireNil pins the degraded path: a lost shard imports to nil and
// merges as a no-op.
func TestWireNil(t *testing.T) {
	var r *Report
	if got := r.Import(); got != nil {
		t.Fatal("nil report must import nil")
	}
	parent := New()
	parent.Merge(r.Import()) // must not panic
	// An empty registry snapshots to an empty report that imports
	// cleanly.
	empty := New().Snapshot()
	if snap := empty.Import().Snapshot(); len(snap.Counters) != 0 || len(snap.Gauges) != 0 {
		t.Errorf("empty report import not empty: %+v", snap)
	}
}
