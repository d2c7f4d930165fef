package sre

import (
	"encoding/json"
	"io"
	"os"

	"sre/internal/obs"
)

// Telemetry collects counters, gauges, and progress events across the
// verification pipeline. Create one with
// NewTelemetry, pass it via Options.Telemetry (it may be shared across
// verifiers — counters accumulate), and read it back with
// Verifier.Metrics or Telemetry.WriteJSON.
type Telemetry = obs.Telemetry

// ProgressEvent is one live progress update from a pipeline stage, e.g.
// "spf: 412/1280 routers, 18.2k PFECs, bdd 1.4M nodes (peak 2.1M),
// cache hit 93%".
type ProgressEvent = obs.Event

// ProgressSink consumes progress events; see Options.Progress.
type ProgressSink = obs.Sink

// ProgressFunc adapts a function to the ProgressSink interface.
type ProgressFunc = obs.SinkFunc

// TelemetryReport is the JSON-marshalable snapshot of a Telemetry: its
// counters and gauges.
type TelemetryReport = obs.Report

// NewTelemetry creates an empty telemetry registry.
func NewTelemetry() *Telemetry { return obs.New() }

// StderrProgress returns the default progress sink: when stderr is an
// interactive terminal, a single in-place status line (ANSI redraw);
// otherwise (pipes, files, CI logs) a rate-limited ticker printing one
// plain line per stage.
func StderrProgress() ProgressSink { return obs.NewAutoTicker(os.Stderr, 0) }

// FlightRecorder is a bounded, lock-striped ring buffer of structured
// pipeline events (stage boundaries, scheduler tasks, per-prefix
// degradation outcomes, BDD GC and overflow points). Create one with
// NewFlightRecorder, pass it via Options.Recorder, and export the
// recording with WriteChromeTrace (Perfetto / chrome://tracing) or
// WriteEventLog (NDJSON, the input of `srebench -compare`).
type FlightRecorder = obs.Recorder

// TraceEvent is one recorded flight-recorder event.
type TraceEvent = obs.TraceEvent

// EnvInfo describes the host environment of a run (Go version,
// GOMAXPROCS, CPU model, ...); embedded in exports so comparisons can
// refuse apples-to-oranges diffs.
type EnvInfo = obs.EnvInfo

// NewFlightRecorder creates a flight recorder holding up to capacity
// events (0 = the default, 65536); when full, the oldest events are
// overwritten and counted as dropped.
func NewFlightRecorder(capacity int) *FlightRecorder {
	return obs.NewRecorder(capacity)
}

// Environment returns metadata about the current host and process.
func Environment() EnvInfo { return obs.Environment() }

// EventLogHeader is the first line of an NDJSON flight-recorder log.
type EventLogHeader = obs.EventLogHeader

// ReadEventLog parses an NDJSON event log written by
// FlightRecorder.WriteEventLog.
func ReadEventLog(r io.Reader) (EventLogHeader, []TraceEvent, error) {
	return obs.ReadEventLog(r)
}

// MetricsReport is the typed metrics summary of one verification run.
// All fields are available even when telemetry was disabled; Telemetry
// carries the full registry snapshot when it was enabled.
type MetricsReport struct {
	// SRCSeconds/SPFSeconds are the stage wall times of Figure 13.
	SRCSeconds float64 `json:"src_seconds"`
	SPFSeconds float64 `json:"spf_seconds"`

	NumRouters int `json:"num_routers"`
	NumLinks   int `json:"num_links"`
	// NumPFECs is the number of packet failure equivalence classes
	// discovered across all sources.
	NumPFECs int `json:"num_pfecs"`

	// Control-plane work counters (the paper's Table 2).
	RoutesImported int `json:"routes_imported"`
	RoutesPruned   int `json:"routes_pruned"`
	RIBRoutes      int `json:"rib_routes"`
	Activations    int `json:"activations"`

	BDD BDDMetrics `json:"bdd"`

	// Store reports persistent result-cache traffic when the run carried
	// one (Options.Store): hits, misses, publications, and — after
	// corruption — quarantined record counts.
	Store *StoreMetrics `json:"store,omitempty"`

	// Telemetry is the full registry snapshot, present when the
	// verifier ran with telemetry enabled.
	Telemetry *TelemetryReport `json:"telemetry,omitempty"`
}

// BDDMetrics reports the state of the BDD manager behind a verifier.
type BDDMetrics struct {
	// LiveNodes is allocated slots minus the free list; PeakNodes is
	// the high-water mark (Figure 11's memory proxy).
	LiveNodes     int     `json:"live_nodes"`
	FreeNodes     int     `json:"free_nodes"`
	PeakNodes     int     `json:"peak_nodes"`
	GCRuns        int     `json:"gc_runs"`
	CacheHits     uint64  `json:"cache_hits"`
	CacheMisses   uint64  `json:"cache_misses"`
	CacheHitRatio float64 `json:"cache_hit_ratio"`
	// CacheRetained/CacheInvalidated count operation-cache entries kept
	// and dropped across GC sweeps.
	CacheRetained    uint64 `json:"cache_retained"`
	CacheInvalidated uint64 `json:"cache_invalidated"`
	// CacheGrows counts the ×4 growth steps of the operation cache:
	// each manager starts at 2¹² sets and grows with its node table at
	// safe points, up to 2¹⁸.
	CacheGrows int `json:"cache_grows"`
	// PreGCCacheHitRatio is the hit ratio accumulated up to the most
	// recent collection; PostGCCacheHitRatio the ratio since. Comparable
	// figures mean cache warmth survives collections.
	PreGCCacheHitRatio  float64 `json:"pre_gc_cache_hit_ratio"`
	PostGCCacheHitRatio float64 `json:"post_gc_cache_hit_ratio"`
	// VarOrderMethod names the link-variable order the run laid its
	// spaces out with: "mindeg" on banded hierarchies, "declaration"
	// elsewhere (see internal/order; the topology decides).
	VarOrderMethod string `json:"var_order_method"`
}

// Metrics returns the metrics of the verifier's symbolic execution. The
// report is complete without telemetry; with Options.Telemetry set it
// additionally embeds the registry snapshot. For resilient runs
// the report aggregates over all prefix-group pipelines (each group has
// its own engine and BDD manager), so node and work counters are sums.
func (v *Verifier) Metrics() MetricsReport {
	r := MetricsReport{
		NumRouters: v.net.Topology.NumRouters(),
		NumLinks:   v.net.Topology.NumLinks(),
	}
	r.BDD.VarOrderMethod = v.varOrder
	r.NumPFECs = v.NumPFECs()
	var hitsAtGC, missAtGC uint64
	for _, pipe := range v.part.Groups {
		bst := pipe.Sp.M.Statistics()
		r.SRCSeconds += pipe.SRCTime.Seconds()
		r.SPFSeconds += pipe.SPFTime.Seconds()
		// Pipelines decoded from worker subprocesses have no engine: the
		// route-computation counters stayed in the worker and reach this
		// registry only through its merged telemetry shard.
		if pipe.Eng != nil {
			est := pipe.Eng.Statistics()
			r.RoutesImported += est.RoutesImported
			r.RoutesPruned += est.RoutesPruned
			r.RIBRoutes += est.RIBRoutes
			r.Activations += est.Activations
		}
		r.BDD.LiveNodes += bst.LiveNodes
		r.BDD.FreeNodes += bst.FreeNodes
		r.BDD.PeakNodes += bst.PeakNodes
		r.BDD.GCRuns += bst.GCRuns
		r.BDD.CacheHits += bst.CacheHits
		r.BDD.CacheMisses += bst.CacheMiss
		r.BDD.CacheRetained += bst.CacheRetained
		r.BDD.CacheInvalidated += bst.CacheInvalidated
		r.BDD.CacheGrows += bst.CacheGrows
		hitsAtGC += bst.HitsAtLastGC
		missAtGC += bst.MissAtLastGC
	}
	if total := r.BDD.CacheHits + r.BDD.CacheMisses; total > 0 {
		r.BDD.CacheHitRatio = float64(r.BDD.CacheHits) / float64(total)
	}
	if total := hitsAtGC + missAtGC; total > 0 {
		r.BDD.PreGCCacheHitRatio = float64(hitsAtGC) / float64(total)
	}
	if total := (r.BDD.CacheHits - hitsAtGC) + (r.BDD.CacheMisses - missAtGC); total > 0 {
		r.BDD.PostGCCacheHitRatio = float64(r.BDD.CacheHits-hitsAtGC) / float64(total)
	}
	if v.store != nil {
		m := v.store.Metrics()
		r.Store = &m
	}
	if v.tel != nil {
		for _, pipe := range v.part.Groups {
			pipe.Sp.M.SampleTelemetry()
		}
		// Multi-pipeline runs sample each manager into its own (already
		// merged) worker shard, where gauges combine by Max; the report
		// sums. Publish the summed peak on the verifier's own registry
		// so the snapshot matches the stats regardless of how many
		// managers contributed.
		v.tel.Gauge("bdd.peak_nodes").Set(float64(r.BDD.PeakNodes))
		rep := v.tel.Snapshot()
		r.Telemetry = &rep
	}
	return r
}

// WriteMetrics writes the metrics report as indented JSON.
func (v *Verifier) WriteMetrics(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v.Metrics())
}
