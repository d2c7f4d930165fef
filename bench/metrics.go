package main

import "sort"

// metricDef declares one metric: BENCHMARK.json is generated from these
// tables (-manifest) and a run must emit exactly the declared names.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: allowed worsening as a share of the parent's median
	// Exact marks values expected to repeat exactly between two runs of
	// one commit and seed; -check-repeat reports any that do not.
	Exact bool
}

// runSeconds is how long one run measures (BENCHMARK.json run_seconds).
const runSeconds = 10

// endToEnd are the metrics a user of the verifier sees, measured through
// the public facade with tracing off. wrong answers and failed
// operations are not metrics here: they are the correct/attempted/failed
// fields of the result line, because a metric that is always 0 has no
// median to bound.
//
// Bounds are calibrated on ten runs per workload with ten seeds on a
// shared 2-core box: run-to-run spread (interquartile range over median)
// of the timings is 3-9 %, with phases of +18 % that last several runs,
// so the timings take the widest bound the contract allows; the counts
// spread by 0.2 % at most.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},            // generate the config text, compute the reference answers, pre-fill the store; median of the set-ups of one run
	{Name: "verify_s", Unit: "s", Better: "lower", Bound: 0.25},           // config text to ready Verifier (ParseNetwork + NewVerifier): the operator's time to PFECs
	{Name: "query_s", Unit: "s", Better: "lower", Bound: 0.25},            // the workload's full query sweep on the ready verifier
	{Name: "answers_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},   // answers returned per second of verify_s + query_s
	{Name: "peak_bdd_nodes", Unit: "nodes", Better: "lower", Bound: 0.05}, // Metrics().BDD.PeakNodes summed over managers: the paper's memory proxy (Fig 11)
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.05},          // Go TotalAlloc delta per iteration: the GC pressure the user pays
}

// perLayer are the traced pass's numbers, one group per repo module.
var perLayer = []metricDef{
	{Name: "config.parse_s", Unit: "s", Better: "lower"},                     // config.ParseString
	{Name: "config.parse_mb_per_s", Unit: "MB/s", Better: "higher"},          // text bytes over parse_s
	{Name: "config.format_s", Unit: "s", Better: "lower"},                    // config.Format of the parsed network
	{Name: "config.text_bytes", Unit: "bytes", Better: "lower", Exact: true}, // size of the generated config text

	{Name: "order.compute_s", Unit: "s", Better: "lower"},                  // src.LinkOrder (order.Compute)
	{Name: "order.span_cost", Unit: "count", Better: "lower", Exact: true}, // order.SpanCost of the resolved link order
	{Name: "symbol.newspace_s", Unit: "s", Better: "lower"},                // analysis.NewRunSpace

	{Name: "src.run_s", Unit: "s", Better: "lower"},                            // symbolic route computation done in this process (Engine.Run; summed over prefix tasks)
	{Name: "src.share", Unit: "ratio", Better: "lower"},                        // src.run_s over the traced iteration's wall clock
	{Name: "src.activations", Unit: "count", Better: "lower", Exact: true},     // router activations until fixpoint
	{Name: "src.activations_per_s", Unit: "1/s", Better: "higher"},             // activations over src.run_s
	{Name: "src.routes_imported", Unit: "count", Better: "lower", Exact: true}, // advertisements processed
	{Name: "src.routes_pruned", Unit: "count", Better: "higher", Exact: true},  // imports dropped by route pruning
	{Name: "src.rib_routes", Unit: "count", Better: "lower", Exact: true},      // symbolic routes resident at fixpoint

	{Name: "spf.newforwarder_s", Unit: "s", Better: "lower"},         // spf.NewForwarder (combined path only; inside forward_s elsewhere)
	{Name: "spf.forward_s", Unit: "s", Better: "lower"},              // symbolic packet forwarding from every router
	{Name: "spf.share", Unit: "ratio", Better: "lower"},              // newforwarder_s + forward_s over the traced iteration's wall clock
	{Name: "spf.pfecs", Unit: "count", Better: "lower", Exact: true}, // PFECs discovered
	{Name: "spf.pfecs_per_s", Unit: "1/s", Better: "higher"},         // PFECs over forward_s

	{Name: "bdd.peak_nodes", Unit: "nodes", Better: "lower"},                // peak allocated node slots, summed over the iteration's managers
	{Name: "bdd.live_nodes_after_src", Unit: "nodes", Better: "lower"},      // live nodes at the src/spf boundary (combined path)
	{Name: "bdd.live_nodes_after_spf", Unit: "nodes", Better: "lower"},      // live nodes after forwarding (combined path)
	{Name: "bdd.cache_lookups", Unit: "count", Better: "lower"},             // op-cache and AndExists-cache lookups
	{Name: "bdd.lookups_per_s", Unit: "1/s", Better: "higher"},              // cache_lookups over the traced iteration's wall clock
	{Name: "bdd.cache_hit_ratio", Unit: "ratio", Better: "higher"},          // op-cache hits over lookups
	{Name: "bdd.ax_cache_hit_ratio", Unit: "ratio", Better: "higher"},       // AndExists-cache hits over lookups
	{Name: "bdd.unique_hits", Unit: "count", Better: "higher"},              // unique-table hits (hash-consing reuse)
	{Name: "bdd.gc_runs", Unit: "count", Better: "lower"},                   // node-table collections
	{Name: "bdd.reorders", Unit: "count", Better: "lower", Exact: true},     // dynamic reordering passes (0: reorder is off)
	{Name: "bdd.script_s", Unit: "s", Better: "lower"},                      // fixed kernel script on a fresh manager: AtMostKFalse + AndN/OrN/ExistsCube over the link band
	{Name: "bdd.script_nodes", Unit: "nodes", Better: "lower", Exact: true}, // peak nodes of the script's manager
	{Name: "bdd.write_s", Unit: "s", Better: "lower"},                       // Manager.Write of the first pipeline's PFEC predicates
	{Name: "bdd.read_s", Unit: "s", Better: "lower"},                        // Manager.Read of that blob into a fresh space
	{Name: "bdd.write_mb_per_s", Unit: "MB/s", Better: "higher"},            // blob bytes over write_s
	{Name: "bdd.read_mb_per_s", Unit: "MB/s", Better: "higher"},             // blob bytes over read_s

	{Name: "analysis.tolerance_s", Unit: "s", Better: "lower"},                           // all tolerance queries of the sweep
	{Name: "analysis.tolerance_p99_s", Unit: "s", Better: "lower"},                       // 99th percentile of one tolerance query
	{Name: "analysis.probability_s", Unit: "s", Better: "lower"},                         // all probability queries of the sweep
	{Name: "analysis.extract_s", Unit: "s", Better: "lower"},                             // Pipeline.Extract on every 8th property BDD of the sweep
	{Name: "analysis.queries", Unit: "count", Better: "higher", Exact: true},             // queries in the sweep
	{Name: "analysis.queries_per_s", Unit: "1/s", Better: "higher"},                      // queries over the sweep's wall clock
	{Name: "analysis.cachekey_s", Unit: "s", Better: "lower"},                            // analysis.CacheKey for every prefix (store and fleet paths)
	{Name: "analysis.prefixcost_s", Unit: "s", Better: "lower"},                          // analysis.PrefixCost for every scheduled prefix
	{Name: "analysis.encode_s", Unit: "s", Better: "lower"},                              // EncodePipelines + record JSON
	{Name: "analysis.decode_s", Unit: "s", Better: "lower"},                              // record JSON + DecodePipelines
	{Name: "analysis.wire_bytes", Unit: "bytes", Better: "lower"},                        // encoded record bytes
	{Name: "analysis.encode_mb_per_s", Unit: "MB/s", Better: "higher"},                   // wire_bytes over encode_s
	{Name: "analysis.decode_mb_per_s", Unit: "MB/s", Better: "higher"},                   // wire_bytes over decode_s
	{Name: "analysis.prefix_tasks", Unit: "count", Better: "lower", Exact: true},         // serial RunPrefixTask calls
	{Name: "analysis.prefix_task_sum_s", Unit: "s", Better: "lower"},                     // sum of the serial prefix tasks: the work a pool of any size shares out
	{Name: "analysis.prefix_task_max_s", Unit: "s", Better: "lower"},                     // longest prefix task: the floor for any parallelism
	{Name: "analysis.ladder_attempts", Unit: "count", Better: "lower", Exact: true},      // group bisections and ladder rung attempts (resilience.retries)
	{Name: "analysis.degraded_prefixes", Unit: "count", Better: "lower", Exact: true},    // prefixes verified on a ladder rung
	{Name: "analysis.quarantined_prefixes", Unit: "count", Better: "lower", Exact: true}, // prefixes isolated after an overflow

	{Name: "sched.wall_s", Unit: "s", Better: "lower"},             // analysis.RunSharded at the workload's parallelism
	{Name: "sched.efficiency", Unit: "ratio", Better: "higher"},    // prefix_task_sum_s over parallelism × wall_s
	{Name: "sched.speedup_vs_p1", Unit: "ratio", Better: "higher"}, // prefix_task_sum_s over wall_s

	{Name: "store.put_s", Unit: "s", Better: "lower"},                        // all Store.Put calls of an iteration
	{Name: "store.get_s", Unit: "s", Better: "lower"},                        // all Store.Get calls of an iteration
	{Name: "store.get_p99_s", Unit: "s", Better: "lower"},                    // 99th percentile (max below 100 samples) of one Get
	{Name: "store.hits", Unit: "count", Better: "higher", Exact: true},       // Get hits
	{Name: "store.misses", Unit: "count", Better: "lower", Exact: true},      // Get misses
	{Name: "store.publishes", Unit: "count", Better: "lower", Exact: true},   // records published
	{Name: "store.hit_ratio", Unit: "ratio", Better: "higher", Exact: true},  // hits over lookups: 1 warm, 0 cold, or the run fails
	{Name: "store.records", Unit: "count", Better: "lower", Exact: true},     // records on disk after the iteration
	{Name: "store.bytes_on_disk", Unit: "bytes", Better: "lower"},            // record bytes on disk after the iteration
	{Name: "store.quarantined", Unit: "count", Better: "lower", Exact: true}, // corrupt records set aside

	{Name: "coord.run_s", Unit: "s", Better: "lower"},                           // coord.Run across the worker subprocesses
	{Name: "coord.overhead_s", Unit: "s", Better: "lower"},                      // run_s minus the in-process sharded wall at parallelism = workers
	{Name: "coord.per_task_overhead_s", Unit: "s", Better: "lower"},             // overhead_s over tasks
	{Name: "coord.tasks", Unit: "count", Better: "lower", Exact: true},          // prefix tasks dispatched
	{Name: "coord.retries", Unit: "count", Better: "lower", Exact: true},        // task redispatches
	{Name: "coord.worker_crashes", Unit: "count", Better: "lower", Exact: true}, // worker crashes, stalls and corrupt frames

	{Name: "obs.recorder_overhead_share", Unit: "ratio", Better: "lower"}, // facade iteration with Options.Recorder set over one without, minus 1

	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower"},         // peak resident set of the traced process
	{Name: "proc.heap_peak_mb", Unit: "MB", Better: "lower"},        // largest Go heap (HeapSys) seen at an iteration boundary
	{Name: "proc.gc_cycles", Unit: "count", Better: "lower"},        // Go GC cycles during the measured window
	{Name: "proc.gc_pause_total_s", Unit: "s", Better: "lower"},     // Go GC stop-the-world time during the window
	{Name: "proc.user_cpu_s", Unit: "s", Better: "lower"},           // user CPU of the process and its children during the window
	{Name: "proc.sys_cpu_s", Unit: "s", Better: "lower"},            // system CPU of the process and its children during the window
	{Name: "proc.cpu_utilisation", Unit: "ratio", Better: "higher"}, // CPU seconds over wall seconds of the window (1 = one core busy)

	{Name: "run.iterations", Unit: "count", Better: "higher"},                // untraced facade iterations in the traced process
	{Name: "run.verify_min_s", Unit: "s", Better: "lower"},                   // fastest untraced verify
	{Name: "run.verify_max_s", Unit: "s", Better: "lower"},                   // slowest untraced verify
	{Name: "run.verify_iqr_s", Unit: "s", Better: "lower"},                   // interquartile range of the untraced verifies (0 below 4 samples)
	{Name: "run.wrong_answers", Unit: "count", Better: "lower", Exact: true}, // answers that differ from the reference; must be 0
	{Name: "run.failed_share", Unit: "ratio", Better: "lower", Exact: true},  // failed operations over attempted; must be 0

	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},    // traced iteration wall over untraced verify_s + query_s, minus 1
	{Name: "trace.attributed_share", Unit: "ratio", Better: "higher"}, // layer self time over traced wall; target >= 0.95
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// report turns raw values into the declared metric set; a declared
// metric a pass did not set reports 0 (the layer did no work).
func report(defs []metricDef, raw map[string]float64) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		out[d.Name] = value{Value: raw[d.Name], Unit: d.Unit}
	}
	return out
}

// median of xs (0 when empty); xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
