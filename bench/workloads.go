package main

import (
	"fmt"
	"runtime"
	"strings"

	"sre"
	"sre/internal/config"
	"sre/internal/workload"
)

// generator names one network of internal/workload. The topology of a
// workload is fixed: the driver compares runs made with different seeds,
// and a different WAN chord set or campus snapshot moves verify_s by
// ±20 % and peak nodes by ±15 %, far outside any bound. The seed drives
// the order of the query sweep and the oracle's sampled scenarios instead.
type generator struct {
	Kind string // "fattree", "wan" or "campus"

	Arity int               // fattree
	Proto workload.Protocol // fattree, wan

	Routers, Links int   // wan
	Chords         int64 // wan: seed of the chord set

	VLANs, Snapshot int // campus
}

func (g generator) build() *config.Network {
	switch g.Kind {
	case "fattree":
		return workload.FatTree(g.Arity, g.Proto)
	case "wan":
		return workload.SyntheticWAN("wan", g.Routers, g.Links, g.Proto, g.Chords)
	case "campus":
		return workload.Campus(workload.CampusOptions{VLANs: g.VLANs, Snapshot: g.Snapshot})
	}
	panic("bench: unknown generator " + g.Kind)
}

func (g generator) String() string {
	switch g.Kind {
	case "fattree":
		return fmt.Sprintf("FatTree(%d)", g.Arity)
	case "wan":
		return fmt.Sprintf("WAN(%d routers, %d links)", g.Routers, g.Links)
	case "campus":
		return fmt.Sprintf("Campus(%d VLANs, snapshot %d)", g.VLANs, g.Snapshot)
	}
	return g.Kind
}

// Expectation sources (reference.go). Both come from outside the engine
// under test: neither builds a BDD nor runs symbolic route computation.
const (
	// expectConnectivity enumerates every scenario of at most k failed
	// links on the physical graph; exact on the policy-free networks the
	// generators emit (one AS per router, or one OSPF area).
	expectConnectivity = "connectivity"
	// expectOracle simulates the control plane concretely:
	// baselines.Batfish for every scenario up to OracleDepth failures,
	// then seeded scenarios one failure deeper.
	expectOracle = "oracle"
)

// Store modes of a workload.
const (
	storeNone = ""
	storeCold = "cold" // fresh empty directory per iteration
	storeWarm = "warm" // pre-filled in set-up
)

// workloadDef is one row of the workload table: everything a run needs,
// as data, so the table can be validated before anything runs.
type workloadDef struct {
	Name string
	Why  string // one line; copied into BENCHMARK.json
	Gen  generator
	// Opts are the facade options of every iteration (Store is filled in
	// per iteration from StoreMode).
	Opts      sre.Options
	StoreMode string
	// Sweep: every (router, prefix) tolerance is always queried; PDown > 0
	// adds Probability(LinkFailures(PDown)) for every pair.
	PDown float64
	// WarmUps run before the clock starts. Iterations are then bounded by
	// -seconds, with MinIters as the floor.
	WarmUps  int
	MinIters int
	// Expect lists the reference sources; OracleDepth is the failure
	// count up to which the oracle enumerates every scenario.
	Expect      []string
	OracleDepth int
}

// minIters is the floor every workload uses: a median needs three samples.
const minIters = 3

var workloads = []workloadDef{
	{
		Name:    "ft6_bgp_k1",
		Why:     "FatTree(6) BGP k=1 in one combined space: src and bdd do ~85% of verify_s, store/coord/sched nothing; ROADMAP's standing <1 s target.",
		Gen:     generator{Kind: "fattree", Arity: 6, Proto: workload.BGP},
		Opts:    sre.Options{MaxFailures: 1, Parallelism: 1},
		WarmUps: 1, MinIters: minIters,
		Expect: []string{expectConnectivity, expectOracle}, OracleDepth: 0,
	},
	{
		Name:    "bics_ospf_k2",
		Why:     "Irregular 33-router/48-link OSPF WAN k=2 with tolerance and probability for all pairs: largest diagram, spf ~40% of verify_s, other protocol path in src.",
		Gen:     generator{Kind: "wan", Routers: 33, Links: 48, Proto: workload.OSPF, Chords: 1},
		Opts:    sre.Options{MaxFailures: 2, Parallelism: 1},
		PDown:   1e-3,
		WarmUps: 1, MinIters: minIters,
		Expect: []string{expectConnectivity, expectOracle}, OracleDepth: 0,
	},
	{
		Name:    "campus200_queries",
		Why:     "Policy-rich campus (200 VLANs, ACLs, OSPF costs) k=2 with 5600 tolerance queries: the only workload where query_s is near verify_s, so analysis does most of an iteration.",
		Gen:     generator{Kind: "campus", VLANs: 200, Snapshot: 1},
		Opts:    sre.Options{MaxFailures: 2, Parallelism: 1},
		WarmUps: 1, MinIters: minIters,
		Expect: []string{expectConnectivity, expectOracle}, OracleDepth: 0,
	},
	{
		Name:    "ft6_sharded_p2",
		Why:     "Same network as ft6_bgp_k1 at Parallelism 2: one scoped space per prefix on the sched pool, so a gain for the combined space that costs the sharded path shows as one row moving.",
		Gen:     generator{Kind: "fattree", Arity: 6, Proto: workload.BGP},
		Opts:    sre.Options{MaxFailures: 1, Parallelism: 2},
		WarmUps: 2, MinIters: minIters,
		Expect: []string{expectConnectivity, expectOracle}, OracleDepth: 0,
	},
	{
		Name: "ft6_store_cold",
		Why:  "Same network with a fresh empty store per iteration: the write side of store plus the analysis encode on top of the P=1 sharded path.",
		Gen:  generator{Kind: "fattree", Arity: 6, Proto: workload.BGP},
		Opts: sre.Options{MaxFailures: 1, Parallelism: 1}, StoreMode: storeCold,
		WarmUps: 1, MinIters: minIters,
		Expect: []string{expectConnectivity, expectOracle}, OracleDepth: 0,
	},
	{
		Name: "ft6_store_warm",
		Why:  "Same network with the store pre-filled in set-up: parse, cache-key hashing, Get and BDD decode only; src and spf do nothing, so a kernel win must not move it.",
		Gen:  generator{Kind: "fattree", Arity: 6, Proto: workload.BGP},
		Opts: sre.Options{MaxFailures: 1, Parallelism: 1}, StoreMode: storeWarm,
		WarmUps: 2, MinIters: minIters,
		Expect: []string{expectConnectivity, expectOracle}, OracleDepth: 0,
	},
	{
		Name:    "ft4_fleet_w2",
		Why:     "FatTree(4) BGP k=2 across 2 worker subprocesses (the bench binary re-execs itself): coord spawn, frames and codec dominate; guards the one-execution-path refactor.",
		Gen:     generator{Kind: "fattree", Arity: 4, Proto: workload.BGP},
		Opts:    sre.Options{MaxFailures: 2, Workers: 2},
		WarmUps: 2, MinIters: minIters,
		Expect: []string{expectConnectivity, expectOracle}, OracleDepth: 1,
	},
	{
		Name:    "ft4_resilient_limit20k",
		Why:     "FatTree(4) BGP k=3 under a 20000-node limit, resilient: every prefix overflows and climbs the ladder, so fewer peak nodes show here as fewer ladder attempts.",
		Gen:     generator{Kind: "fattree", Arity: 4, Proto: workload.BGP},
		Opts:    sre.Options{MaxFailures: 3, Parallelism: 1, BDDNodeLimit: 20000, Resilient: true},
		WarmUps: 1, MinIters: minIters,
		Expect: []string{expectConnectivity, expectOracle}, OracleDepth: 1,
	},
}

// validName reports whether s fits the contract's name rule.
func validName(s string) bool {
	if s == "" || len(s) > 64 {
		return false
	}
	for i, c := range s {
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if !alnum && (i == 0 || !strings.ContainsRune("_.-", c)) {
			return false
		}
	}
	return true
}

// validateWorkloads rejects a table the benchmark cannot run honestly on
// this machine. It runs before any workload does.
func validateWorkloads(defs []workloadDef) error {
	if len(defs) < 2 || len(defs) > 8 {
		return fmt.Errorf("workload table has %d rows, want 2 to 8", len(defs))
	}
	nproc := runtime.NumCPU()
	seen := map[string]bool{}
	for _, w := range defs {
		switch {
		case !validName(w.Name):
			return fmt.Errorf("workload name %q: want at most 64 of [A-Za-z0-9_.-], starting with a letter or digit", w.Name)
		case seen[w.Name]:
			return fmt.Errorf("workload %s: duplicate name", w.Name)
		case w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n"):
			return fmt.Errorf("workload %s: the reason must be one line of at most 200 characters", w.Name)
		case len(w.Expect) == 0:
			return fmt.Errorf("workload %s: no expectation source", w.Name)
		case w.Opts.Parallelism > nproc || w.Opts.Workers > nproc:
			return fmt.Errorf("workload %s: Parallelism %d / Workers %d exceed the %d CPUs of this machine",
				w.Name, w.Opts.Parallelism, w.Opts.Workers, nproc)
		case w.Opts.MaxFailures < 0:
			return fmt.Errorf("workload %s: the references need a bounded failure budget", w.Name)
		case w.MinIters < 1:
			return fmt.Errorf("workload %s: MinIters %d", w.Name, w.MinIters)
		case w.Opts.Store != nil || w.Opts.Telemetry != nil || w.Opts.Recorder != nil || w.Opts.Trace:
			return fmt.Errorf("workload %s: Store and telemetry are set per iteration, not in the table", w.Name)
		}
		seen[w.Name] = true
		for _, e := range w.Expect {
			if e != expectConnectivity && e != expectOracle {
				return fmt.Errorf("workload %s: unknown expectation source %q", w.Name, e)
			}
		}
		switch w.Gen.Kind {
		case "fattree":
			if w.Gen.Arity < 2 || w.Gen.Arity%2 != 0 {
				return fmt.Errorf("workload %s: fat-tree arity %d", w.Name, w.Gen.Arity)
			}
		case "wan":
			if w.Gen.Links < w.Gen.Routers || w.Gen.Routers < 3 {
				return fmt.Errorf("workload %s: WAN needs links >= routers >= 3", w.Name)
			}
		case "campus":
			if w.Gen.VLANs < 1 {
				return fmt.Errorf("workload %s: campus needs VLANs", w.Name)
			}
		default:
			return fmt.Errorf("workload %s: unknown generator %q", w.Name, w.Gen.Kind)
		}
		switch w.StoreMode {
		case storeNone, storeCold, storeWarm:
		default:
			return fmt.Errorf("workload %s: unknown store mode %q", w.Name, w.StoreMode)
		}
	}
	return nil
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// path is the execution path sre.NewVerifier takes for the workload's
// options; the traced pass walks the same one from outside.
func (w workloadDef) path() string {
	switch {
	case w.Opts.Workers > 0:
		return pathFleet
	case w.Opts.Resilient:
		return pathResilient
	case w.StoreMode != storeNone:
		return pathCached
	case w.Opts.Parallelism != 1:
		return pathSharded
	}
	return pathCombined
}

const (
	pathCombined  = "combined"  // analysis.RunWithSpace: one space for all prefixes
	pathSharded   = "sharded"   // analysis.RunSharded on the sched pool
	pathCached    = "cached"    // the sharded path at one worker behind a store
	pathResilient = "resilient" // analysis.RunPartitionedCached, the ladder
	pathFleet     = "fleet"     // coord.Run over worker subprocesses
)
