package analysis

import (
	"fmt"
	"sort"
	"time"

	"sre/internal/bdd"
	"sre/internal/config"
	"sre/internal/obs"
	"sre/internal/route"
	"sre/internal/src"
	"sre/internal/topology"
)

// Miner mines network specifications from configurations, the task of
// Figure 7 (Config2Spec comparison): for every (source router,
// destination prefix) pair it determines the reachability failure
// tolerance up to KMax, plus isolation pairs, waypoint tolerances, and
// load-balancing degrees.
//
// The miner implements the paper's stratified approach (§7.2): stratum k
// verifies, with route pruning at budget k, the properties that survived
// stratum k-1 and whose topological min-cut exceeds k. Pairs whose
// min-cut equals k are decided for free (prefix pruning): they survived
// stratum k-1 (tolerance ≥ k-1) and a k-link cut disconnects them
// (tolerance ≤ k-1), so their tolerance is exactly k-1. Prefixes with no
// undecided pair left are excluded from symbolic route computation
// entirely.
type Miner struct {
	Net  *config.Network
	KMax int
	// DisablePrefixPruning turns the stratified prefix pruning off (the
	// "one-shot" comparison point of §8.4).
	DisablePrefixPruning bool
	// SrcOpts tunes the per-stratum engine (Abstract, NoECMP, ...);
	// PruneK and Prefixes are set by the miner.
	SrcOpts src.Options
	// Waypoint, when non-nil, selects the waypoint router for waypoint
	// mining of each (src, prefix) pair.
	Waypoint func(s topology.RouterID, pfx route.Prefix) (topology.RouterID, bool)

	// Resilient enables graceful degradation: a stratum whose BDD node
	// table overflows quarantines the offending prefixes and retries
	// them through the escalation ladder (without budget halving — a
	// stratum-k verdict is only sound at budget exactly k) instead of
	// aborting the whole mining run. Prefixes that still fail are
	// reported in Specs.Outcomes with their surviving pairs marked in
	// Specs.DegradedPairs; all other prefixes mine normally.
	Resilient bool

	// StrataTimes records the wall time of each stratum.
	StrataTimes []time.Duration
}

// PairKey identifies a mined property instance.
type PairKey struct {
	Src    topology.RouterID
	Prefix route.Prefix
}

// Specs is the mining result.
type Specs struct {
	// ReachTolerance maps each pair to its reachability failure
	// tolerance: -1 (unreachable even with all links up), 0..KMax-1, or
	// InfiniteTolerance when it survives all strata (reported as ≥KMax).
	ReachTolerance map[PairKey]int
	// Isolated lists pairs whose destination is unreachable under every
	// failure combination of at most KMax failures.
	Isolated []PairKey
	// WaypointTolerance maps pairs to the tolerance of their waypoint
	// property (present only when a waypoint selector was configured).
	WaypointTolerance map[PairKey]int
	// LoadBalance maps pairs to the number of simultaneous forwarding
	// paths under no failures.
	LoadBalance map[PairKey]int
	// Outcomes reports per-prefix resilience outcomes (resilient
	// mining only): prefixes that were quarantined, degraded, or
	// failed at some stratum, merged across strata. Empty maps mean a
	// fully clean run.
	Outcomes map[route.Prefix]PrefixOutcome
	// DegradedPairs marks pairs whose ReachTolerance is a lower bound:
	// their prefix exhausted the escalation ladder at the stratum that
	// would have decided them, or that stratum decided them on a
	// degraded rung's pipeline, so only "tolerance ≥ value" is known.
	DegradedPairs map[PairKey]bool
}

// Mine runs the stratified mining loop.
func (mn *Miner) Mine() (*Specs, error) {
	tel := mn.SrcOpts.Telemetry
	telStrata := tel.Counter("mine.strata")
	telDecided := tel.Counter("mine.pairs_decided")
	mineSpan := tel.Start("mine")
	defer mineSpan.End()
	t := mn.Net.Topology
	specs := &Specs{
		ReachTolerance:    make(map[PairKey]int),
		WaypointTolerance: make(map[PairKey]int),
		LoadBalance:       make(map[PairKey]int),
		Outcomes:          make(map[route.Prefix]PrefixOutcome),
		DegradedPairs:     make(map[PairKey]bool),
	}
	prefixes := mn.Net.AllPrefixes()
	origins := make(map[route.Prefix][]topology.RouterID, len(prefixes))
	for _, p := range prefixes {
		origins[p] = mn.Net.OriginsOf(p)
	}
	// Pair universe: every source towards every prefix it does not
	// originate itself.
	undecided := make(map[PairKey]bool)
	minCut := make(map[PairKey]int)
	for _, pfx := range prefixes {
		for s := 0; s < t.NumRouters(); s++ {
			srcID := topology.RouterID(s)
			if containsRouter(origins[pfx], srcID) {
				continue
			}
			key := PairKey{Src: srcID, Prefix: pfx}
			undecided[key] = true
			// Topological cap: max over origins (reaching any origin
			// suffices).
			mc := 0
			for _, o := range origins[pfx] {
				if c := t.MinCut(srcID, o); c > mc {
					mc = c
				}
			}
			minCut[key] = mc
		}
	}

	var isolationCandidates []PairKey
	for k := 0; k <= mn.KMax; k++ {
		start := time.Now()
		telStrata.Inc()
		stratumSpan := mineSpan.Start(fmt.Sprintf("stratum-%d", k))
		if !mn.DisablePrefixPruning {
			for key := range undecided {
				if minCut[key] <= k {
					specs.ReachTolerance[key] = minCut[key] - 1
					if _, done := specs.WaypointTolerance[key]; !done && mn.Waypoint != nil {
						specs.WaypointTolerance[key] = minCut[key] - 1
					}
					delete(undecided, key)
					telDecided.Inc()
				}
			}
		}
		prefixSet := make(map[route.Prefix]bool)
		for key := range undecided {
			prefixSet[key.Prefix] = true
		}
		if len(prefixSet) == 0 {
			mn.StrataTimes = append(mn.StrataTimes, time.Since(start))
			stratumSpan.End()
			break
		}
		stratumSpan.SetAttr("k", k)
		stratumSpan.SetAttr("pairs", len(undecided))
		stratumSpan.SetAttr("prefixes", len(prefixSet))
		if workers := mn.stratumWorkers(); workers > 1 || mn.Resilient {
			err := mn.mineStratumPerPrefix(specs, undecided, &isolationCandidates, k, workers)
			stratumSpan.End()
			if err != nil {
				return nil, fmt.Errorf("stratum %d: %w", k, err)
			}
			mn.StrataTimes = append(mn.StrataTimes, time.Since(start))
			continue
		}
		// One worker, no ladder: the stratum's whole domain in one
		// combined pipeline.
		opts := mn.SrcOpts
		opts.PruneK = k
		if !mn.DisablePrefixPruning {
			opts.Prefixes = sortedPrefixes(mn.expandForAggregates(prefixSet))
		}
		pipe, err := Run(mn.Net, opts)
		if err != nil {
			stratumSpan.End()
			return nil, fmt.Errorf("stratum %d: %w", k, err)
		}
		m := pipe.Sp.M
		budget := pipe.Sp.AtMostKLinkFailures(k)
		pairTotal := len(undecided)
		pairDone := 0
		for key := range undecided {
			pairDone++
			if tel.Active() {
				tel.Emit(obs.Event{Stage: "mine",
					Done: int64(pairDone), Total: int64(pairTotal), Unit: "pairs",
					Detail: fmt.Sprintf("stratum %d", k), Final: pairDone == pairTotal})
			}
			hdr := pipe.OwnedHeaders(key.Prefix)
			dst := pipe.OriginSet(key.Prefix)
			prop := pipe.ReachBDD(key.Src, dst, hdr)
			if mn.Waypoint != nil {
				if _, done := specs.WaypointTolerance[key]; !done {
					if w, ok := mn.Waypoint(key.Src, key.Prefix); ok {
						wprop := pipe.WaypointBDD(key.Src, dst, w, hdr)
						if m.DiffSat(m.And(hdr, budget), wprop) {
							specs.WaypointTolerance[key] = k - 1
						}
					}
				}
			}
			// Violated iff some (packet, scenario) within budget is not
			// covered by the property.
			if m.DiffSat(m.And(hdr, budget), prop) {
				specs.ReachTolerance[key] = k - 1
				delete(undecided, key)
				telDecided.Inc()
				if prop == bdd.False {
					isolationCandidates = append(isolationCandidates, key)
				}
				continue
			}
			if k == 0 {
				if n := pipe.LoadBalancePaths(key.Src, dst, hdr); n > 0 {
					specs.LoadBalance[key] = n
				}
			}
		}
		pipe.Release()
		mn.StrataTimes = append(mn.StrataTimes, time.Since(start))
		stratumSpan.End()
	}
	// Pairs surviving every stratum tolerate at least KMax failures.
	for key := range undecided {
		specs.ReachTolerance[key] = InfiniteTolerance
		telDecided.Inc()
		if mn.Waypoint != nil {
			if _, done := specs.WaypointTolerance[key]; !done {
				specs.WaypointTolerance[key] = InfiniteTolerance
			}
		}
	}
	if err := mn.confirmIsolation(specs, isolationCandidates); err != nil {
		return nil, err
	}
	sort.Slice(specs.Isolated, func(i, j int) bool {
		a, b := specs.Isolated[i], specs.Isolated[j]
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.Prefix.Addr < b.Prefix.Addr
	})
	return specs, nil
}

// confirmIsolation re-checks candidates (pairs whose reach BDD was empty
// at their deciding stratum) at the full failure budget: a pair is
// isolated only if no combination of at most KMax failures deflects
// traffic to the destination.
func (mn *Miner) confirmIsolation(specs *Specs, candidates []PairKey) error {
	if len(candidates) == 0 {
		return nil
	}
	if workers := mn.stratumWorkers(); workers > 1 || mn.Resilient {
		return mn.confirmIsolationPerPrefix(specs, candidates, workers)
	}
	prefixSet := make(map[route.Prefix]bool)
	for _, key := range candidates {
		prefixSet[key.Prefix] = true
	}
	opts := mn.SrcOpts
	opts.PruneK = mn.KMax
	opts.Prefixes = sortedPrefixes(mn.expandForAggregates(prefixSet))
	pipe, err := Run(mn.Net, opts)
	if err != nil {
		return fmt.Errorf("isolation confirmation: %w", err)
	}
	defer pipe.Release()
	for _, key := range candidates {
		prop := pipe.ReachBDD(key.Src, pipe.OriginSet(key.Prefix), pipe.OwnedHeaders(key.Prefix))
		if prop == bdd.False {
			specs.Isolated = append(specs.Isolated, key)
		}
	}
	return nil
}

// mergeOutcome folds one prefix outcome into the spec summary.
func mergeOutcome(specs *Specs, o PrefixOutcome) {
	prev, ok := specs.Outcomes[o.Prefix]
	if !ok {
		specs.Outcomes[o.Prefix] = o
		return
	}
	prev.Quarantined = prev.Quarantined || o.Quarantined
	prev.Degraded = prev.Degraded || o.Degraded
	prev.Rungs = append(prev.Rungs, o.Rungs...)
	if prev.Err == nil {
		prev.Err = o.Err
	}
	if o.EffectivePruneK < prev.EffectivePruneK {
		prev.EffectivePruneK = o.EffectivePruneK
	}
	specs.Outcomes[o.Prefix] = prev
}

// expandForAggregates widens a prefix set with the originated
// more-specific prefixes of any configured aggregate in the set, so that
// restricted route computations still generate the aggregates.
func (mn *Miner) expandForAggregates(set map[route.Prefix]bool) map[route.Prefix]bool {
	out := make(map[route.Prefix]bool, len(set))
	for p := range set {
		out[p] = true
	}
	all := mn.Net.AllPrefixes()
	for _, rc := range mn.Net.Routers {
		if rc.BGP == nil {
			continue
		}
		for _, agg := range rc.BGP.Aggregates {
			if !set[agg] {
				continue
			}
			for _, contrib := range all {
				if agg.Covers(contrib) && contrib != agg {
					out[contrib] = true
				}
			}
		}
	}
	return out
}

// GroupSpec is a generalized reachability specification: every
// originated prefix under Prefix has the same tolerance K from Src.
type GroupSpec struct {
	Src    topology.RouterID
	Prefix route.Prefix
	K      int
	// Members is the number of originated prefixes the group covers.
	Members int
}

// Generalize merges per-prefix reachability specs into prefix-group
// specs (§2.1: "generalize these requirements to groups of prefixes"):
// sibling prefixes with identical tolerance fold into their parent,
// repeatedly, so a data-center pod whose /24s all tolerate one failure
// yields a single /20-level spec instead of sixteen.
func (s *Specs) Generalize() []GroupSpec {
	type entry struct {
		k       int
		members int
	}
	perSrc := make(map[topology.RouterID]map[route.Prefix]entry)
	for key, k := range s.ReachTolerance {
		m, ok := perSrc[key.Src]
		if !ok {
			m = make(map[route.Prefix]entry)
			perSrc[key.Src] = m
		}
		m[key.Prefix] = entry{k: k, members: 1}
	}
	var out []GroupSpec
	for src, m := range perSrc {
		// Fold siblings bottom-up.
		for changed := true; changed; {
			changed = false
			for p, e := range m {
				if p.Len == 0 {
					continue
				}
				sib := route.Prefix{Addr: p.Addr ^ (1 << (32 - p.Len)), Len: p.Len}
				se, ok := m[sib]
				if !ok || se.k != e.k {
					continue
				}
				parent := route.Prefix{Addr: p.Addr & route.MaskOf(p.Len-1), Len: p.Len - 1}
				if _, exists := m[parent]; exists {
					continue
				}
				delete(m, p)
				delete(m, sib)
				m[parent] = entry{k: e.k, members: e.members + se.members}
				changed = true
			}
		}
		for p, e := range m {
			out = append(out, GroupSpec{Src: src, Prefix: p, K: e.k, Members: e.members})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Prefix.Addr != b.Prefix.Addr {
			return a.Prefix.Addr < b.Prefix.Addr
		}
		return a.Prefix.Len < b.Prefix.Len
	})
	return out
}

func containsRouter(rs []topology.RouterID, r topology.RouterID) bool {
	for _, x := range rs {
		if x == r {
			return true
		}
	}
	return false
}

func sortedPrefixes(set map[route.Prefix]bool) []route.Prefix {
	out := make([]route.Prefix, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Addr != out[j].Addr {
			return out[i].Addr < out[j].Addr
		}
		return out[i].Len < out[j].Len
	})
	return out
}
