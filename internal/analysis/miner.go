package analysis

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"sre/internal/bdd"
	"sre/internal/config"
	"sre/internal/obs"
	"sre/internal/resil"
	"sre/internal/route"
	"sre/internal/src"
	"sre/internal/topology"
)

// Miner mines network specifications from configurations, the task of
// Figure 7 (Config2Spec comparison): for every (source router,
// destination prefix) pair it determines the reachability failure
// tolerance up to KMax (a negative KMax explores the full failure
// space), plus isolation pairs, waypoint tolerances, and load-balancing
// degrees.
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
	// SrcOpts tunes the per-stratum engine (NoECMP, Parallelism, ...);
	// PruneK and Prefixes are set by the miner.
	SrcOpts src.Options
	// Waypoint, when non-nil, selects the waypoint router for waypoint
	// mining of each (src, prefix) pair. With several workers it is
	// called from worker goroutines and must be safe for concurrent use.
	Waypoint func(s topology.RouterID, pfx route.Prefix) (topology.RouterID, bool)

	// Resilient enables graceful degradation: a prefix whose BDD node
	// table overflows in a stratum is quarantined and fails at once
	// instead of aborting the whole mining run. Its ladder is empty: the
	// only rung halves the budget, and a stratum-k verdict is only sound
	// at budget exactly k. Failed prefixes are reported in
	// Specs.Outcomes with their surviving pairs marked in
	// Specs.DegradedPairs; all other prefixes mine normally.
	Resilient bool
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
	// mining only): prefixes that failed at some stratum (Quarantined
	// when the verification overflowed, not only its queries), merged
	// across strata. Empty maps mean a fully clean run.
	Outcomes map[route.Prefix]PrefixOutcome
	// DegradedPairs marks pairs whose ReachTolerance is a lower bound:
	// their prefix failed at the stratum that would have decided them,
	// so only "tolerance ≥ value" is known.
	DegradedPairs map[PairKey]bool
}

// Mine runs the stratified mining loop.
func (mn *Miner) Mine() (*Specs, error) {
	tel := mn.SrcOpts.Telemetry
	telStrata := tel.Counter("mine.strata")
	telDecided := tel.Counter("mine.pairs_decided")
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

	workers := Workers(mn.SrcOpts)
	var isolationCandidates []PairKey
	// With no budget the strata run until every pair is decided, which
	// stratum max(min-cut) does at the latest.
	for k := 0; mn.KMax < 0 || k <= mn.KMax; k++ {
		start := time.Now()
		telStrata.Inc()
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
		if len(undecided) == 0 {
			break
		}
		pairs := len(undecided)
		err := mn.mineStratum(specs, undecided, &isolationCandidates, k, workers)
		outcome := "ok"
		if err != nil {
			outcome = "error"
		}
		tel.Record(start, obs.TraceEvent{Stage: "stratum", Wall: time.Since(start).Nanoseconds(),
			Count: int64(pairs), Outcome: outcome})
		if err != nil {
			return nil, fmt.Errorf("stratum %d: %w", k, err)
		}
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
	if err := mn.confirmIsolation(specs, isolationCandidates, workers); err != nil {
		return nil, fmt.Errorf("isolation confirmation: %w", err)
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

// eachPipeline verifies domain at opts and hands every prefix, its
// outcome and the pipeline verifying it (nil when the prefix exhausted
// the ladder) to fn, then releases the pipeline. With one worker and no
// ladder the whole domain — closed over its dependencies — runs as one
// combined pipeline shared by every call; otherwise each prefix is its
// own scoped task, fn runs on the task's worker, and stratum peak
// memory is bounded by the tasks in flight instead of the whole domain.
// Every prefix belongs to exactly one call, so whatever fn commits is
// independent of completion order.
func (mn *Miner) eachPipeline(opts src.Options, domain []route.Prefix, workers int, fn func(pfx route.Prefix, pipe *Pipeline, out PrefixOutcome)) error {
	if workers <= 1 && !mn.Resilient {
		opts.Prefixes = taskDomain(mn.Net, domain...)
		pipe, err := Run(mn.Net, opts)
		if err != nil {
			return err
		}
		defer pipe.Release()
		for _, pfx := range sortedPrefixList(domain) {
			fn(pfx, pipe, PrefixOutcome{Prefix: pfx, EffectivePruneK: opts.PruneK})
		}
		return nil
	}
	// The ladder is on when resilient, never halving the budget (a
	// stratum-k verdict is only sound at budget exactly k), so an
	// overflowing prefix fails without a retry.
	x := Executor{Net: mn.Net, Opts: opts, Workers: workers,
		Ladder: mn.Resilient, Lad: LadderOptions{DisableBudgetHalving: true}}
	return x.each(domain, nil, func(pfx route.Prefix, pipes []*Pipeline, out PrefixOutcome) {
		if len(pipes) == 0 {
			fn(pfx, nil, out)
			return
		}
		defer pipes[0].Release()
		fn(pfx, pipes[0], out)
	})
}

// pairEval is one undecided pair of a stratum with the per-key state
// snapshotted before any pipeline runs, so worker-side evaluation never
// reads the shared spec maps.
type pairEval struct {
	key PairKey
	// waypointDone records whether the pair's waypoint tolerance was
	// already decided in an earlier stratum.
	waypointDone bool
}

// mineStratum decides the undecided pairs at budget k: each prefix's
// pairs are evaluated against the pipeline verifying it, off any lock,
// and the decisions committed to the spec maps under one mutex.
func (mn *Miner) mineStratum(specs *Specs, undecided map[PairKey]bool,
	isolationCandidates *[]PairKey, k, workers int) error {

	tel := mn.SrcOpts.Telemetry
	telDecided := tel.Counter("mine.pairs_decided")
	byPfx := make(map[route.Prefix][]pairEval)
	for key := range undecided {
		_, wpDone := specs.WaypointTolerance[key]
		byPfx[key.Prefix] = append(byPfx[key.Prefix], pairEval{key: key, waypointDone: wpDone})
	}
	domain := make([]route.Prefix, 0, len(byPfx))
	for pfx := range byPfx {
		domain = append(domain, pfx)
	}

	opts := mn.SrcOpts
	opts.PruneK = k

	var mu sync.Mutex // guards specs, undecided, isolationCandidates, pairDone
	pairTotal := len(undecided)
	pairDone := 0
	return mn.eachPipeline(opts, domain, workers, func(pfx route.Prefix, pipe *Pipeline, out PrefixOutcome) {
		pairs := byPfx[pfx]
		var decisions []pairDecision
		if out.Err == nil {
			decisions, out.Err = mn.decidePairs(pipe, pairs, k)
		}
		mu.Lock()
		defer mu.Unlock()
		if out.Err != nil {
			// The prefix overflowed at this stratum (or its queries
			// overflowed the verified pipeline). Its pairs survived
			// stratum k-1, so k-1 is a sound lower bound; record it and
			// mark them degraded.
			for _, pe := range pairs {
				specs.ReachTolerance[pe.key] = k - 1
				specs.DegradedPairs[pe.key] = true
				if mn.Waypoint != nil && !pe.waypointDone {
					specs.WaypointTolerance[pe.key] = k - 1
				}
				delete(undecided, pe.key)
				telDecided.Inc()
			}
		}
		for _, d := range decisions {
			if d.waypointTol != wpUndecided {
				specs.WaypointTolerance[d.pe.key] = d.waypointTol
			}
			if d.violated {
				specs.ReachTolerance[d.pe.key] = k - 1
				delete(undecided, d.pe.key)
				telDecided.Inc()
				if d.reachEmpty {
					*isolationCandidates = append(*isolationCandidates, d.pe.key)
				}
			} else if k == 0 && d.loadBalance > specs.LoadBalance[d.pe.key] {
				specs.LoadBalance[d.pe.key] = d.loadBalance
			}
		}
		if out.Err != nil {
			mergeOutcome(specs, out)
		}
		pairDone += len(pairs)
		if tel.Active() {
			tel.Emit(obs.Event{Stage: "mine",
				Done: int64(pairDone), Total: int64(pairTotal), Unit: "pairs",
				Detail: fmt.Sprintf("stratum %d", k), Final: pairDone == pairTotal})
		}
	})
}

// pairDecision is what one stratum learned about one pair.
type pairDecision struct {
	pe          pairEval
	violated    bool
	reachEmpty  bool
	waypointTol int // k-1 when decided here, else wpUndecided
	loadBalance int
}

const wpUndecided = InfiniteTolerance

// decidePairs evaluates a prefix's undecided pairs at stratum k on its
// verified pipeline: a property is violated iff some (packet, scenario)
// within the budget is not covered by it. In a resilient mine, a
// node-table overflow raised by the queries themselves is returned as
// the error that fails the prefix at this stratum, like an exhausted
// ladder.
func (mn *Miner) decidePairs(pipe *Pipeline, pairs []pairEval, k int) (_ []pairDecision, err error) {
	if mn.Resilient {
		defer guardOverflow(&err)
	}
	decisions := make([]pairDecision, 0, len(pairs))
	budget := pipe.Sp.AtMostKLinkFailures(k)
	for _, pe := range pairs {
		d := pairDecision{pe: pe, waypointTol: wpUndecided}
		q := pipe.Query(pe.key.Src, pe.key.Prefix)
		prop := q.Reach()
		d.reachEmpty = prop == bdd.False
		d.violated = q.Violated(prop, budget)
		if mn.Waypoint != nil && !pe.waypointDone {
			if w, ok := mn.Waypoint(pe.key.Src, pe.key.Prefix); ok && q.Violated(q.Waypoint(w), budget) {
				d.waypointTol = k - 1
			}
		}
		if !d.violated && k == 0 {
			d.loadBalance = q.LoadBalance()
		}
		decisions = append(decisions, d)
	}
	return decisions, nil
}

// confirmIsolation re-checks candidates (pairs whose reach BDD was empty
// at their deciding stratum) at the full failure budget: a pair is
// isolated only if no combination of at most KMax failures deflects
// traffic to the destination. The final Isolated order is fixed by
// Mine's sort, not completion order.
func (mn *Miner) confirmIsolation(specs *Specs, candidates []PairKey, workers int) error {
	if len(candidates) == 0 {
		return nil
	}
	byPfx := make(map[route.Prefix][]PairKey)
	for _, key := range candidates {
		byPfx[key.Prefix] = append(byPfx[key.Prefix], key)
	}
	domain := make([]route.Prefix, 0, len(byPfx))
	for pfx := range byPfx {
		domain = append(domain, pfx)
	}
	opts := mn.SrcOpts
	opts.PruneK = mn.KMax

	var mu sync.Mutex
	return mn.eachPipeline(opts, domain, workers, func(pfx route.Prefix, pipe *Pipeline, out PrefixOutcome) {
		var isolatedKeys []PairKey
		if out.Err == nil { // a failed prefix cannot confirm isolation
			isolatedKeys, out.Err = mn.isolatedPairs(pipe, byPfx[pfx])
		}
		mu.Lock()
		defer mu.Unlock()
		specs.Isolated = append(specs.Isolated, isolatedKeys...)
		if out.Err != nil {
			mergeOutcome(specs, out)
		}
	})
}

// isolatedPairs returns the candidates pipe confirms isolated;
// overflowing queries fail the prefix like decidePairs.
func (mn *Miner) isolatedPairs(pipe *Pipeline, candidates []PairKey) (_ []PairKey, err error) {
	if mn.Resilient {
		defer guardOverflow(&err)
	}
	var isolated []PairKey
	for _, key := range candidates {
		if pipe.Query(key.Src, key.Prefix).Reach() == bdd.False {
			isolated = append(isolated, key)
		}
	}
	return isolated, nil
}

// guardOverflow is deferred around queries on a verified pipeline: a
// node-table overflow they raise becomes *errp; anything else (an
// interruption, a defect) keeps unwinding to the caller's firewall.
func guardOverflow(errp *error) {
	r := recover()
	if r == nil {
		return
	}
	if e, ok := resil.Recovered(r); ok && recoverable(e) {
		*errp = resil.Stage("mine", e)
		return
	}
	panic(r)
}

// mergeOutcome folds one failed prefix outcome into the spec summary:
// the first failure's error, quarantined if any failure was, at the
// smallest budget any failed at.
func mergeOutcome(specs *Specs, o PrefixOutcome) {
	prev, ok := specs.Outcomes[o.Prefix]
	if !ok {
		specs.Outcomes[o.Prefix] = o
		return
	}
	prev.Quarantined = prev.Quarantined || o.Quarantined
	prev.EffectivePruneK = min(prev.EffectivePruneK, o.EffectivePruneK)
	specs.Outcomes[o.Prefix] = prev
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
