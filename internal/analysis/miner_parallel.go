package analysis

import (
	"fmt"
	"sync"

	"sre/internal/bdd"
	"sre/internal/obs"
	"sre/internal/resil"
	"sre/internal/route"
	"sre/internal/src"
)

// pairEval is one undecided pair of a stratum with the per-key state
// snapshotted before the pool starts, so worker-side evaluation never
// reads the shared spec maps.
type pairEval struct {
	key PairKey
	// waypointDone records whether the pair's waypoint tolerance was
	// already decided in an earlier stratum.
	waypointDone bool
}

// mineStratumPerPrefix runs one mining stratum on a worker pool: each
// prefix with undecided pairs becomes a task chain (scoped singleton
// pipeline, plus ladder rungs when resilient), and the prefix's pairs
// are evaluated in-task against its own pipeline — which is then
// released immediately, so stratum peak memory is bounded by the
// in-flight tasks instead of the whole domain. Decisions are committed
// to the spec maps under one mutex; since every pair belongs to
// exactly one prefix, results are independent of completion order.
//
// The miner's Waypoint selector, when set, is called from worker
// goroutines and must be safe for concurrent use.
func (mn *Miner) mineStratumPerPrefix(specs *Specs, undecided map[PairKey]bool,
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
	emitProgress := func(done int) {
		if tel.Active() {
			tel.Emit(obs.Event{Stage: "mine",
				Done: int64(done), Total: int64(pairTotal), Unit: "pairs",
				Detail: fmt.Sprintf("stratum %d", k), Final: done == pairTotal})
		}
	}

	x := mn.executor(opts, workers)
	return x.each(domain,
		func(pfx route.Prefix, pipes []*Pipeline, out PrefixOutcome) {
			pairs := byPfx[pfx]
			var decisions []pairDecision
			if out.Err == nil {
				// Evaluate off the lock: the prefix's one pipeline is task-local.
				decisions, out.Err = mn.decidePairs(pipes[0], pairs, k)
			}
			mu.Lock()
			defer mu.Unlock()
			if out.Err != nil {
				// The prefix exhausted the ladder at this stratum (or its
				// queries overflowed the verified pipeline). Its pairs
				// survived stratum k-1, so k-1 is a sound lower bound;
				// record it and mark them degraded.
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
				// A weaker rung may find violations the exact run does not:
				// what it decides is only a lower bound.
				if out.Degraded && (d.violated || d.waypointTol != wpUndecided) {
					specs.DegradedPairs[d.pe.key] = true
				}
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
			if out.Quarantined || out.Degraded || out.Err != nil {
				mergeOutcome(specs, out)
			}
			pairDone += len(pairs)
			emitProgress(pairDone)
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
// verified pipeline, then releases it. In a resilient mine, a node-table
// overflow raised by the queries themselves is returned as the error
// that fails the prefix at this stratum, like an exhausted ladder.
func (mn *Miner) decidePairs(pipe *Pipeline, pairs []pairEval, k int) (_ []pairDecision, err error) {
	defer pipe.Release()
	if mn.Resilient {
		defer guardOverflow(&err)
	}
	decisions := make([]pairDecision, 0, len(pairs))
	m := pipe.Sp.M
	budget := pipe.Sp.AtMostKLinkFailures(k)
	for _, pe := range pairs {
		d := pairDecision{pe: pe, waypointTol: wpUndecided}
		hdr := pipe.OwnedHeaders(pe.key.Prefix)
		dst := pipe.OriginSet(pe.key.Prefix)
		prop := pipe.ReachBDD(pe.key.Src, dst, hdr)
		d.reachEmpty = prop == bdd.False
		d.violated = m.Diff(m.And(hdr, budget), prop) != bdd.False
		if mn.Waypoint != nil && !pe.waypointDone {
			if w, ok := mn.Waypoint(pe.key.Src, pe.key.Prefix); ok {
				wprop := pipe.WaypointBDD(pe.key.Src, dst, w, hdr)
				if m.Diff(m.And(hdr, budget), wprop) != bdd.False {
					d.waypointTol = k - 1
				}
			}
		}
		if !d.violated && k == 0 {
			d.loadBalance = pipe.LoadBalancePaths(pe.key.Src, dst, hdr)
		}
		decisions = append(decisions, d)
	}
	return decisions, nil
}

// confirmIsolationPerPrefix re-checks isolation candidates at the full
// budget, one scoped pipeline per candidate prefix on the pool. The
// final Isolated order is fixed by Mine's sort, not completion order.
func (mn *Miner) confirmIsolationPerPrefix(specs *Specs, candidates []PairKey, workers int) error {
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
	x := mn.executor(opts, workers)
	err := x.each(domain,
		func(pfx route.Prefix, pipes []*Pipeline, out PrefixOutcome) {
			var isolatedKeys []PairKey
			if out.Err == nil { // a failed prefix cannot confirm isolation
				isolatedKeys, out.Err = mn.isolatedPairs(pipes[0], byPfx[pfx])
			}
			mu.Lock()
			defer mu.Unlock()
			specs.Isolated = append(specs.Isolated, isolatedKeys...)
			if out.Quarantined || out.Degraded || out.Err != nil {
				mergeOutcome(specs, out)
			}
		})
	if err != nil {
		return fmt.Errorf("isolation confirmation: %w", err)
	}
	return nil
}

// isolatedPairs returns the candidates pipe confirms isolated, then
// releases it; overflowing queries fail the prefix like decidePairs.
func (mn *Miner) isolatedPairs(pipe *Pipeline, candidates []PairKey) (_ []PairKey, err error) {
	defer pipe.Release()
	if mn.Resilient {
		defer guardOverflow(&err)
	}
	var isolated []PairKey
	for _, key := range candidates {
		if pipe.ReachBDD(key.Src, pipe.OriginSet(key.Prefix), pipe.OwnedHeaders(key.Prefix)) == bdd.False {
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
	if e, ok := r.(error); ok && recoverable(e) {
		*errp = resil.Stage("mine", e)
		return
	}
	panic(r)
}

// executor is the miner's per-stratum Executor: the ladder on when
// resilient, never halving the budget — a stratum-k verdict is only
// sound at budget exactly k.
func (mn *Miner) executor(opts src.Options, workers int) Executor {
	return Executor{Net: mn.Net, Opts: opts, Workers: workers,
		Ladder: mn.Resilient, Lad: LadderOptions{DisableBudgetHalving: true}}
}

// stratumWorkers resolves the pool size of the miner's per-stratum
// runs: SrcOpts.Parallelism, defaulting to the runtime's CPU count.
// One-shot mining (DisablePrefixPruning) stays sequential — it exists
// to benchmark the undecomposed pipeline.
func (mn *Miner) stratumWorkers() int {
	if mn.DisablePrefixPruning {
		return 1
	}
	return Workers(mn.SrcOpts)
}
