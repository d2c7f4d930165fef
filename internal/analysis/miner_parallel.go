package analysis

import (
	"fmt"
	"sync"

	"sre/internal/bdd"
	"sre/internal/obs"
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
// are evaluated in-task against its own pipelines — then the pipelines
// are released immediately, so stratum peak memory is bounded by the
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
			if out.Err != nil {
				// The prefix exhausted the ladder at this stratum. Its
				// pairs survived stratum k-1, so k-1 is a sound lower
				// bound; record it and mark them degraded.
				mu.Lock()
				defer mu.Unlock()
				for _, pe := range pairs {
					specs.ReachTolerance[pe.key] = k - 1
					specs.DegradedPairs[pe.key] = true
					if mn.Waypoint != nil && !pe.waypointDone {
						specs.WaypointTolerance[pe.key] = k - 1
					}
					delete(undecided, pe.key)
					telDecided.Inc()
				}
				mergeOutcome(specs, out)
				pairDone += len(pairs)
				emitProgress(pairDone)
				return
			}

			// Evaluate off the lock: the pipelines are task-local.
			type decision struct {
				pe          pairEval
				violated    bool
				reachEmpty  bool
				waypointTol int // k-1 when decided here, else sentinel
				loadBalance int
			}
			const wpUndecided = InfiniteTolerance
			budgets := make(map[*Pipeline]bdd.Node, len(pipes))
			budgetOf := func(p *Pipeline) bdd.Node {
				b, ok := budgets[p]
				if !ok {
					b = p.Sp.AtMostKLinkFailures(k)
					budgets[p] = b
				}
				return b
			}
			decisions := make([]decision, 0, len(pairs))
			for _, pe := range pairs {
				d := decision{pe: pe, reachEmpty: true, waypointTol: wpUndecided}
				wpDone := pe.waypointDone
				for _, pipe := range pipes {
					m := pipe.Sp.M
					budget := budgetOf(pipe)
					hdr := pipe.OwnedHeaders(pe.key.Prefix)
					dst := pipe.OriginSet(pe.key.Prefix)
					prop := pipe.ReachBDD(pe.key.Src, dst, hdr)
					if prop != bdd.False {
						d.reachEmpty = false
					}
					if m.Diff(m.And(hdr, budget), prop) != bdd.False {
						d.violated = true
					}
					if mn.Waypoint != nil && !wpDone {
						if w, ok := mn.Waypoint(pe.key.Src, pe.key.Prefix); ok {
							wprop := pipe.WaypointBDD(pe.key.Src, dst, w, hdr)
							if m.Diff(m.And(hdr, budget), wprop) != bdd.False {
								d.waypointTol = k - 1
								wpDone = true
							}
						}
					}
				}
				if !d.violated && k == 0 {
					for _, pipe := range pipes {
						dst := pipe.OriginSet(pe.key.Prefix)
						if n := pipe.LoadBalancePaths(pe.key.Src, dst, pipe.OwnedHeaders(pe.key.Prefix)); n > d.loadBalance {
							d.loadBalance = n
						}
					}
				}
				decisions = append(decisions, d)
			}
			for _, p := range pipes {
				p.Release()
			}

			mu.Lock()
			defer mu.Unlock()
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
					continue
				}
				if k == 0 {
					if d.loadBalance > specs.LoadBalance[d.pe.key] {
						specs.LoadBalance[d.pe.key] = d.loadBalance
					}
				}
			}
			if out.Quarantined || out.Degraded {
				mergeOutcome(specs, out)
			}
			pairDone += len(pairs)
			emitProgress(pairDone)
		})
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
			for _, key := range byPfx[pfx] {
				if len(pipes) == 0 {
					continue // prefix failed: isolation cannot be confirmed
				}
				isolated := true
				for _, pipe := range pipes {
					if pipe.ReachBDD(key.Src, pipe.OriginSet(key.Prefix), pipe.OwnedHeaders(key.Prefix)) != bdd.False {
						isolated = false
						break
					}
				}
				if isolated {
					isolatedKeys = append(isolatedKeys, key)
				}
			}
			for _, p := range pipes {
				p.Release()
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
