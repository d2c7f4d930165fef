package analysis

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"sre/internal/config"
	"sre/internal/obs"
	"sre/internal/resil"
	"sre/internal/route"
	"sre/internal/sched"
	"sre/internal/src"
	"sre/internal/symmetry"
)

// Workers resolves the effective worker count of opts.Parallelism:
// positive values verbatim, 0 the runtime default.
func Workers(opts src.Options) int {
	if opts.Parallelism > 0 {
		return opts.Parallelism
	}
	return sched.DefaultWorkers()
}

// PrefixCost estimates the relative analysis cost of one prefix: the
// sum of its origin routers' degrees (origin-set size × mean topology
// degree). More origins and denser attachment points mean more routes,
// more ECMP tiers, and bigger PFEC predicates; the estimate only needs
// to rank prefixes so the scheduler starts the long poles first.
func PrefixCost(net *config.Network, pfx route.Prefix) int64 {
	t := net.Topology
	cost := int64(0)
	for _, o := range net.OriginsOf(pfx) {
		cost += int64(len(t.Neighbors(o)))
	}
	if cost == 0 {
		cost = 1
	}
	return cost
}

// taskDomain is the prefix set a run over prefixes computes routes for:
// the prefixes themselves, closed over two dependency relations so a
// restricted pipeline forwards exactly like an unrestricted one would
// for them:
//
//   - overlapping originated prefixes: a covering prefix supplies the
//     longest-prefix-match fallback route when a member's own route is
//     withdrawn under failures, and a covered prefix attracts the
//     more-specific slice of the member's headers away from its route;
//   - configured BGP aggregation: the originated contributors of any
//     aggregate in the set (so the aggregate can still be generated)
//     and any configured aggregate covering a member.
//
// Networks with disjoint prefixes and no aggregates — the common case —
// get the prefixes back, sorted. A per-prefix task's domain is the
// closure of its one prefix.
func taskDomain(net *config.Network, prefixes ...route.Prefix) []route.Prefix {
	set := make(map[route.Prefix]bool, len(prefixes))
	for _, p := range prefixes {
		set[p] = true
	}
	all := net.AllPrefixes()
	for changed := true; changed; {
		changed = false
		for p := range set {
			for _, other := range all {
				if !set[other] && p.Overlaps(other) {
					set[other] = true
					changed = true
				}
			}
			if changed {
				break // set mutated: restart iteration
			}
		}
		for _, rc := range net.Routers {
			if rc.BGP == nil {
				continue
			}
			for _, agg := range rc.BGP.Aggregates {
				covers := set[agg]
				for p := range set {
					if agg.Covers(p) && p != agg {
						covers = true
					}
				}
				if !covers {
					continue
				}
				if !set[agg] {
					set[agg] = true
					changed = true
				}
				for _, contrib := range all {
					if agg.Covers(contrib) && contrib != agg && !set[contrib] {
						set[contrib] = true
						changed = true
					}
				}
			}
		}
	}
	return sortedPrefixes(set)
}

// Task is one pending prefix task: what is left of a run's domain after
// deduplication and the cache pass, in dispatch order.
type Task struct {
	// Seq is the task's index in the cost-ordered dispatch sequence. It
	// is stable across runs (for a given store state), so fault plans
	// keyed by it hit the same prefixes every time.
	Seq    int
	Prefix route.Prefix
	Cost   int64  // PrefixCost estimate: largest first (LPT)
	Key    string // cache key; "" when the run carries no cache
}

// collectFn receives each finished prefix: its pipeline (a one-element
// slice, the shape records and worker frames carry; nil when the ladder
// was exhausted) and outcome. It is called from worker
// goroutines and must synchronize its own shared state; per-task work
// (evaluating properties on the delivered pipeline) should happen
// inside it, off any global lock.
type collectFn = func(pfx route.Prefix, pipes []*Pipeline, out PrefixOutcome)

// Dispatcher runs pending tasks somewhere other than the in-process
// pool; internal/coord supplies the subprocess fleet. It reports every
// finished prefix through done — whose pipelines the executor owns from
// then on — and returns the first error that must abort the run.
type Dispatcher func(tasks []Task, done func(pfx route.Prefix, pipes []*Pipeline, out PrefixOutcome)) error

// Executor is the one way to run a set of prefixes: dedupe, look each
// prefix up in the cache, estimate costs and order what is left largest
// first, run each task — a scoped singleton pipeline, then (with Ladder)
// the precomputed escalation rungs in turn, inside the same task —
// publish, and assemble the results in prefix order. Everything that
// distinguishes a sharded, resilient, cached or multi-process run is a
// field.
type Executor struct {
	Net  *config.Network
	Opts src.Options
	// Ladder escalates recoverable overflows instead of aborting; Lad
	// tunes the rungs.
	Ladder bool
	Lad    LadderOptions
	// Workers sizes the in-process scheduler (values below 1 mean 1).
	// With several workers Opts.Interrupt must be safe for concurrent use
	// (resil.SharedChecker.Fn).
	Workers int
	// Cache, when non-nil, is consulted once per prefix before anything
	// is scheduled (sequentially, so hits cost no worker and results
	// cannot depend on lookup interleaving) and published to on every
	// clean completion.
	Cache *ResultCache
	// Dispatch, when non-nil, runs the pending tasks in place of the
	// in-process scheduler.
	Dispatch Dispatcher
	// Orbits, when non-nil, are the prefix orbits of Net's symmetries
	// (symmetry.Find). Where they apply (OrbitsApply) the run verifies
	// one representative per orbit and answers the other members
	// through it (Partitioned.Image).
	Orbits *symmetry.Orbits
}

// Run executes domain and assembles a Partitioned: outcomes per prefix,
// pipelines in prefix order whatever the completion order. When there
// is nothing to decompose for — one worker (or one prefix), no ladder,
// no cache, no fleet — the whole domain runs as a single unscoped task
// in one space and the one pipeline covers every prefix. A non-nil
// Opts.Prefixes is then closed over its dependencies (taskDomain), so
// restricting a run never drops the routes its answers depend on.
// Otherwise Opts.Prefixes is ignored and each prefix runs scoped to its
// own task domain.
//
// With Orbits, only each orbit's representative — its smallest member
// in domain — is verified: the combined branch runs over the
// representatives' task domain, and the per-prefix branch looks up,
// runs, publishes and dispatches representatives alone. Every other
// member gets its representative's outcome and pipeline and an Image
// that renames its queries onto them. Which branch runs is decided by
// the whole domain, so a member is reported as the run without orbits
// would report it.
//
// The combined branch is not the faster one everywhere. At P=1, serial
// scoped runs (NewVerifier with this branch bypassed) verify FatTree(6)
// in 0.56–0.64 s against 0.64–0.77 s combined, and Bics in 0.78–0.94 s
// against 1.32–1.37 s. It earns its place on Campus(200), where scoped
// runs take 2.5–3.4 s against 0.40–0.48 s combined, and in memory:
// Bics' scoped runs peak at 1.18 M nodes summed against 0.46 M. ROADMAP
// item 5 would run every setting through the per-prefix path, once a
// worker keeps one manager across its tasks.
//
// The run completes with per-prefix outcomes unless it is canceled,
// times out, or hits an error the ladder does not absorb; then every
// pipeline collected so far is released and the error returned.
// Telemetry counters: resilience.retries (rung attempts),
// resilience.quarantined (prefixes that overflowed their first
// attempt), resilience.degraded (verified on a rung), resilience.failed
// (ladder exhausted).
func (x *Executor) Run(domain []route.Prefix) (*Partitioned, error) {
	pt := &Partitioned{
		outcomes: make(map[route.Prefix]*PrefixOutcome, len(domain)),
		byPrefix: make(map[route.Prefix][]*Pipeline, len(domain)),
	}
	for _, pfx := range domain {
		pt.outcomes[pfx] = &PrefixOutcome{Prefix: pfx, EffectivePruneK: x.Opts.PruneK}
	}
	reps, images := x.representatives(domain)
	pt.images = images
	if x.Dispatch == nil && x.Cache == nil && !x.Ladder && (x.Workers <= 1 || len(pt.outcomes) <= 1) {
		opts := x.Opts
		if opts.Prefixes != nil || images != nil {
			opts.Prefixes = taskDomain(x.Net, reps...)
		}
		pipe, err := Run(x.Net, opts)
		if err != nil {
			return nil, err
		}
		pt.Groups = []*Pipeline{pipe}
		for pfx := range pt.outcomes {
			pt.byPrefix[pfx] = pt.Groups
		}
		return pt, nil
	}
	if len(domain) == 0 {
		return nil, fmt.Errorf("analysis: a per-prefix run needs at least one prefix")
	}
	var mu sync.Mutex
	err := x.each(reps, func(pfx route.Prefix, pipes []*Pipeline, out PrefixOutcome) {
		mu.Lock()
		defer mu.Unlock()
		*pt.outcomes[pfx] = out
		pt.byPrefix[pfx] = pipes
	})
	for pfx, img := range images {
		out := *pt.outcomes[img.Rep]
		out.Prefix = pfx
		*pt.outcomes[pfx] = out
		pt.byPrefix[pfx] = pt.byPrefix[img.Rep]
	}
	for _, pfx := range sortedPrefixList(reps) {
		pipes := pt.byPrefix[pfx]
		// Every producer — a task's last attempt, a cache record, a fleet
		// worker — makes exactly one pipeline for a verified prefix and
		// none for a failed one; queries take it without looking for
		// siblings.
		if verified := pt.outcomes[pfx].Err == nil; err == nil && verified != (len(pipes) == 1) {
			err = fmt.Errorf("%w: prefix %s delivered %d pipelines (outcome error: %v)",
				resil.ErrInternal, pfx, len(pipes), pt.outcomes[pfx].Err)
		}
		pt.Groups = append(pt.Groups, pipes...)
	}
	if err != nil {
		pt.Release()
		return nil, err
	}
	return pt, nil
}

// RunTask executes one prefix's task in-process, on one worker so the
// result is byte-identical to what any run produces for that prefix,
// and returns its pipelines (nil when the ladder was exhausted) and
// outcome; on an error nothing is left to release.
func (x *Executor) RunTask(pfx route.Prefix) (pipes []*Pipeline, out PrefixOutcome, err error) {
	one := *x
	one.Workers, one.Dispatch = 1, nil
	err = one.each([]route.Prefix{pfx}, func(_ route.Prefix, p []*Pipeline, o PrefixOutcome) {
		pipes, out = p, o
	})
	if err != nil {
		for _, p := range pipes {
			p.Release()
		}
		return nil, out, err
	}
	return pipes, out, nil
}

// each runs every distinct prefix of domain and hands the results to
// collect. The first error that is not absorbed by the ladder stops the
// run: unclaimed prefixes are dropped and the error is returned; what
// collect already received is the caller's to release.
func (x *Executor) each(domain []route.Prefix, collect collectFn) error {
	tasks := make([]Task, 0, len(domain))
	seen := make(map[route.Prefix]bool, len(domain))
	for _, pfx := range domain {
		if seen[pfx] {
			continue
		}
		seen[pfx] = true
		t := Task{Prefix: pfx}
		if x.Cache != nil {
			t.Key = CacheKey(x.Net, x.Opts, pfx, x.Ladder, x.Lad)
			pipes, out, hit, err := x.Cache.Lookup(x.Net, x.Opts, t.Key, pfx, x.Opts.Telemetry)
			if err != nil {
				return err
			}
			if hit {
				collect(pfx, pipes, out)
				continue
			}
		}
		// Costs are estimated only for prefixes that need computing: on a
		// warm store most resolve above.
		t.Cost = PrefixCost(x.Net, pfx)
		tasks = append(tasks, t)
	}
	if len(tasks) == 0 {
		return nil // fully warm: no scheduler, no fleet
	}
	// Largest first: workers claim in list order, so the most expensive
	// prefixes start first (LPT scheduling).
	sort.SliceStable(tasks, func(i, j int) bool { return tasks[i].Cost > tasks[j].Cost })
	for i := range tasks {
		tasks[i].Seq = i
	}
	if x.Dispatch != nil {
		return x.Dispatch(tasks, collect)
	}
	rungs := x.rungs()
	work := make([]sched.Task, len(tasks))
	for i, t := range tasks {
		work[i] = sched.Task{Cost: t.Cost, Run: func(w *sched.Worker) error {
			return x.runPrefix(w, t, rungs, collect)
		}}
	}
	// Errors raised inside a task already carry the pipeline stage that
	// was interrupted; Stage keeps those. Only the scheduler's own
	// interrupt poll — between tasks — surfaces untagged, and gets
	// "schedule".
	return resil.Stage("schedule", sched.Run(sched.Config{
		Workers:   x.Workers,
		Interrupt: x.Opts.Interrupt,
		Telemetry: x.Opts.Telemetry,
	}, work))
}

// rungAttempt is one precomputed escalation attempt. The sequence —
// including the option mutations each rung inherits from the previous
// ones — is fixed up front, so results cannot depend on scheduling
// order.
type rungAttempt struct {
	name string
	opts src.Options // opts.PruneK is the EffectivePruneK of a success
}

// rungs is the run's escalation ladder: none without Ladder. Option
// threading: Abstract sticks after rung 1 — AS-path abstraction merges
// parallel routes, often an order-of-magnitude node saving on fabrics
// (§7.3); halved budgets stick for later rungs (results are then sound
// only for the smaller budget, so the miner disables the rung). The
// ladder ends there: a task's header space is already one prefix, so
// there is nothing left to split.
func (x *Executor) rungs() []rungAttempt {
	if !x.Ladder {
		return nil
	}
	var rungs []rungAttempt
	o := x.Opts
	if !o.Abstract {
		o.Abstract = true
		rungs = append(rungs, rungAttempt{name: RungAbstract, opts: o})
	}
	if !x.Lad.DisableBudgetHalving {
		for k := o.PruneK / 2; o.PruneK > 0; k /= 2 {
			o.PruneK = k
			rungs = append(rungs, rungAttempt{name: RungHalveBudget, opts: o})
			if k == 0 {
				break
			}
		}
	}
	return rungs
}

// runPrefix carries one prefix through its attempts: the requested
// options, then each rung in turn until one verifies. It delivers the
// prefix — verified, or failed once the ladder is exhausted — and
// returns only the errors the ladder does not absorb, which stop the
// run.
func (x *Executor) runPrefix(w *sched.Worker, t Task, rungs []rungAttempt, collect collectFn) error {
	out := PrefixOutcome{Prefix: t.Prefix, EffectivePruneK: x.Opts.PruneK}
	domain := taskDomain(x.Net, t.Prefix)
	var pipes []*Pipeline
	var err error
	for i := 0; pipes == nil && i <= len(rungs); i++ {
		var t0 time.Time
		if w.Tel.Recording() {
			t0 = time.Now()
		}
		// The first attempt runs the requested options; attempt i > 0 runs
		// rungs[i-1] and, when it succeeds, marks the prefix degraded.
		o, outcome := x.Opts, "ok"
		if i > 0 {
			o, outcome = rungs[i-1].opts, rungs[i-1].name
			w.Tel.Counter("resilience.retries").Inc()
			out.Rungs = append(out.Rungs, outcome)
			emitResilience(w, fmt.Sprintf("prefix %s: retrying on rung %q", t.Prefix, outcome))
		}
		o.Telemetry = w.Tel
		o.Prefixes = domain
		var pipe *Pipeline
		pipe, err = RunScoped(x.Net, o, t.Prefix)
		switch {
		case err == nil:
			if i > 0 {
				out.Degraded = true
				out.EffectivePruneK = o.PruneK
				w.Tel.Counter("resilience.degraded").Inc()
			}
			recordPrefix(w, t0, &out, outcome)
			pipes = []*Pipeline{pipe}
		case !recoverable(err) || !x.Ladder:
			return err
		case i == 0:
			out.Quarantined = true
			w.Tel.Counter("resilience.quarantined").Inc()
			recordPrefix(w, t0, &out, "quarantined")
		default:
			recordPrefix(w, t0, &out, "overflow")
		}
	}
	if pipes == nil {
		out.Err = err
		w.Tel.Counter("resilience.failed").Inc()
		recordPrefix(w, time.Time{}, &out, "failed")
		emitResilience(w, fmt.Sprintf("prefix %s: failed after %d rungs: %v", t.Prefix, len(out.Rungs), err))
	}
	// In-process producers publish without a telemetry shard: their
	// counters already live in the run's own registry.
	x.Cache.Publish(x.Net, t.Key, t.Prefix, pipes, out)
	collect(t.Prefix, pipes, out)
	return nil
}

// recordPrefix captures one per-prefix flight-recorder event for the
// attempt started at t0: outcome is "ok", "quarantined", "overflow",
// "failed", or the degradation rung that succeeded.
func recordPrefix(w *sched.Worker, t0 time.Time, out *PrefixOutcome, outcome string) {
	if !w.Tel.Recording() {
		return
	}
	var wall int64
	if !t0.IsZero() {
		wall = time.Since(t0).Nanoseconds()
	}
	w.Tel.Record(t0, obs.TraceEvent{Stage: "prefix", Prefix: out.Prefix.String(),
		Wall: wall, Count: int64(len(out.Rungs)), Outcome: outcome})
}

func emitResilience(w *sched.Worker, detail string) {
	if w.Tel.Active() {
		w.Tel.Emit(obs.Event{Stage: "resilience", Detail: detail})
	}
}

// RunSharded is the Executor without ladder or cache: the first error
// (including node-table overflow) aborts the run. The returned
// Partitioned has clean outcomes and, at several workers, one scoped
// pipeline per prefix in prefix order.
func RunSharded(net *config.Network, opts src.Options, prefixes []route.Prefix, workers int) (*Partitioned, error) {
	x := Executor{Net: net, Opts: opts, Workers: workers}
	return x.Run(prefixes)
}

// RunPartitionedCached is the resilient Executor at opts.Parallelism
// workers: every prefix runs as its own scoped pipeline and overflowing
// prefixes climb the ladder. cache may be nil.
func RunPartitionedCached(net *config.Network, opts src.Options, prefixes []route.Prefix, lad LadderOptions, cache *ResultCache) (*Partitioned, error) {
	x := Executor{Net: net, Opts: opts, Ladder: true, Lad: lad, Workers: Workers(opts), Cache: cache}
	return x.Run(prefixes)
}

// sortedPrefixList returns a deduplicated copy of prefixes in canonical
// (Addr, Len) order.
func sortedPrefixList(prefixes []route.Prefix) []route.Prefix {
	set := make(map[route.Prefix]bool, len(prefixes))
	for _, p := range prefixes {
		set[p] = true
	}
	return sortedPrefixes(set)
}
