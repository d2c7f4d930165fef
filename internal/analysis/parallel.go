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

// taskDomain is the prefix set one per-prefix task computes routes for:
// the prefix itself, closed over two dependency relations so the scoped
// pipeline forwards exactly like the combined one would inside the
// task's scope:
//
//   - overlapping originated prefixes: a covering prefix supplies the
//     longest-prefix-match fallback route when the task prefix's own
//     route is withdrawn under failures, and a covered prefix attracts
//     the more-specific slice of the scope away from the task prefix's
//     route;
//   - configured BGP aggregation: the originated contributors of any
//     aggregate in the set (so the aggregate can still be generated)
//     and any configured aggregate covering a member.
//
// Networks with disjoint prefixes and no aggregates — the common case —
// get the singleton {pfx}.
func taskDomain(net *config.Network, pfx route.Prefix) []route.Prefix {
	set := map[route.Prefix]bool{pfx: true}
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
// the precomputed escalation rungs, each rung resubmitted as a fresh
// pool task so a degraded prefix re-enters the queue behind the others —
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
	// Workers sizes the in-process pool (values below 1 mean 1). With
	// several workers Opts.Interrupt must be safe for concurrent use
	// (resil.SharedChecker.Fn).
	Workers int
	// Cache, when non-nil, is consulted once per prefix before anything
	// is scheduled (sequentially, so hits cost no pool slots and results
	// cannot depend on lookup interleaving) and published to on every
	// clean completion.
	Cache *ResultCache
	// Dispatch, when non-nil, runs the pending tasks in place of the
	// in-process pool.
	Dispatch Dispatcher
}

// Run executes domain and assembles a Partitioned: outcomes per prefix,
// pipelines in prefix order whatever the completion order. When there
// is nothing to decompose for — one worker (or one prefix), no ladder,
// no cache, no fleet — the whole domain runs as a single unscoped task
// in one space, Opts.Prefixes passed through unchanged, and the one
// pipeline covers every prefix: sharing route computation across
// prefixes beats serial scoped runs (BENCHMARK ft6_bgp_k1 vs
// ft6_store_cold). Otherwise Opts.Prefixes is ignored and each prefix
// runs scoped to its own task domain.
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
	if x.Dispatch == nil && x.Cache == nil && !x.Ladder && (x.Workers <= 1 || len(pt.outcomes) <= 1) {
		pipe, err := Run(x.Net, x.Opts)
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
	err := x.each(domain, func(pfx route.Prefix, pipes []*Pipeline, out PrefixOutcome) {
		mu.Lock()
		defer mu.Unlock()
		*pt.outcomes[pfx] = out
		pt.byPrefix[pfx] = pipes
	})
	for _, pfx := range sortedPrefixList(domain) {
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

// RunTask executes one prefix's task chain in-process, on a one-worker
// pool so the result is byte-identical to what any run produces for
// that prefix, and returns its pipelines (nil when the ladder was
// exhausted) and outcome; on an error nothing is left to release.
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
// collect. The first error that is not absorbed by the ladder aborts:
// queued prefixes are dropped and the error is returned; what collect
// already received is the caller's to release.
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
		return nil // fully warm: no pool, no fleet
	}
	// Largest first: round-robin seeding then puts the most expensive
	// prefixes at the head of every worker queue (LPT scheduling).
	sort.SliceStable(tasks, func(i, j int) bool { return tasks[i].Cost > tasks[j].Cost })
	for i := range tasks {
		tasks[i].Seq = i
	}
	if x.Dispatch != nil {
		return x.Dispatch(tasks, collect)
	}
	pool := sched.New(sched.Config{
		Workers:   x.Workers,
		Interrupt: x.Opts.Interrupt,
		Telemetry: x.Opts.Telemetry,
	})
	for _, t := range tasks {
		pool.Go(t.Cost, newPrefixJob(x, t, collect).step)
	}
	// Errors raised inside a task already carry the pipeline stage that
	// was interrupted; Stage keeps those. Only the pool's own interrupt
	// poll — between tasks — surfaces untagged, and gets "schedule".
	return resil.Stage("schedule", pool.Wait())
}

// rungAttempt is one precomputed escalation attempt. The sequence —
// including the option mutations each rung inherits from the previous
// ones — is fixed up front, so results cannot depend on scheduling
// order.
type rungAttempt struct {
	name string
	opts src.Options // opts.PruneK is the EffectivePruneK of a success
}

// prefixJob carries one prefix through its attempt chain. Each step is
// one pool task; follow-up rungs are resubmitted via Worker.Submit.
type prefixJob struct {
	Task
	x       *Executor
	collect collectFn
	domain  []route.Prefix
	out     PrefixOutcome
	rungs   []rungAttempt
	idx     int // 0 = initial attempt, i>0 = rungs[i-1]
	lastErr error
}

func newPrefixJob(x *Executor, t Task, collect collectFn) *prefixJob {
	j := &prefixJob{Task: t, x: x, collect: collect,
		domain: taskDomain(x.Net, t.Prefix),
		out:    PrefixOutcome{Prefix: t.Prefix, EffectivePruneK: x.Opts.PruneK},
	}
	if !x.Ladder {
		return j
	}
	// Option threading: Abstract sticks after rung 1 — AS-path
	// abstraction merges parallel routes, often an order-of-magnitude
	// node saving on fabrics (§7.3); halved budgets stick for later
	// rungs (results are then sound only for the smaller budget, so the
	// miner disables the rung). The ladder ends there: a task's header
	// space is already one prefix, so there is nothing left to split.
	o := x.Opts
	if !o.Abstract {
		o.Abstract = true
		j.rungs = append(j.rungs, rungAttempt{name: RungAbstract, opts: o})
	}
	if !x.Lad.DisableBudgetHalving {
		for k := o.PruneK / 2; o.PruneK > 0; k /= 2 {
			o.PruneK = k
			j.rungs = append(j.rungs, rungAttempt{name: RungHalveBudget, opts: o})
			if k == 0 {
				break
			}
		}
	}
	return j
}

// step executes the job's next attempt. A nil return means the job
// either finished (success or ladder exhausted) or resubmitted itself;
// a non-nil return aborts the pool.
func (j *prefixJob) step(w *sched.Worker) error {
	var t0 time.Time
	if w.Tel.Recording() {
		t0 = time.Now()
	}
	// The first attempt runs the requested options; attempt i > 0 runs
	// rungs[i-1] and, when it succeeds, marks the prefix degraded.
	o, outcome := j.x.Opts, "ok"
	var rung *rungAttempt
	if j.idx > 0 {
		rung = &j.rungs[j.idx-1]
		o, outcome = rung.opts, rung.name
		w.Tel.Counter("resilience.retries").Inc()
		j.out.Rungs = append(j.out.Rungs, rung.name)
		j.emit(w, fmt.Sprintf("prefix %s: retrying on rung %q", j.Prefix, rung.name))
	}
	o.Telemetry = w.Tel
	o.Prefixes = j.domain
	pipe, err := RunScoped(j.x.Net, o, j.Prefix)
	if err == nil {
		if rung != nil {
			j.out.Degraded = true
			j.out.EffectivePruneK = o.PruneK
			w.Tel.Counter("resilience.degraded").Inc()
		}
		j.record(w, t0, outcome)
		j.deliver(w, []*Pipeline{pipe})
		return nil
	}
	if !recoverable(err) || !j.x.Ladder {
		return err
	}
	if rung == nil {
		j.out.Quarantined = true
		w.Tel.Counter("resilience.quarantined").Inc()
		j.record(w, t0, "quarantined")
	} else {
		j.record(w, t0, "overflow")
	}
	j.lastErr = err
	return j.next(w)
}

// record captures one per-prefix flight-recorder event for the attempt
// started at t0: outcome is "ok", "quarantined", "overflow", "failed",
// or the degradation rung that succeeded.
func (j *prefixJob) record(w *sched.Worker, t0 time.Time, outcome string) {
	if !w.Tel.Recording() {
		return
	}
	var wall int64
	if !t0.IsZero() {
		wall = time.Since(t0).Nanoseconds()
	}
	w.Tel.Record(t0, obs.TraceEvent{Stage: "prefix", Prefix: j.Prefix.String(),
		Wall: wall, Count: int64(len(j.out.Rungs)), Outcome: outcome})
}

// next advances to the following rung, resubmitting the job, or fails
// the prefix when the ladder is exhausted.
func (j *prefixJob) next(w *sched.Worker) error {
	j.idx++
	if j.idx > len(j.rungs) {
		j.out.Err = j.lastErr
		w.Tel.Counter("resilience.failed").Inc()
		j.record(w, time.Time{}, "failed")
		j.emit(w, fmt.Sprintf("prefix %s: failed after %d rungs: %v", j.Prefix, len(j.out.Rungs), j.lastErr))
		j.deliver(w, nil)
		return nil
	}
	w.Submit(j.Cost, j.step)
	return nil
}

func (j *prefixJob) deliver(w *sched.Worker, pipes []*Pipeline) {
	// In-process producers publish without a telemetry shard: their
	// counters already live in the run's own registry.
	j.x.Cache.Publish(j.x.Net, j.Key, j.Prefix, pipes, j.out, nil)
	j.collect(j.Prefix, pipes, j.out)
}

func (j *prefixJob) emit(w *sched.Worker, detail string) {
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
