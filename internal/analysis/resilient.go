package analysis

import (
	"sort"

	"sre/internal/resil"
	"sre/internal/route"
)

// Escalation-ladder rung names, recorded per prefix in
// PrefixOutcome.Rungs in the order they were climbed.
const (
	RungAbstract    = "abstract"     // enable AS-path abstraction (§7.3)
	RungHalveBudget = "halve-budget" // halve the failure budget (PruneK)
	// RungWorkerCrash marks a prefix whose worker subprocess crashed,
	// stalled, or corrupted its result stream repeatedly in a
	// multi-process run, forcing a quarantined in-process fallback (see
	// internal/coord). It is a degradation reason, not a retry knob: the
	// fallback verifies with the originally requested options.
	RungWorkerCrash = "worker-crash"
)

// PrefixOutcome reports how one prefix of a partitioned run fared.
type PrefixOutcome struct {
	Prefix route.Prefix
	// Err is non-nil when the prefix exhausted the escalation ladder
	// and could not be verified; the rest of the run still completed.
	Err error
	// Quarantined marks prefixes whose first attempt overflowed the node
	// limit and that were retried on the ladder.
	Quarantined bool
	// Degraded marks prefixes verified with weaker settings than
	// requested (any ladder rung); Rungs lists the rungs applied.
	Degraded bool
	Rungs    []string
	// EffectivePruneK is the failure budget the prefix was actually
	// verified with; it differs from the requested budget only after
	// the halve-budget rung. Answers are then sound lower bounds for the
	// requested budget: scenarios with more failures were never explored.
	EffectivePruneK int
	// WorkerCrashes counts failed worker attempts (crash, stall,
	// corrupt frame) this prefix survived in a multi-process run before
	// converging — 0 for in-process runs and clean worker runs.
	WorkerCrashes int
}

// Partitioned is the result of an Executor run: one or more pipelines,
// each covering a subset of the requested prefixes, plus a per-prefix
// outcome map. Prefixes that could not be verified have an outcome with
// Err set and no pipeline.
type Partitioned struct {
	// Groups holds every live pipeline, in prefix order.
	Groups []*Pipeline
	// outcomes and byPrefix are keyed by the requested prefixes.
	outcomes map[route.Prefix]*PrefixOutcome
	byPrefix map[route.Prefix][]*Pipeline
	// images holds the prefixes answered through their orbit's
	// representative (Executor.Orbits).
	images map[route.Prefix]Image
}

// Imaged reports whether any prefix is answered through its orbit's
// representative.
func (pt *Partitioned) Imaged() bool { return len(pt.images) > 0 }

// Image returns how pfx is answered when the run verified its orbit's
// representative instead; ok is false for a prefix verified itself.
func (pt *Partitioned) Image(pfx route.Prefix) (img Image, ok bool) {
	img, ok = pt.images[pfx]
	return img, ok
}

// Outcome returns the outcome of a requested prefix, or nil when the
// prefix was not part of the run.
func (pt *Partitioned) Outcome(pfx route.Prefix) *PrefixOutcome {
	return pt.outcomes[pfx]
}

// Outcomes returns all per-prefix outcomes, sorted by prefix.
func (pt *Partitioned) Outcomes() []PrefixOutcome {
	out := make([]PrefixOutcome, 0, len(pt.outcomes))
	for _, o := range pt.outcomes {
		out = append(out, *o)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Prefix.Addr != out[j].Prefix.Addr {
			return out[i].Prefix.Addr < out[j].Prefix.Addr
		}
		return out[i].Prefix.Len < out[j].Prefix.Len
	})
	return out
}

// PipelinesFor returns the pipeline covering pfx — exactly one (the
// combined pipeline, the prefix's own scoped one, or its ladder retry)
// — or nil when the prefix failed or was not requested. The slice is
// the shape the cache record and the worker wire carry.
func (pt *Partitioned) PipelinesFor(pfx route.Prefix) []*Pipeline {
	return pt.byPrefix[pfx]
}

// Failed reports whether any prefix exhausted the ladder.
func (pt *Partitioned) Failed() bool {
	for _, o := range pt.outcomes {
		if o.Err != nil {
			return true
		}
	}
	return false
}

// Release frees every pipeline of the partitioned run.
func (pt *Partitioned) Release() {
	for _, p := range pt.Groups {
		p.Release()
	}
	pt.Groups = nil
	pt.byPrefix = nil
}

// LadderOptions tunes the Executor's escalation ladder.
type LadderOptions struct {
	// DisableBudgetHalving skips the halve-budget rung. The miner sets
	// it: a stratum-k verdict is only sound at budget exactly k, so
	// trading budget for memory would corrupt the stratification.
	DisableBudgetHalving bool
}

// recoverable reports whether err should trigger degradation (node
// table overflow) as opposed to aborting the run (cancellation,
// deadline, non-convergence, config errors).
func recoverable(err error) bool {
	return resil.Unwinds(err) && !resil.Interruption(err)
}
