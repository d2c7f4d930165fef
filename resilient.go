package sre

import (
	"fmt"
	"slices"

	"sre/internal/analysis"
	"sre/internal/route"
)

// PrefixOutcome reports how one prefix of a resilient run fared: whether
// it was quarantined after a node-table overflow, which degradation
// rungs it was retried on, and the error when the ladder was exhausted.
type PrefixOutcome = analysis.PrefixOutcome

// Degradation-ladder rung names recorded in PrefixOutcome.Rungs.
const (
	RungHalveBudget = analysis.RungHalveBudget
	// RungWorkerCrash marks a prefix of a multi-process run that
	// exhausted its worker attempts and was re-verified in-process. It
	// attributes the crashes; the fallback ran the originally requested
	// options, so the prefix's results are exact.
	RungWorkerCrash = analysis.RungWorkerCrash
)

// Outcomes returns the per-prefix outcomes of a resilient run, sorted by
// prefix. It returns nil for verifiers built without Options.Resilient.
// The slice is the caller's own.
func (v *Verifier) Outcomes() []PrefixOutcome {
	if !v.resilient {
		return nil
	}
	return slices.Clone(v.outcomes)
}

// Degraded reports whether any prefix of a resilient run was verified
// with weaker settings than requested, or failed outright. Callers that
// need exact results under the original options should treat a degraded
// run as partial.
func (v *Verifier) Degraded() bool {
	if !v.resilient {
		return false
	}
	for _, o := range v.outcomes {
		if o.Degraded || o.Err != nil {
			return true
		}
	}
	return false
}

// CrashDegraded reports whether any prefix of a multi-process run
// (Options.Workers > 0) exhausted its worker attempts and fell back to
// in-process verification. Unlike Degraded it is not gated on
// Options.Resilient: crash attribution matters even when the fallback
// verified the prefix exactly. `sre` exits with status 3 when this is
// the only blemish on an otherwise successful run.
func (v *Verifier) CrashDegraded() bool {
	for _, o := range v.outcomes {
		for _, r := range o.Rungs {
			if r == RungWorkerCrash {
				return true
			}
		}
	}
	return false
}

// pipeFor returns the pipeline that answers queries over pfx: the
// combined pipeline, the prefix's own scoped one, or its ladder retry.
// Prefixes that exhausted the degradation ladder, or were never part of
// the run (outside Options.Prefixes), yield an error.
func (v *Verifier) pipeFor(pfx route.Prefix) (*analysis.Pipeline, error) {
	if o := v.part.Outcome(pfx); o != nil && o.Err != nil {
		return nil, fmt.Errorf("sre: prefix %s could not be verified (degradation ladder exhausted): %w", pfx, o.Err)
	}
	pipes := v.part.PipelinesFor(pfx)
	if len(pipes) == 0 {
		return nil, fmt.Errorf("sre: prefix %s was not part of this run", pfx)
	}
	return pipes[0], nil
}

// exploredBound caps a "never happens" tolerance at what the run
// explored. Isolation-style queries report InfiniteTolerance when no
// explored scenario lets traffic through; after the halve-budget rung
// the scenarios between the effective and the requested budget were
// never explored, so the sound answer is the effective budget — a lower
// bound. (Reach and waypoint tolerances need no such cap: unexplored
// scenarios already count as violations there.)
func (v *Verifier) exploredBound(pfx route.Prefix, k int) int {
	if o := v.part.Outcome(pfx); k == InfiniteTolerance && o != nil && slices.Contains(o.Rungs, RungHalveBudget) {
		return o.EffectivePruneK
	}
	return k
}

// PrefixResult is one prefix's entry in a per-prefix query sweep: the
// measured value, or the error that prevented measuring it, plus the
// resilience flags of the prefix's outcome when the verifier ran in
// resilient mode.
type PrefixResult struct {
	Prefix string
	// Value is the measured tolerance; meaningful only when Err is nil.
	Value int
	// Err is set when the prefix could not be evaluated (quarantined
	// past the ladder, not originated, ...). Other prefixes in the same
	// sweep still carry results.
	Err error
	// Degraded/Quarantined/Rungs mirror the prefix's PrefixOutcome.
	Degraded    bool
	Quarantined bool
	Rungs       []string
}

// FailureTolerances sweeps FailureTolerance from srcRouter over every
// analyzed prefix. Unlike calling FailureTolerance in a loop, the sweep
// degrades gracefully: a prefix that failed verification contributes a
// PrefixResult with Err set instead of aborting the sweep, so partial
// results survive resource exhaustion on individual prefixes.
func (v *Verifier) FailureTolerances(srcRouter string) ([]PrefixResult, error) {
	s, ok := v.net.Topology.RouterByName(srcRouter)
	if !ok {
		return nil, fmt.Errorf("sre: unknown router %q", srcRouter)
	}
	out := make([]PrefixResult, 0, len(v.outcomes))
	for _, o := range v.outcomes {
		pr := PrefixResult{Prefix: o.Prefix.String(),
			Degraded: o.Degraded, Quarantined: o.Quarantined, Rungs: o.Rungs}
		pr.Value, pr.Err = v.reachTolerance(s, o.Prefix)
		out = append(out, pr)
	}
	return out, nil
}
