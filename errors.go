package sre

import (
	"fmt"
	"runtime/debug"

	"sre/internal/obs"
	"sre/internal/resil"
)

// Typed errors of the resilient runtime. Match them with errors.Is; the
// concrete error usually also carries the interrupted pipeline stage,
// readable with ErrStage.
var (
	// ErrCanceled is returned when Options.Context is canceled mid-run.
	// Cancellation is cooperative: the pipeline polls the context from
	// its inner loops, so a run aborts within one polling interval.
	ErrCanceled = resil.ErrCanceled
	// ErrDeadline is returned when Options.Timeout (or the context's
	// own deadline) expires mid-run.
	ErrDeadline = resil.ErrDeadline
	// ErrNoConvergence is returned when the symbolic (or simulated)
	// control plane does not reach a fixed point within its iteration
	// bound; the error message names the oscillating routers.
	ErrNoConvergence = resil.ErrNoConvergence
	// ErrInternal is returned when an internal panic was caught at the
	// public API boundary instead of crashing the caller's process. It
	// always indicates a defect in this package; the error message
	// carries the panic value and a stack trace.
	ErrInternal = resil.ErrInternal
)

// ErrStage returns the pipeline stage an error interrupted — "src"
// (symbolic route computation), "spf" (symbolic packet forwarding),
// "analysis", "mine", "sim", "diff", "verify" — or "" when the error
// carries no stage tag.
func ErrStage(err error) string { return resil.StageOf(err) }

// guard is the panic firewall installed (via defer) at every public API
// entry point. BDD node-table overflows and cooperative interruptions
// travel as panics through deep recursion for cheapness; guard converts
// them back to their typed errors. Anything else is a defect: it is
// converted to ErrInternal with the panic value and stack attached, and
// counted on the resilience.panics telemetry counter, so one poisoned
// query cannot crash a process that has other work to finish.
func guard(stage string, tel *obs.Telemetry, errp *error) {
	r := recover()
	if r == nil {
		return
	}
	if e, ok := resil.Recovered(r); ok {
		*errp = resil.Stage(stage, e)
		return
	}
	tel.Counter("resilience.panics").Inc()
	*errp = &resil.StageError{Stage: stage,
		Err: fmt.Errorf("%w: panic: %v\n%s", resil.ErrInternal, r, debug.Stack())}
}
