// Package resil holds the resilience primitives shared across the
// verification pipeline: typed interruption errors (cancellation,
// deadline expiry, non-convergence, internal faults), stage-tagged
// error wrapping, and a context/deadline checker cheap enough to poll
// from BDD apply loops and per-router iterations on every worker.
//
// The package deliberately has no dependencies beyond the standard
// library so every layer — BDD manager, control plane, data plane,
// analysis, facade — can import it without cycles.
package resil

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// Sentinel errors of the resilient runtime. Callers match them with
// errors.Is; the concrete error in a result chain usually wraps one of
// these with stage and router context (see StageError).
var (
	// ErrCanceled reports that the run's context was canceled.
	ErrCanceled = errors.New("run canceled")
	// ErrDeadline reports that the run exceeded its wall-clock budget
	// (Options.Timeout or a context deadline).
	ErrDeadline = errors.New("run deadline exceeded")
	// ErrNoConvergence reports that a control-plane computation (the
	// symbolic route computation or a concrete simulation) did not
	// reach a fixed point within its iteration bound.
	ErrNoConvergence = errors.New("control plane did not converge")
	// ErrInternal reports a defect: an internal panic converted at the
	// public API boundary instead of crashing the caller's process.
	ErrInternal = errors.New("internal error")
	// ErrNodeLimit reports that a BDD node table would exceed its
	// configured limit (the "BDD limit" outcome of the paper's Table 2).
	// It is declared here rather than in the BDD kernel so that every
	// panic boundary can recognise it.
	ErrNodeLimit = errors.New("bdd: node table limit exceeded")
)

// StageError tags an underlying error with the pipeline stage it
// interrupted and, when known, the routers involved (the oscillating
// routers of a non-convergent run, or the router being processed when
// a panic fired).
type StageError struct {
	Stage   string   // "src", "spf", "analysis", "mine", "sim", ...
	Routers []string // involved routers, when known
	Err     error
}

func (e *StageError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %v", e.Stage, e.Err)
	if len(e.Routers) > 0 {
		fmt.Fprintf(&b, " (routers: %s)", strings.Join(e.Routers, ", "))
	}
	return b.String()
}

func (e *StageError) Unwrap() error { return e.Err }

// Stage wraps err with a stage tag unless it already carries one, so
// the innermost (most precise) stage wins as errors propagate outward.
func Stage(stage string, err error) error {
	if err == nil {
		return nil
	}
	var se *StageError
	if errors.As(err, &se) {
		return err
	}
	return &StageError{Stage: stage, Err: err}
}

// StageOf returns the stage recorded on err, or "" when err carries no
// stage tag.
func StageOf(err error) string {
	var se *StageError
	if errors.As(err, &se) {
		return se.Stage
	}
	return ""
}

// Interruption reports whether err is a cooperative interruption
// (cancellation or deadline) rather than a fault. Interruptions abort
// a run cleanly; they are never retried by the degradation ladder.
func Interruption(err error) bool {
	return errors.Is(err, ErrCanceled) || errors.Is(err, ErrDeadline)
}

// Unwinds reports whether err is one of the two errors that travel as
// panics by design: a node-table overflow, raised deep inside a BDD
// operation where no error return exists, or an interruption, raised by
// the hook those operations poll.
func Unwinds(err error) bool {
	return errors.Is(err, ErrNodeLimit) || Interruption(err)
}

// thrown carries an error across a protected region: code too deep to
// return one (a BDD operation) throws it with Throw, and the region's
// boundary gets it back with Catch or Recovered. It is an error (with
// Unwrap) so that a recover() outside any boundary can still match it
// with errors.Is.
type thrown struct{ err error }

func (t thrown) Error() string { return t.err.Error() }
func (t thrown) Unwrap() error { return t.err }

// Throw unwinds to the nearest boundary with err.
func Throw(err error) { panic(thrown{err}) }

// Recovered returns the error a recovered panic value carries across a
// boundary: a thrown error, or a bare error that Unwinds. ok is false
// for anything else — a defect, which the boundary re-panics or reports
// as ErrInternal.
func Recovered(r any) (err error, ok bool) {
	switch e := r.(type) {
	case thrown:
		return e.err, true
	case error:
		if Unwinds(e) {
			return e, true
		}
	}
	return nil, false
}

// Catch is deferred around a protected region: it stores the error of a
// recovered panic (see Recovered) in *errp, tagged with stage, and lets
// any other panic keep unwinding.
func Catch(stage string, errp *error) {
	r := recover()
	if r == nil {
		return
	}
	err, ok := Recovered(r)
	if !ok {
		panic(r)
	}
	*errp = Stage(stage, err)
}

// SharedChecker is the run's interruption check: one context/deadline
// poll shared by every worker of a run. It is sticky — once tripped,
// every caller observes the same error, so late pollers see the
// interruption even after the context is garbage — and trip detection
// and the sticky slot use atomics, so Check may be called from any
// number of goroutines. A nil *SharedChecker is the no-op checker.
//
// There is no amortized poll: the layers that call the hook (BDD
// manager, engine activation loop, stage boundaries) amortize with
// their own step counters, and stage boundaries need the immediate
// verdict.
type SharedChecker struct {
	ctx      context.Context
	deadline time.Time
	timeout  time.Duration
	err      atomic.Pointer[error]
}

// NewSharedChecker builds a shared checker for the given context and
// timeout. Either may be absent; when both are absent it returns nil —
// the no-op checker.
func NewSharedChecker(ctx context.Context, timeout time.Duration) *SharedChecker {
	if ctx == nil && timeout <= 0 {
		return nil
	}
	c := &SharedChecker{ctx: ctx, timeout: timeout}
	if timeout > 0 {
		c.deadline = time.Now().Add(timeout)
	}
	return c
}

// Check consults the context and clock immediately. Safe for concurrent
// use; every caller after the first trip observes the same error.
func (c *SharedChecker) Check() error {
	if c == nil {
		return nil
	}
	if p := c.err.Load(); p != nil {
		return *p
	}
	var tripped error
	if c.ctx != nil {
		if err := c.ctx.Err(); err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				tripped = fmt.Errorf("%w (context deadline)", ErrDeadline)
			} else {
				tripped = fmt.Errorf("%w: %v", ErrCanceled, err)
			}
		}
	}
	if tripped == nil && !c.deadline.IsZero() && time.Now().After(c.deadline) {
		tripped = fmt.Errorf("%w (budget %s)", ErrDeadline, c.timeout)
	}
	if tripped == nil {
		return nil
	}
	// First writer wins so every caller sees one identical error value.
	c.err.CompareAndSwap(nil, &tripped)
	return *c.err.Load()
}

// Fn returns Check as a plain func, or nil on a nil checker.
func (c *SharedChecker) Fn() func() error {
	if c == nil {
		return nil
	}
	return c.Check
}
