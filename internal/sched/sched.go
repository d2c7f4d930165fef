// Package sched runs a list of tasks on a fixed set of workers for
// prefix-scoped symbolic execution. The unit of work is one pipeline run
// (SRC + SPF for a handful of prefixes, its escalation ladder included),
// so tasks are independent and coarse — milliseconds to minutes — and
// the caller's list order is the schedule:
//
//   - Each idle worker claims the next unclaimed task in list order. A
//     caller that sorts the list largest first gets LPT scheduling: the
//     long poles start immediately and the small tasks fill in behind.
//   - Workers never share mutable pipeline state: every task builds its
//     own bdd.Manager/symbol.Space. Telemetry is sharded per worker
//     (obs.Telemetry.Shard) and merged once at the end, so the hot path
//     updates no cross-worker cachelines.
//   - The first task error stops further claims: running tasks finish
//     (they observe cancellation through their own interrupt hooks) and
//     Run returns that error. An Interrupt hook (resil.SharedChecker.Fn)
//     is polled before every claim, so a canceled run stops starting work
//     within one task.
//
// With one worker the tasks run strictly in list order and the run is
// byte-for-byte deterministic.
package sched

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"sre/internal/obs"
	"sre/internal/resil"
)

// DefaultWorkers is the worker count used when the caller does not
// choose one: the number of CPUs the Go runtime may use.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Task is one unit of work. Run receives the worker executing it, whose
// Tel shard it should report telemetry into; a non-nil error stops the
// whole run. Cost is the caller's estimate, recorded on the task's
// flight event.
type Task struct {
	Cost int64
	Run  func(w *Worker) error
}

// Config configures a Run.
type Config struct {
	// Workers is the number of worker goroutines (min 1).
	Workers int
	// Interrupt, when non-nil, is polled by every worker before each
	// claim; a non-nil return stops the run with that error. It must be
	// safe for concurrent use (resil.SharedChecker.Fn).
	Interrupt func() error
	// Telemetry, when non-nil, is the parent registry: each worker gets
	// a Shard of it and Run merges the shards back. With one worker the
	// parent is used directly (no shard, no merge).
	Telemetry *obs.Telemetry
}

// Worker is the execution context handed to tasks.
type Worker struct {
	// ID is the worker index in [0, Workers).
	ID int
	// Tel is the worker's telemetry shard (the parent registry itself
	// with one worker, nil when the run has no telemetry).
	Tel *obs.Telemetry
}

// Run executes tasks on cfg.Workers workers (values below 1 mean 1),
// waits for every claimed task to finish, merges the telemetry shards
// into the parent registry, and returns the first task or interrupt
// error, if any.
func Run(cfg Config, tasks []Task) error {
	workers := max(cfg.Workers, 1)
	var (
		next    atomic.Int64 // index of the next unclaimed task
		stopped atomic.Bool
		once    sync.Once
		first   error
		wg      sync.WaitGroup
	)
	stop := func(err error) {
		once.Do(func() { first = err })
		stopped.Store(true)
	}
	shards := make([]*obs.Telemetry, workers)
	wg.Add(workers)
	for i := range shards {
		w := &Worker{ID: i, Tel: cfg.Telemetry}
		if cfg.Telemetry != nil && workers > 1 {
			w.Tel = cfg.Telemetry.Shard()
			w.Tel.SetWorker(i)
			shards[i] = w.Tel
		}
		go func() {
			defer wg.Done()
			for !stopped.Load() {
				if cfg.Interrupt != nil {
					if err := cfg.Interrupt(); err != nil {
						stop(err)
						return
					}
				}
				n := next.Add(1) - 1
				if n >= int64(len(tasks)) {
					return
				}
				if err := runTask(w, tasks[n]); err != nil {
					stop(err)
				}
			}
		}()
	}
	wg.Wait()
	for _, s := range shards {
		if s != nil {
			cfg.Telemetry.Merge(s)
		}
	}
	return first
}

// runTask is the per-task panic firewall. Expected panics (BDD
// node-table overflow, interruptions) are converted to typed errors by
// the pipeline layers before they reach the scheduler; one that gets
// here all the same returns as its own error (resil.Recovered). Anything
// else is a defect: it is converted to resil.ErrInternal instead of
// killing the process from a worker goroutine (where no caller-side
// recover could catch it).
func runTask(w *Worker, t Task) (err error) {
	var t0 time.Time
	var cpu0 int64
	recording := w.Tel.Recording()
	if recording {
		t0 = time.Now()
		cpu0 = obs.ThreadCPUNanos()
	}
	defer func() {
		if r := recover(); r != nil {
			var ok bool
			if err, ok = resil.Recovered(r); !ok {
				w.Tel.Counter("resilience.panics").Inc()
				err = fmt.Errorf("%w: panic in worker %d: %v\n%s",
					resil.ErrInternal, w.ID, r, debug.Stack())
			}
		}
		if recording {
			cpu := obs.ThreadCPUNanos() - cpu0
			if cpu < 0 { // thread migration: rusage is best-effort
				cpu = 0
			}
			outcome := "ok"
			if err != nil {
				outcome = "error"
			}
			w.Tel.Record(t0, obs.TraceEvent{Stage: "task",
				Wall: time.Since(t0).Nanoseconds(), CPU: cpu,
				Count: t.Cost, Outcome: outcome})
		}
	}()
	return t.Run(w)
}
