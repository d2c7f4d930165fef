// Package sched is a work-stealing worker pool for prefix-scoped
// symbolic execution. The unit of work is one pipeline run (SRC + SPF
// for a handful of prefixes), so tasks are coarse — milliseconds to
// minutes — and the scheduler optimizes for makespan, not dispatch
// overhead:
//
//   - Each worker owns a cost-ordered queue (a max-heap on the caller's
//     cost estimate, submission order breaking ties). Sorted
//     largest-first seeding round-robined across queues starts the long
//     poles immediately (LPT scheduling); an idle worker steals the
//     most expensive task of a sibling's queue.
//   - Tasks may submit follow-up tasks (the degradation ladder's retry
//     rungs), which land on the submitting worker's own queue: a
//     degraded prefix re-enters the schedule instead of serializing an
//     exclusive retry phase.
//   - Workers never share mutable pipeline state: every task builds its
//     own bdd.Manager/symbol.Space. Telemetry is sharded per worker
//     (obs.Telemetry.Shard) and merged once in Wait, so the hot path
//     updates no cross-worker cachelines.
//   - The first task error aborts the pool: queued tasks are dropped,
//     running tasks finish (they observe cancellation through their own
//     interrupt hooks), and Wait returns that error. An Interrupt hook
//     (resil.SharedChecker.Fn) is polled before every dequeue so a
//     canceled run stops starting work within one task.
//
// A pool with one worker executes tasks strictly in cost order on the
// calling goroutine's schedule and is byte-for-byte deterministic.
package sched

import (
	"container/heap"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"sre/internal/obs"
	"sre/internal/resil"
)

// DefaultWorkers is the worker count used when the caller does not
// choose one: the number of CPUs the Go runtime may use.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Task is one unit of work. It receives the worker executing it, whose
// Tel shard it should report telemetry into and through which it may
// submit follow-up tasks. A non-nil error aborts the whole pool.
type Task func(w *Worker) error

// Config configures a Pool.
type Config struct {
	// Workers is the number of worker goroutines (min 1).
	Workers int
	// Interrupt, when non-nil, is polled by every worker before each
	// dequeue; a non-nil return aborts the pool with that error. It
	// must be safe for concurrent use (resil.SharedChecker.Fn — NOT
	// resil.Checker.Fn, which is single-threaded).
	Interrupt func() error
	// Telemetry, when non-nil, is the parent registry: each worker gets
	// a Shard of it and Wait merges the shards back. With one worker
	// the parent is used directly (no shard, no merge).
	Telemetry *obs.Telemetry
}

// Worker is the execution context handed to tasks.
type Worker struct {
	// ID is the worker index in [0, Workers).
	ID int
	// Tel is the worker's telemetry shard (the parent registry itself
	// in single-worker pools, nil when the pool has no telemetry).
	Tel  *obs.Telemetry
	pool *Pool
}

// Submit enqueues a follow-up task on this worker's own queue. Used by
// tasks that decompose or retry (ladder rungs); the task is eligible
// for stealing like any other. Submitting to an aborted pool is a no-op.
func (w *Worker) Submit(cost int64, fn Task) { w.pool.push(w.ID, cost, fn) }

type item struct {
	cost int64
	seq  int64 // submission order, tie-break and FIFO among equals
	fn   Task
}

// workerQ is one worker's queue: a max-heap on (cost desc, seq asc).
type workerQ struct {
	mu    sync.Mutex
	items []item
}

func (q *workerQ) Len() int { return len(q.items) }
func (q *workerQ) Less(i, j int) bool {
	if q.items[i].cost != q.items[j].cost {
		return q.items[i].cost > q.items[j].cost
	}
	return q.items[i].seq < q.items[j].seq
}
func (q *workerQ) Swap(i, j int)      { q.items[i], q.items[j] = q.items[j], q.items[i] }
func (q *workerQ) Push(x interface{}) { q.items = append(q.items, x.(item)) }
func (q *workerQ) Pop() interface{} {
	old := q.items
	n := len(old)
	it := old[n-1]
	q.items = old[:n-1]
	return it
}

// Pool runs tasks on a fixed set of workers. Create with New, submit
// with Go (or Worker.Submit from inside tasks), finish with Wait.
type Pool struct {
	cfg     Config
	queues  []*workerQ
	workers []*Worker
	shards  []*obs.Telemetry
	wg      sync.WaitGroup

	mu      sync.Mutex
	cond    *sync.Cond
	pending int   // submitted minus finished-or-dropped tasks
	nextSeq int64 // submission counter
	nextRR  int   // round-robin cursor for external submits
	sealed  bool  // Wait called: workers exit when drained
	stopped bool  // aborted: queued tasks are dropped
	err     error // first task/interrupt error
}

// New creates a pool and starts its workers. Workers below 1 is
// treated as 1.
func New(cfg Config) *Pool {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	p := &Pool{cfg: cfg}
	p.cond = sync.NewCond(&p.mu)
	p.queues = make([]*workerQ, cfg.Workers)
	p.workers = make([]*Worker, cfg.Workers)
	if cfg.Telemetry != nil && cfg.Workers > 1 {
		p.shards = make([]*obs.Telemetry, cfg.Workers)
	}
	for i := 0; i < cfg.Workers; i++ {
		p.queues[i] = &workerQ{}
		w := &Worker{ID: i, Tel: cfg.Telemetry, pool: p}
		if p.shards != nil {
			p.shards[i] = cfg.Telemetry.Shard()
			p.shards[i].SetWorker(i)
			w.Tel = p.shards[i]
		}
		p.workers[i] = w
	}
	p.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go p.run(p.workers[i])
	}
	return p
}

// Go submits a task with a cost estimate. External submissions are
// round-robined across the worker queues; submit tasks sorted by
// decreasing cost so the seeding puts the largest tasks first on every
// queue. Submitting to an aborted pool drops the task silently (the
// pool already has an error to report).
func (p *Pool) Go(cost int64, fn Task) {
	p.mu.Lock()
	qi := p.nextRR
	p.nextRR = (p.nextRR + 1) % len(p.queues)
	p.mu.Unlock()
	p.push(qi, cost, fn)
}

func (p *Pool) push(qi int, cost int64, fn Task) {
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		return
	}
	p.pending++
	seq := p.nextSeq
	p.nextSeq++
	p.mu.Unlock()

	q := p.queues[qi]
	q.mu.Lock()
	heap.Push(q, item{cost: cost, seq: seq, fn: fn})
	q.mu.Unlock()

	p.mu.Lock()
	p.cond.Broadcast()
	p.mu.Unlock()
}

// Wait seals the pool, waits for every submitted task to finish (or be
// dropped by an abort), merges the telemetry shards into the parent
// registry, and returns the first error, if any. The pool must not be
// used afterwards.
func (p *Pool) Wait() error {
	p.mu.Lock()
	p.sealed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
	if p.cfg.Telemetry != nil {
		for _, s := range p.shards {
			p.cfg.Telemetry.Merge(s)
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// abort records the first error, drops all queued tasks, and wakes
// every worker. Running tasks are not preempted; they observe
// cancellation through their own interrupt hooks.
func (p *Pool) abort(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.stopped = true
	p.mu.Unlock()

	dropped := 0
	for _, q := range p.queues {
		q.mu.Lock()
		dropped += len(q.items)
		q.items = nil
		q.mu.Unlock()
	}

	p.mu.Lock()
	p.pending -= dropped
	p.cond.Broadcast()
	p.mu.Unlock()
}

// take pops the best task for worker w: its own queue first, then a
// steal sweep over the siblings in deterministic ring order.
func (p *Pool) take(w *Worker) (item, bool) {
	n := len(p.queues)
	for off := 0; off < n; off++ {
		q := p.queues[(w.ID+off)%n]
		q.mu.Lock()
		if len(q.items) > 0 {
			it := heap.Pop(q).(item)
			q.mu.Unlock()
			return it, true
		}
		q.mu.Unlock()
	}
	return item{}, false
}

func (p *Pool) run(w *Worker) {
	defer p.wg.Done()
	for {
		if p.cfg.Interrupt != nil {
			if err := p.cfg.Interrupt(); err != nil {
				p.abort(err)
			}
		}
		it, ok := p.take(w)
		if !ok {
			p.mu.Lock()
			for !p.stopped && !(p.sealed && p.pending == 0) && !p.someWork() {
				p.cond.Wait()
			}
			done := p.stopped || (p.sealed && p.pending == 0)
			p.mu.Unlock()
			if done {
				return
			}
			continue
		}
		err := p.runTask(w, it)
		if err != nil {
			p.abort(err)
		}
		p.mu.Lock()
		p.pending--
		if p.pending == 0 {
			p.cond.Broadcast()
		}
		p.mu.Unlock()
	}
}

// someWork reports whether any queue holds a task. Called with p.mu
// held; the p.mu→q.mu lock order is consistent everywhere.
func (p *Pool) someWork() bool {
	for _, q := range p.queues {
		q.mu.Lock()
		n := len(q.items)
		q.mu.Unlock()
		if n > 0 {
			return true
		}
	}
	return false
}

// runTask is the per-task panic firewall. Expected panics (BDD
// node-table overflow, interruptions) are converted to typed errors by
// the pipeline layers before they reach the pool, so anything arriving
// here is a defect; it is converted to resil.ErrInternal instead of
// killing the process from a worker goroutine (where no caller-side
// recover could catch it).
func (p *Pool) runTask(w *Worker, it item) (err error) {
	var t0 time.Time
	var cpu0 int64
	recording := w.Tel.Recording()
	if recording {
		t0 = time.Now()
		cpu0 = obs.ThreadCPUNanos()
	}
	defer func() {
		if r := recover(); r != nil {
			w.Tel.Counter("resilience.panics").Inc()
			err = fmt.Errorf("%w: panic in worker %d: %v\n%s",
				resil.ErrInternal, w.ID, r, debug.Stack())
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
				Count: it.cost, Outcome: outcome})
		}
	}()
	return it.fn(w)
}
