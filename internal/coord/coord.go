package coord

import (
	"fmt"
	"os"
	"os/exec"
	"sync"
	"time"

	"sre/internal/analysis"
	"sre/internal/config"
	"sre/internal/obs"
	"sre/internal/resil"
	"sre/internal/route"
	"sre/internal/src"
)

// Options configures a multi-process run.
type Options struct {
	// Workers is the number of worker subprocesses. Values < 1 mean 1.
	Workers int
	// Verify carries the verification options. Workers get their
	// canonical encoding (src.Options.Encode); the process-local fields
	// stay coordinator-side: workers run fresh per-task telemetry
	// registries whose wire shards merge back here, and are killed (not
	// signaled) on cancellation.
	Verify src.Options
	// Resilient enables the escalation ladder inside workers and the
	// in-process resilient fallback for quarantined prefixes. Without
	// it, a prefix whose verification fails aborts the run — but worker
	// crashes are still retried: crash tolerance is not degradation.
	Resilient bool
	// Cache, when non-nil, is the persistent result cache: the executor
	// consults it before dispatching a task (a hit skips the worker
	// round-trip entirely) and workers publish what they compute into
	// its directory.
	Cache *analysis.ResultCache
}

// Supervision constants. Workers heartbeat every heartbeatInterval, and
// one silent for heartbeatGrace is wedged. A task gets maxAttempts worker
// attempts before it is quarantined to the in-process fallback; a failed
// attempt is redispatched after retryBackoff, doubling per attempt; one
// worker slot gets maxRespawns replacement processes, and when every
// slot is dead and unrespawnable the remaining prefixes quarantine.
const (
	heartbeatInterval = 250 * time.Millisecond
	heartbeatGrace    = 8 * heartbeatInterval
	maxAttempts       = 3
	maxRespawns       = maxAttempts
	retryBackoff      = 50 * time.Millisecond
)

// taskState tracks one of the executor's pending tasks through
// dispatch, retries, and quarantine.
type taskState struct {
	analysis.Task
	attempt     int // next attempt number (= failed attempts so far)
	notBefore   time.Time
	done        bool
	quarantined bool
	started     time.Time
}

// workerProc is one live worker subprocess.
type workerProc struct {
	slot     int
	cmd      *exec.Cmd
	stdin    *frameWriter
	closer   func() error // closes the stdin pipe
	ready    bool
	task     *taskState
	lastSeen time.Time
	dead     bool
}

func (w *workerProc) kill() {
	if w.cmd != nil && w.cmd.Process != nil {
		_ = w.cmd.Process.Kill()
	}
}

// event is one reader-goroutine message: a frame, or a terminal read
// error (EOF/decode failure = the worker is gone or babbling).
type event struct {
	w   *workerProc
	f   *frame
	err error
}

// Run verifies prefixes across opts.Workers subprocesses and returns a
// Partitioned indistinguishable from an in-process Options.Parallelism
// run: it is the same analysis.Executor — dedupe, cache pass, cost
// order, assembly in prefix order — with Fleet as the place its pending
// tasks run.
func Run(net *config.Network, prefixes []route.Prefix, opts Options) (*analysis.Partitioned, error) {
	fleet, err := Fleet(net, opts)
	if err != nil {
		return nil, err
	}
	x := opts.executor(net)
	x.Dispatch = fleet
	return x.Run(prefixes)
}

// executor is the Executor these options describe, minus the fleet: the
// run Fleet dispatches for, and the in-process fallback of its
// quarantined prefixes.
func (o Options) executor(net *config.Network) analysis.Executor {
	return analysis.Executor{Net: net, Opts: o.Verify, Ladder: o.Resilient, Cache: o.Cache}
}

// initMsg is the init frame of a run under o, minus the network text.
func (o Options) initMsg() (initMsg, error) {
	verify, err := o.Verify.Encode()
	if err != nil {
		return initMsg{}, err
	}
	im := initMsg{Opts: verify, Ladder: o.Resilient}
	if o.Cache != nil && o.Cache.S != nil {
		im.CacheDir = o.Cache.S.Dir()
	}
	return im, nil
}

// Fleet validates opts and returns the dispatcher that runs an
// Executor's pending tasks on opts.Workers subprocesses. Workers
// execute the identical per-prefix task chains, and telemetry shards
// merge exactly as Telemetry.Merge does in-process. Worker failures
// (crash, stall, corrupt frames, nonzero exit) are retried with backoff
// up to maxAttempts; prefixes that keep failing fall back to
// in-process execution, surfacing as quarantined outcomes carrying
// analysis.RungWorkerCrash. Only a verification error — cancellation,
// deadline, non-convergence, an exhausted non-resilient overflow —
// aborts the run. The workers are this executable re-exec'ed as
// `<exe> worker`; they inherit the environment, so a fault plan in
// SRE_FAULT (validated here) reaches them.
func Fleet(net *config.Network, opts Options) (analysis.Dispatcher, error) {
	opts.Workers = max(opts.Workers, 1)
	if _, err := ParseFaultPlan(os.Getenv(FaultEnv)); err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("coord: resolving worker binary: %w", err)
	}
	init, err := opts.initMsg()
	if err != nil {
		return nil, err
	}
	return func(tasks []analysis.Task, done func(route.Prefix, []*analysis.Pipeline, analysis.PrefixOutcome)) error {
		im := init
		im.Network = config.Format(net) // only now: a fully warm run never gets here
		c := &coordinator{
			net:     net,
			opts:    opts,
			exe:     exe,
			tel:     opts.Verify.Telemetry,
			deliver: done,
			events:  make(chan event, 16),
			done:    make(chan struct{}),
			init:    &im,
		}
		defer c.teardown()
		return c.run(tasks)
	}, nil
}

type coordinator struct {
	net  *config.Network
	opts Options
	exe  string
	init *initMsg // the same frame for every worker of the run
	tel  *obs.Telemetry
	// deliver hands a finished prefix to the executor, which owns its
	// pipelines from then on (and releases them if the run aborts).
	deliver func(route.Prefix, []*analysis.Pipeline, analysis.PrefixOutcome)

	tasks    []*taskState
	workers  []*workerProc
	events   chan event
	done     chan struct{} // closed at teardown: readers stop posting
	wg       sync.WaitGroup
	respawns []int
	closed   bool
}

// teardown kills every worker, releases the readers, and reaps the
// children. Safe to call after both normal completion and aborts.
func (c *coordinator) teardown() {
	if !c.closed {
		c.closed = true
		close(c.done)
	}
	for _, w := range c.workers {
		if w != nil {
			w.kill()
		}
	}
	c.wg.Wait()
}

// run supervises the fleet over the executor's pending tasks, which
// arrive deduplicated, cache-filtered (a fully warm run never gets
// here, so it forks nothing) and in dispatch order; each carries its
// cache key so workers publish to the shared store themselves. No more
// workers start than there are tasks.
func (c *coordinator) run(tasks []analysis.Task) error {
	for _, t := range tasks {
		c.tasks = append(c.tasks, &taskState{Task: t})
	}

	slots := min(c.opts.Workers, len(tasks))
	c.workers = make([]*workerProc, slots)
	c.respawns = make([]int, slots)
	for slot := range slots {
		c.spawn(slot, false)
	}

	// Supervision cadence: fast enough to catch heartbeat loss promptly,
	// slow enough to stay invisible in profiles.
	tick := time.NewTicker(heartbeatInterval / 2)
	defer tick.Stop()

	for !c.allDone() {
		c.assign()
		if c.noWorkersLeft() {
			c.quarantineRemaining("no workers left")
			break
		}
		select {
		case ev := <-c.events:
			if ev.w.dead {
				continue // already handled (we killed it)
			}
			if ev.err != nil {
				c.workerDied(ev.w, "crash")
				continue
			}
			if err := c.handleFrame(ev.w, ev.f); err != nil {
				return err
			}
		case <-tick.C:
			if hook := c.opts.Verify.Interrupt; hook != nil {
				if ierr := hook(); ierr != nil {
					return resil.Stage("coord", ierr)
				}
			}
			c.supervise()
		}
	}
	c.shutdownWorkers()

	// Quarantine fallback: prefixes whose workers kept dying run through
	// the same executor in-process (with the ladder when resilient),
	// under the coordinator's own telemetry and interrupt. It consults
	// the cache too — another process may have published the prefix since
	// the pre-dispatch pass — and publishes the clean result; the crash
	// markers go on afterwards, because decorated outcomes are never
	// cached: they describe this run's worker fleet, not the verification
	// result.
	local := c.opts.executor(c.net)
	for _, t := range c.tasks {
		if !t.quarantined {
			continue
		}
		pipes, out, err := local.RunTask(t.Prefix)
		if err != nil {
			return err
		}
		out.WorkerCrashes = t.attempt
		out.Quarantined = true
		out.Degraded = true
		out.Rungs = append([]string{analysis.RungWorkerCrash}, out.Rungs...)
		c.deliver(t.Prefix, pipes, out)
	}
	return nil
}

// spawn launches a worker into slot. Failures to even start count
// against the slot's respawn budget; a slot that cannot start stays
// dead and its work flows to the other slots or to quarantine.
func (c *coordinator) spawn(slot int, respawn bool) {
	cmd := exec.Command(c.exe, "worker")
	cmd.Env = append(os.Environ(), "SRE_COORD_WORKER=1")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		c.workers[slot] = nil
		return
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		c.workers[slot] = nil
		return
	}
	if err := cmd.Start(); err != nil {
		c.workers[slot] = nil
		return
	}
	w := &workerProc{slot: slot, cmd: cmd,
		stdin: &frameWriter{w: stdin}, closer: stdin.Close, lastSeen: time.Now()}
	c.workers[slot] = w
	c.record(time.Time{}, obs.TraceEvent{Stage: "coord.spawn", Count: int64(slot),
		Outcome: map[bool]string{false: "ok", true: "respawn"}[respawn]})

	// The init frame can be large (the whole network text); write it off
	// the event loop so a worker that dies at startup cannot block us.
	go func() { _ = w.stdin.write(&frame{Type: frameInit, Init: c.init}) }()

	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for {
			f, rerr := readFrame(stdout)
			ev := event{w: w, f: f, err: rerr}
			select {
			case c.events <- ev:
			case <-c.done:
				_ = cmd.Wait()
				return
			}
			if rerr != nil {
				_ = cmd.Wait() // reap; exit status is immaterial — EOF said enough
				return
			}
		}
	}()
}

// handleFrame processes one worker frame. A returned error aborts the
// whole run (worker-reported verification errors, matching the
// in-process first-error-abort contract).
func (c *coordinator) handleFrame(w *workerProc, f *frame) error {
	w.lastSeen = time.Now()
	switch f.Type {
	case frameHello:
		w.ready = true
	case frameHeartbeat:
	case frameError:
		if f.Err == nil {
			c.workerDied(w, "bad error frame")
			return nil
		}
		return f.Err.ToError()
	case frameResult:
		if f.Result == nil {
			c.workerDied(w, "bad result frame")
			return nil
		}
		t := w.task
		if t == nil || t.done || f.Result.Seq != t.Seq {
			return nil // stale result from an attempt we already wrote off
		}
		pipes, derr := analysis.DecodePipelines(c.net, c.opts.Verify, f.Result.Pipes, c.tel)
		if derr != nil {
			if !recoverableDecode(derr) {
				return derr
			}
			// A corrupt or overflowing result is a failed attempt: the
			// worker is suspect, kill and retry elsewhere.
			c.workerDied(w, "undecodable result")
			return nil
		}
		out := analysis.OutcomeFromWire(t.Prefix, f.Result.Outcome)
		out.WorkerCrashes = t.attempt
		t.done = true
		w.task = nil
		c.deliver(t.Prefix, pipes, out)
		c.tel.Merge(f.Result.Telemetry.Import())
		c.record(t.started, obs.TraceEvent{Stage: "coord.task", Prefix: t.Prefix.String(),
			Wall: time.Since(t.started).Nanoseconds(), Count: int64(t.attempt), Outcome: "ok"})
	}
	return nil
}

// recoverableDecode reports whether a decode failure should count as a
// retryable worker fault. Interruptions propagate as aborts.
func recoverableDecode(err error) bool {
	return !resil.Interruption(err)
}

// workerDied handles any worker loss — process exit, read error,
// heartbeat loss, a malformed frame. The inflight task (if any) is retried
// or quarantined, and the slot respawns within its budget.
func (c *coordinator) workerDied(w *workerProc, reason string) {
	if w.dead {
		return
	}
	w.dead = true
	w.kill()
	pfx := ""
	if w.task != nil {
		pfx = w.task.Prefix.String()
	}
	c.record(time.Time{}, obs.TraceEvent{Stage: "coord.crash", Prefix: pfx,
		Count: int64(w.slot), Outcome: reason})
	if t := w.task; t != nil {
		w.task = nil
		t.attempt++
		if t.attempt >= maxAttempts {
			t.quarantined = true
			c.record(time.Time{}, obs.TraceEvent{Stage: "coord.quarantine",
				Prefix: t.Prefix.String(), Count: int64(t.attempt), Outcome: reason})
		} else {
			backoff := retryBackoff << uint(t.attempt-1)
			t.notBefore = time.Now().Add(backoff)
			c.record(time.Time{}, obs.TraceEvent{Stage: "coord.retry",
				Prefix: t.Prefix.String(), Count: int64(t.attempt), Outcome: reason})
		}
	}
	if c.respawns[w.slot] < maxRespawns {
		c.respawns[w.slot]++
		c.spawn(w.slot, true)
	} else {
		c.workers[w.slot] = nil
	}
}

// assign hands pending tasks to idle ready workers, in task order,
// honoring retry backoff.
func (c *coordinator) assign() {
	now := time.Now()
	for _, w := range c.workers {
		if w == nil || w.dead || !w.ready || w.task != nil {
			continue
		}
		t := c.nextTask(now)
		if t == nil {
			return
		}
		t.started = now
		w.task = t
		msg := &frame{Type: frameTask, Task: &taskMsg{Seq: t.Seq, Attempt: t.attempt, Prefix: t.Prefix.String(), CacheKey: t.Key}}
		if err := w.stdin.write(msg); err != nil {
			c.workerDied(w, "write failed")
		}
	}
}

// nextTask returns the first dispatchable task: not finished, not
// quarantined, not inflight, past its retry backoff.
func (c *coordinator) nextTask(now time.Time) *taskState {
	for _, t := range c.tasks {
		if t.done || t.quarantined || t.notBefore.After(now) {
			continue
		}
		if c.inflight(t) {
			continue
		}
		return t
	}
	return nil
}

func (c *coordinator) inflight(t *taskState) bool {
	for _, w := range c.workers {
		if w != nil && !w.dead && w.task == t {
			return true
		}
	}
	return false
}

// supervise enforces the heartbeat grace. A slow task is not a wedged
// worker: heartbeats keep it alive, and the run's own deadline
// (src.Options.Interrupt) bounds the whole.
func (c *coordinator) supervise() {
	now := time.Now()
	for _, w := range c.workers {
		if w != nil && !w.dead && now.Sub(w.lastSeen) > heartbeatGrace {
			c.workerDied(w, "heartbeat loss")
		}
	}
}

func (c *coordinator) allDone() bool {
	for _, t := range c.tasks {
		if !t.done && !t.quarantined {
			return false
		}
	}
	return true
}

func (c *coordinator) noWorkersLeft() bool {
	for _, w := range c.workers {
		if w != nil && !w.dead {
			return false
		}
	}
	return true
}

// quarantineRemaining marks every unfinished task quarantined (used
// when the worker fleet is unrecoverable).
func (c *coordinator) quarantineRemaining(reason string) {
	for _, t := range c.tasks {
		if t.done || t.quarantined {
			continue
		}
		t.quarantined = true
		if t.attempt == 0 {
			t.attempt = 1 // at least the fleet loss counts as one failure
		}
		c.record(time.Time{}, obs.TraceEvent{Stage: "coord.quarantine",
			Prefix: t.Prefix.String(), Count: int64(t.attempt), Outcome: reason})
	}
}

// shutdownWorkers asks live workers to exit and closes their pipes;
// teardown reaps whatever ignores the request.
func (c *coordinator) shutdownWorkers() {
	for _, w := range c.workers {
		if w == nil || w.dead {
			continue
		}
		_ = w.stdin.write(&frame{Type: frameShutdown})
		_ = w.closer()
	}
}

// record captures one coordinator flight-recorder event; Count carries
// the worker slot or attempt (see each call site's stage).
func (c *coordinator) record(start time.Time, e obs.TraceEvent) {
	if !c.tel.Recording() {
		return
	}
	c.tel.Record(start, e)
}
