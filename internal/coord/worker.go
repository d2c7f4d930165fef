package coord

// Worker side of the protocol: read init, then loop task → result.
// Each task runs analysis.RunPrefixTask — the identical per-prefix
// chain an in-process parallel run schedules — with a fresh telemetry
// registry whose wire export rides back on the result frame. A
// heartbeat goroutine proves liveness between results so the
// coordinator can tell "slow" from "wedged".

import (
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"time"

	"sre/internal/analysis"
	"sre/internal/config"
	"sre/internal/obs"
	"sre/internal/route"
	"sre/internal/src"
	"sre/internal/store"
)

// WorkerMain runs the worker protocol over the given pipes and returns
// the process exit status. `sre worker` (and the test harness's
// re-exec hook) call it with os.Stdin/os.Stdout/os.Stderr.
//
// Exit statuses: 0 after a clean shutdown frame or EOF, 1 on a
// protocol or I/O failure. Verification errors are not exit statuses —
// they travel back as error frames so the coordinator can attribute
// them; the coordinator treats any nonzero exit as a crash.
func WorkerMain(stdin io.Reader, stdout io.Writer, stderr io.Writer) int {
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "sre worker: "+format+"\n", args...)
		return 1
	}
	init, err := readFrame(stdin)
	if err != nil {
		return fail("reading init frame: %v", err)
	}
	if init.Type == frameShutdown {
		// A worker spawned just as the run completed: its shutdown frame
		// can overtake the asynchronously written init. Nothing to do.
		return 0
	}
	if init.Type != frameInit || init.Init == nil {
		return fail("first frame is %q, want init", init.Type)
	}
	net, err := config.ParseString(init.Init.Network)
	if err != nil {
		return fail("parsing network: %v", err)
	}
	plan, err := ParseFaultPlan(os.Getenv(FaultEnv))
	if err != nil {
		return fail("parsing %s: %v", FaultEnv, err)
	}
	im := init.Init
	opts, err := im.options()
	if err != nil {
		return fail("%v", err)
	}

	// Open the shared result store when the coordinator ships one. The
	// cache is an optimization: a store that cannot open (permissions, a
	// dead disk) downgrades to unpublished results, never a dead worker.
	var cache *analysis.ResultCache
	if dir := im.CacheDir; dir != "" {
		st, serr := store.Open(dir, store.Options{Fault: plan.DiskFault})
		if serr != nil {
			fmt.Fprintf(stderr, "sre worker: opening result store: %v (continuing unpublished)\n", serr)
		} else {
			cache = &analysis.ResultCache{S: st}
		}
	}

	out := &frameWriter{w: stdout}
	if err := out.write(&frame{Type: frameHello, Hello: &helloMsg{PID: os.Getpid()}}); err != nil {
		return fail("writing hello: %v", err)
	}

	// Heartbeats run for the whole worker life. The stall fault silences
	// them without stopping the process — exactly the signature of a
	// wedged worker the coordinator must detect.
	var stalled atomic.Bool
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		tick := time.NewTicker(heartbeatInterval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if stalled.Load() {
					continue
				}
				// A broken pipe means the coordinator is gone; the next
				// result write will fail and exit the loop.
				_ = out.write(&frame{Type: frameHeartbeat})
			}
		}
	}()

	for {
		f, err := readFrame(stdin)
		if err != nil {
			if err == io.EOF {
				return 0 // coordinator closed our stdin: clean shutdown
			}
			return fail("reading frame: %v", err)
		}
		switch f.Type {
		case frameShutdown:
			return 0
		case frameTask:
			if f.Task == nil {
				return fail("task frame missing payload")
			}
			if kind := plan.at(f.Task.Seq, f.Task.Attempt); kind != "" {
				applyFault(kind, out, &stalled)
			}
			res, werr := runTask(net, opts, im.Ladder, f.Task, cache)
			if werr != nil {
				// A non-recoverable verification error: report it and keep
				// serving; the coordinator aborts the run on its side.
				if err := out.write(&frame{Type: frameError, Err: analysis.ErrorToWire(werr)}); err != nil {
					return fail("writing error frame: %v", err)
				}
				continue
			}
			if err := out.write(&frame{Type: frameResult, Result: res}); err != nil {
				return fail("writing result: %v", err)
			}
		default:
			return fail("unexpected frame type %q", f.Type)
		}
	}
}

// options rebuilds the coordinator's verification options worker-side.
// The process-local fields are this process's own: telemetry and
// interrupt hooks are installed per task, and a worker runs one task at
// a time.
func (im *initMsg) options() (src.Options, error) {
	opts, err := src.DecodeOptions(im.Opts)
	opts.Parallelism = 1
	return opts, err
}

// runTask executes one prefix task and puts the result in wire form
// once: the same record goes back down the pipe and, when the run has a
// store, into it for later runs. Workers never look the store up — the
// coordinator's executor did, right before dispatching the task.
func runTask(net *config.Network, opts src.Options, ladder bool, task *taskMsg, cache *analysis.ResultCache) (*taskResult, error) {
	pfx, err := route.ParsePrefix(task.Prefix)
	if err != nil {
		return nil, fmt.Errorf("coord: task %d has bad prefix %q: %w", task.Seq, task.Prefix, err)
	}
	tel := obs.New()
	o := opts
	o.Telemetry = tel
	pipes, out, err := analysis.RunPrefixTask(net, o, pfx, ladder, analysis.LadderOptions{})
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, p := range pipes {
			p.Release()
		}
	}()
	shard := tel.Snapshot()
	rec, err := analysis.NewCacheRecord(net, pfx, pipes, out, &shard)
	if err != nil {
		return nil, err
	}
	cache.Put(task.CacheKey, rec)
	return &taskResult{Seq: task.Seq, CacheRecord: rec}, nil
}

// corruptPayload is what the corrupt fault sends: a well-formed record
// whose payload is not a frame, so the coordinator sees a decode
// failure rather than a torn stream.
var corruptPayload = []byte(`{"type":"result","result":}garbage`)

// applyFault injects one planned fault. crash/kill/exit never return;
// corrupt writes a well-framed garbage payload then exits; stall mutes
// heartbeats and hangs until the coordinator kills the process.
func applyFault(kind string, out *frameWriter, stalled *atomic.Bool) {
	switch kind {
	case faultCrash:
		os.Exit(137)
	case faultKill:
		killSelf()
	case faultExit:
		os.Exit(3)
	case faultCorrupt:
		_ = out.writeRecord(corruptPayload)
		os.Exit(1)
	case faultStall:
		stalled.Store(true)
		time.Sleep(10 * time.Minute) // killed long before this elapses
		os.Exit(1)
	}
}
