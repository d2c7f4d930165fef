package sched

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"sre/internal/obs"
	"sre/internal/resil"
)

// gate blocks the single worker of a pool so a test can stage queue
// contents before any of them run.
func gate() (Task, chan struct{}) {
	ch := make(chan struct{})
	return func(w *Worker) error { <-ch; return nil }, ch
}

func TestSingleWorkerRunsInCostOrder(t *testing.T) {
	p := New(Config{Workers: 1})
	g, release := gate()
	p.Go(1000, g)
	var mu sync.Mutex
	var order []int64
	costs := []int64{3, 7, 7, 1, 9}
	for _, c := range costs {
		c := c
		p.Go(c, func(w *Worker) error {
			mu.Lock()
			order = append(order, c)
			mu.Unlock()
			return nil
		})
	}
	close(release)
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	// Max-heap on cost, submission order breaking ties: the two 7s keep
	// their relative order.
	want := []int64{9, 7, 7, 3, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("execution order %v, want %v", order, want)
		}
	}
}

func TestSubmitFromTask(t *testing.T) {
	p := New(Config{Workers: 3})
	var ran atomic.Int64
	var submit func(depth int) Task
	submit = func(depth int) Task {
		return func(w *Worker) error {
			ran.Add(1)
			if depth > 0 {
				w.Submit(int64(depth), submit(depth-1))
				w.Submit(int64(depth), submit(depth-1))
			}
			return nil
		}
	}
	p.Go(10, submit(3))
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	// A full binary recursion of depth 3: 1+2+4+8 tasks.
	if got := ran.Load(); got != 15 {
		t.Fatalf("ran %d tasks, want 15", got)
	}
}

func TestAbortDropsQueuedTasks(t *testing.T) {
	p := New(Config{Workers: 1})
	g, release := gate()
	p.Go(1000, g)
	boom := errors.New("boom")
	p.Go(100, func(w *Worker) error { return boom })
	var ran atomic.Int64
	for i := 0; i < 5; i++ {
		p.Go(1, func(w *Worker) error { ran.Add(1); return nil })
	}
	close(release)
	if err := p.Wait(); !errors.Is(err, boom) {
		t.Fatalf("Wait = %v, want the task error", err)
	}
	if got := ran.Load(); got != 0 {
		t.Fatalf("%d queued tasks ran after the abort, want 0", got)
	}
}

func TestSubmitAfterAbortIsDropped(t *testing.T) {
	p := New(Config{Workers: 1})
	boom := errors.New("boom")
	p.Go(1, func(w *Worker) error { return boom })
	if err := p.Wait(); !errors.Is(err, boom) {
		t.Fatal(err)
	}
	p.Go(1, func(w *Worker) error { t.Error("task ran on an aborted pool"); return nil })
}

func TestPanicFirewall(t *testing.T) {
	tel := obs.New()
	p := New(Config{Workers: 2, Telemetry: tel})
	p.Go(1, func(w *Worker) error { panic("kaboom") })
	err := p.Wait()
	if !errors.Is(err, resil.ErrInternal) {
		t.Fatalf("Wait = %v, want resil.ErrInternal", err)
	}
	if got := tel.Snapshot().Counters["resilience.panics"]; got != 1 {
		t.Fatalf("resilience.panics = %d, want 1", got)
	}
}

func TestInterruptAbortsPool(t *testing.T) {
	stop := errors.New("interrupted")
	var tripped atomic.Bool
	p := New(Config{Workers: 2, Interrupt: func() error {
		if tripped.Load() {
			return stop
		}
		return nil
	}})
	var ran atomic.Int64
	for i := 0; i < 100; i++ {
		p.Go(1, func(w *Worker) error {
			if ran.Add(1) == 3 {
				tripped.Store(true)
			}
			return nil
		})
	}
	if err := p.Wait(); !errors.Is(err, stop) {
		t.Fatalf("Wait = %v, want the interrupt error", err)
	}
	if got := ran.Load(); got == 100 {
		t.Fatal("interrupt did not drop any queued task")
	}
}

func TestTelemetryShardsMerge(t *testing.T) {
	tel := obs.New()
	p := New(Config{Workers: 4, Telemetry: tel})
	for i := 0; i < 40; i++ {
		p.Go(1, func(w *Worker) error {
			w.Tel.Counter("test.tasks").Inc()
			w.Tel.Gauge("test.high").Max(float64(w.ID))
			return nil
		})
	}
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	snap := tel.Snapshot()
	if got := snap.Counters["test.tasks"]; got != 40 {
		t.Fatalf("merged counter = %d, want 40", got)
	}
	if got := snap.Gauges["test.high"]; got > 3 {
		t.Fatalf("merged gauge = %v, want max worker ID <= 3", got)
	}
}

// TestStress is the scheduler's -race workout: several rounds of many
// tiny tasks on few workers, with follow-up submissions and one
// injected mid-run cancellation per round, so stealing, sharded
// telemetry, abort draining, and the pending accounting all interleave.
func TestStress(t *testing.T) {
	stop := errors.New("canceled")
	for round := 0; round < 8; round++ {
		tel := obs.New()
		var tripped atomic.Bool
		p := New(Config{
			Workers:   3,
			Telemetry: tel,
			Interrupt: func() error {
				if tripped.Load() {
					return stop
				}
				return nil
			},
		})
		var ran atomic.Int64
		cancelAt := int64(100 + round*50)
		for i := 0; i < 400; i++ {
			i := i
			p.Go(int64(i%7), func(w *Worker) error {
				w.Tel.Counter("stress.tasks").Inc()
				if ran.Add(1) == cancelAt && round%2 == 0 {
					tripped.Store(true)
				}
				if i%5 == 0 {
					w.Submit(1, func(w *Worker) error {
						w.Tel.Counter("stress.follow_ups").Inc()
						ran.Add(1)
						return nil
					})
				}
				return nil
			})
		}
		err := p.Wait()
		canceled := tripped.Load()
		if canceled && !errors.Is(err, stop) {
			t.Fatalf("round %d: Wait = %v, want the injected cancellation", round, err)
		}
		if !canceled && err != nil {
			t.Fatalf("round %d: Wait = %v", round, err)
		}
		if !canceled {
			snap := tel.Snapshot()
			if got := snap.Counters["stress.tasks"]; got != 400 {
				t.Fatalf("round %d: merged task counter = %d, want 400", round, got)
			}
			if got := snap.Counters["stress.follow_ups"]; got != 80 {
				t.Fatalf("round %d: merged follow-up counter = %d, want 80", round, got)
			}
		}
	}
}

func TestDefaultWorkers(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Fatalf("DefaultWorkers() = %d", DefaultWorkers())
	}
	// Workers below 1 are clamped rather than rejected.
	p := New(Config{Workers: 0})
	var ran atomic.Int64
	p.Go(1, func(w *Worker) error { ran.Add(1); return nil })
	if err := p.Wait(); err != nil || ran.Load() != 1 {
		t.Fatalf("clamped pool: err=%v ran=%d", err, ran.Load())
	}
}

func TestStealRunsEverything(t *testing.T) {
	// One long task pins worker 0; the rest of its round-robined queue
	// must be stolen by the idle workers.
	p := New(Config{Workers: 4})
	block := make(chan struct{})
	p.Go(1000, func(w *Worker) error { <-block; return nil })
	var ran atomic.Int64
	done := make(chan struct{})
	for i := 0; i < 99; i++ {
		p.Go(1, func(w *Worker) error {
			if ran.Add(1) == 99 {
				close(done)
			}
			return nil
		})
	}
	<-done // all 99 finish while worker 0 is still blocked
	close(block)
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := ran.Load(); got != 99 {
		t.Fatalf("ran %d, want 99", got)
	}
}
