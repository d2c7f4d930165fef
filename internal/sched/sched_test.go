package sched

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"sre/internal/obs"
	"sre/internal/resil"
)

func TestSingleWorkerRunsInListOrder(t *testing.T) {
	var order []int64
	var tasks []Task
	for _, c := range []int64{3, 7, 7, 1, 9} {
		tasks = append(tasks, Task{Cost: c, Run: func(w *Worker) error {
			order = append(order, c)
			return nil
		}})
	}
	if err := Run(Config{Workers: 1}, tasks); err != nil {
		t.Fatal(err)
	}
	// The list is the schedule: costs are recorded, never reordered on.
	want := []int64{3, 7, 7, 1, 9}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("execution order %v, want %v", order, want)
		}
	}
}

func TestAbortDropsQueuedTasks(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int64
	tasks := []Task{{Cost: 1, Run: func(w *Worker) error { ran.Add(1); return nil }},
		{Cost: 1, Run: func(w *Worker) error { return boom }}}
	for i := 0; i < 5; i++ {
		tasks = append(tasks, Task{Cost: 1, Run: func(w *Worker) error { ran.Add(1); return nil }})
	}
	if err := Run(Config{Workers: 1}, tasks); !errors.Is(err, boom) {
		t.Fatalf("Run = %v, want the task error", err)
	}
	if got := ran.Load(); got != 1 {
		t.Fatalf("%d tasks ran, want 1: nothing is claimed after the error", got)
	}
}

func TestPanicFirewall(t *testing.T) {
	tel := obs.New()
	err := Run(Config{Workers: 2, Telemetry: tel},
		[]Task{{Cost: 1, Run: func(w *Worker) error { panic("kaboom") }}})
	if !errors.Is(err, resil.ErrInternal) {
		t.Fatalf("Run = %v, want resil.ErrInternal", err)
	}
	if got := tel.Snapshot().Counters["resilience.panics"]; got != 1 {
		t.Fatalf("resilience.panics = %d, want 1", got)
	}
}

func TestInterruptAbortsPool(t *testing.T) {
	stop := errors.New("interrupted")
	var tripped atomic.Bool
	var ran atomic.Int64
	tasks := make([]Task, 100)
	for i := range tasks {
		tasks[i] = Task{Cost: 1, Run: func(w *Worker) error {
			if ran.Add(1) == 3 {
				tripped.Store(true)
			}
			return nil
		}}
	}
	err := Run(Config{Workers: 2, Interrupt: func() error {
		if tripped.Load() {
			return stop
		}
		return nil
	}}, tasks)
	if !errors.Is(err, stop) {
		t.Fatalf("Run = %v, want the interrupt error", err)
	}
	if got := ran.Load(); got == 100 {
		t.Fatal("interrupt did not stop any claim")
	}
}

func TestTelemetryShardsMerge(t *testing.T) {
	tel := obs.New()
	tasks := make([]Task, 40)
	for i := range tasks {
		tasks[i] = Task{Cost: 1, Run: func(w *Worker) error {
			w.Tel.Counter("test.tasks").Inc()
			w.Tel.Gauge("test.high").Max(float64(w.ID))
			return nil
		}}
	}
	if err := Run(Config{Workers: 4, Telemetry: tel}, tasks); err != nil {
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

// TestBlockedWorkerHoldsNoTask pins the claim loop: a worker pinned by a
// long task holds no unclaimed work, so the idle workers run everything
// behind it while it is still blocked.
func TestBlockedWorkerHoldsNoTask(t *testing.T) {
	block := make(chan struct{})
	done := make(chan struct{})
	var ran atomic.Int64
	tasks := []Task{{Cost: 1000, Run: func(w *Worker) error { <-block; return nil }}}
	for i := 0; i < 99; i++ {
		tasks = append(tasks, Task{Cost: 1, Run: func(w *Worker) error {
			if ran.Add(1) == 99 {
				close(done)
			}
			return nil
		}})
	}
	errc := make(chan error, 1)
	go func() { errc <- Run(Config{Workers: 4}, tasks) }()
	<-done // all 99 finish while the first worker is still blocked
	close(block)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// TestStress is the scheduler's -race workout: several rounds of many
// tiny tasks on few workers with one injected mid-run cancellation in
// every other round, so claims, sharded telemetry and the stop path all
// interleave.
func TestStress(t *testing.T) {
	stop := errors.New("canceled")
	for round := 0; round < 8; round++ {
		tel := obs.New()
		var tripped atomic.Bool
		var ran atomic.Int64
		cancelAt := int64(100 + round*50)
		tasks := make([]Task, 400)
		for i := range tasks {
			tasks[i] = Task{Cost: int64(i % 7), Run: func(w *Worker) error {
				w.Tel.Counter("stress.tasks").Inc()
				if ran.Add(1) == cancelAt && round%2 == 0 {
					tripped.Store(true)
				}
				return nil
			}}
		}
		err := Run(Config{
			Workers:   3,
			Telemetry: tel,
			Interrupt: func() error {
				if tripped.Load() {
					return stop
				}
				return nil
			},
		}, tasks)
		canceled := tripped.Load()
		if canceled && !errors.Is(err, stop) {
			t.Fatalf("round %d: Run = %v, want the injected cancellation", round, err)
		}
		if !canceled && err != nil {
			t.Fatalf("round %d: Run = %v", round, err)
		}
		got := tel.Snapshot().Counters["stress.tasks"]
		if got != ran.Load() {
			t.Fatalf("round %d: merged task counter = %d, tasks run %d", round, got, ran.Load())
		}
		if !canceled && got != 400 {
			t.Fatalf("round %d: merged task counter = %d, want 400", round, got)
		}
	}
}

func TestDefaultWorkers(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Fatalf("DefaultWorkers() = %d", DefaultWorkers())
	}
	// Workers below 1 are clamped rather than rejected; an empty list is
	// a finished run.
	var mu sync.Mutex
	ran := 0
	err := Run(Config{Workers: 0}, []Task{{Cost: 1, Run: func(w *Worker) error {
		mu.Lock()
		ran++
		mu.Unlock()
		return nil
	}}})
	if err != nil || ran != 1 {
		t.Fatalf("clamped run: err=%v ran=%d", err, ran)
	}
	if err := Run(Config{Workers: 3}, nil); err != nil {
		t.Fatalf("empty run: %v", err)
	}
}
