package resil

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestStageWrapping(t *testing.T) {
	err := Stage("src", fmt.Errorf("wrapped: %w", ErrNoConvergence))
	if StageOf(err) != "src" {
		t.Fatalf("stage = %q, want src", StageOf(err))
	}
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatal("stage wrapping must preserve the sentinel")
	}
	// Innermost stage wins; re-wrapping is a no-op.
	outer := Stage("mine", err)
	if StageOf(outer) != "src" {
		t.Fatalf("re-wrap changed stage to %q", StageOf(outer))
	}
	if Stage("x", nil) != nil {
		t.Fatal("Stage(nil) must be nil")
	}
}

func TestStageErrorRouters(t *testing.T) {
	e := &StageError{Stage: "src", Routers: []string{"A", "B"}, Err: ErrNoConvergence}
	msg := e.Error()
	for _, want := range []string{"src:", "A", "B", "did not converge"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error %q missing %q", msg, want)
		}
	}
	if !Interruption(ErrCanceled) || !Interruption(ErrDeadline) || Interruption(ErrNoConvergence) {
		t.Fatal("Interruption classification wrong")
	}
}

// TestNilCheckerIsNoop pins the hook the pipeline installs when a run
// has neither context nor timeout: no checker, hence no hook, so the
// BDD manager and engine skip polling entirely. A checker on a context
// that never ends is real but never trips.
func TestNilCheckerIsNoop(t *testing.T) {
	if hook := NewSharedChecker(nil, 0).Fn(); hook != nil {
		t.Fatal("no context and no timeout must yield no interrupt hook")
	}
	hook := NewSharedChecker(context.Background(), 0).Fn()
	if hook == nil {
		t.Fatal("a checker on a live context must yield a hook")
	}
	for i := 0; i < 100; i++ {
		if err := hook(); err != nil {
			t.Fatalf("hook on a context that never ends tripped: %v", err)
		}
	}
}

// TestCheckerCancel cancels a run and polls it the way the pipeline
// does, through the Fn hook: the cancellation surfaces on the next
// call, and the hook and Check latch the same error from then on.
func TestCheckerCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	c := NewSharedChecker(ctx, 0)
	hook := c.Fn()
	if err := hook(); err != nil {
		t.Fatalf("premature trip: %v", err)
	}
	cancel()
	err := hook()
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
	if errors.Is(err, ErrDeadline) {
		t.Fatalf("cancellation misreported as a deadline: %v", err)
	}
	// Sticky across both entry points.
	if hook() != err || c.Check() != err {
		t.Fatal("checker must latch its error")
	}
}

// TestCheckerDeadline runs a wall-clock budget out through the Fn hook:
// silent while the budget lasts, ErrDeadline naming the budget after.
func TestCheckerDeadline(t *testing.T) {
	const budget = time.Hour
	if err := NewSharedChecker(nil, budget).Fn()(); err != nil {
		t.Fatalf("tripped inside a %s budget: %v", budget, err)
	}
	hook := NewSharedChecker(nil, time.Nanosecond).Fn()
	time.Sleep(time.Millisecond)
	err := hook()
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("got %v, want ErrDeadline", err)
	}
	if !strings.Contains(err.Error(), time.Nanosecond.String()) {
		t.Fatalf("deadline error %q does not name its budget", err)
	}
}

func TestNilSharedCheckerIsNoop(t *testing.T) {
	var c *SharedChecker
	if c.Check() != nil || c.Fn() != nil {
		t.Fatal("nil shared checker must be a no-op")
	}
	if NewSharedChecker(nil, 0) != nil {
		t.Fatal("NewSharedChecker with no context and no timeout should return nil")
	}
}

func TestSharedCheckerCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	c := NewSharedChecker(ctx, 0)
	if err := c.Check(); err != nil {
		t.Fatalf("premature trip: %v", err)
	}
	cancel()
	err := c.Check()
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
	// Sticky: every later check returns the latched error.
	if again := c.Check(); again != err {
		t.Fatalf("second check = %v, want the latched %v", again, err)
	}
}

func TestSharedCheckerDeadline(t *testing.T) {
	c := NewSharedChecker(nil, time.Nanosecond)
	time.Sleep(time.Millisecond)
	if err := c.Check(); !errors.Is(err, ErrDeadline) {
		t.Fatalf("got %v, want ErrDeadline", err)
	}
}

func TestSharedCheckerContextDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	c := NewSharedChecker(ctx, 0)
	if err := c.Check(); !errors.Is(err, ErrDeadline) {
		t.Fatalf("context deadline should map to ErrDeadline, got %v", err)
	}
}

// TestSharedCheckerConcurrent trips the checker while many goroutines
// poll it: every caller after the trip must observe the SAME error
// value (first writer wins), and -race vets the implementation.
func TestSharedCheckerConcurrent(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := NewSharedChecker(ctx, 0)
	var wg sync.WaitGroup
	errs := make([]error, 16)
	for i := range errs {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; ; j++ {
				if err := c.Check(); err != nil {
					errs[i] = err
					return
				}
				if j == 0 {
					cancel()
				}
			}
		}()
	}
	wg.Wait()
	first := errs[0]
	for i, err := range errs {
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("goroutine %d got %v, want ErrCanceled", i, err)
		}
		if err != first {
			t.Fatalf("goroutine %d observed a different error instance: %v vs %v", i, err, first)
		}
	}
}

// TestCatchBoundary checks the one panic boundary: a thrown error of any
// kind and a bare overflow or interruption come back as the error,
// tagged with the region's stage; any other panic keeps unwinding.
func TestCatchBoundary(t *testing.T) {
	region := func(v any) (err error) {
		defer Catch("spf", &err)
		panic(v)
	}
	setup := errors.New("bad session")
	for _, c := range []struct {
		name string
		v    any
		want error
	}{
		{"thrown", thrown{setup}, setup},
		{"thrown overflow", thrown{ErrNodeLimit}, ErrNodeLimit},
		{"bare overflow", fmt.Errorf("table full: %w", ErrNodeLimit), ErrNodeLimit},
		{"bare interruption", Stage("src", ErrCanceled), ErrCanceled},
	} {
		err := region(c.v)
		if !errors.Is(err, c.want) || StageOf(err) == "" {
			t.Errorf("%s: err = %v, want %v with a stage", c.name, err, c.want)
		}
	}
	for _, v := range []any{"corrupted", errors.New("a defect")} {
		func() {
			defer func() {
				if r := recover(); r != v {
					t.Errorf("panic %v became %v, want it to keep unwinding", v, r)
				}
			}()
			_ = region(v)
		}()
	}
}
