package bdd

import (
	"errors"
	"testing"

	"sre/internal/resil"
)

// TestInterruptAbortsApply installs an Interrupt hook that trips after a
// fixed number of polls and checks that a large conjunction unwinds with
// the hook's error instead of completing or crashing.
func TestInterruptAbortsApply(t *testing.T) {
	sentinel := errors.New("stop now")
	polls := 0
	m := New(Config{Vars: 64, Interrupt: func() error {
		polls++
		if polls > 2 {
			return sentinel
		}
		return nil
	}})

	err := func() (err error) {
		defer resil.Catch("bdd", &err)
		// Enough structure to force many mk/apply steps: the parity
		// function over 64 variables has an exponential-free but deep
		// BDD, and repeated XOR keeps the loops busy.
		f := False
		for round := 0; round < 1000; round++ {
			for v := 0; v < 64; v++ {
				f = m.Xor(f, m.Var(v))
			}
		}
		_ = f
		return nil
	}()
	if !errors.Is(err, sentinel) {
		t.Fatalf("got %v, want the interrupt sentinel", err)
	}
}

// TestInterruptNilHookIsFree checks the no-hook path still works.
func TestInterruptNilHookIsFree(t *testing.T) {
	m := New(Config{Vars: 8})
	f := m.And(m.Var(0), m.Var(1))
	if f == False {
		t.Fatal("unexpected False")
	}
}
