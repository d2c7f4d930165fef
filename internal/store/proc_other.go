//go:build !unix

package store

import (
	"errors"
	"os"
)

// errNoSpace is the injected FaultENOSPC error.
var errNoSpace = errors.New("no space left on device")

// pidAlive cannot probe liveness without unix signals; stale-lock
// takeover falls back to the DefaultLockTTL age check.
func pidAlive(pid int) (alive, known bool) { return false, false }

// killSelf approximates SIGKILL with an immediate exit.
func killSelf() { os.Exit(137) }
