package coord

// Deterministic fault injection: a plan names which task attempts fail
// and how, so the test suite (and a CI smoke run) can drive every
// supervision path — crash detection, heartbeat loss, corrupt frames,
// nonzero exits, retries, quarantine — with reproducible runs.
//
// Plan syntax: ';'-separated entries of the form
//
//	kind@taskSeq[#attempt]
//
// where kind is one of crash, kill, stall, corrupt, exit; taskSeq is
// the task's index in the coordinator's cost-ordered dispatch sequence
// (stable across runs); attempt selects which attempt faults (default
// 0, so a retried task converges). Example:
//
//	SRE_FAULT='crash@0;stall@2;corrupt@3#1'
//
// Kinds:
//
//	crash   — exit immediately with status 137, before any result byte
//	kill    — SIGKILL self: no exit handlers, no flushes (unix only;
//	          falls back to crash elsewhere)
//	stall   — stop heartbeating and hang; the coordinator detects
//	          heartbeat loss and kills the worker
//	corrupt — emit a well-framed garbage payload, then exit 1; the
//	          coordinator sees a decode failure
//	exit    — exit with status 3 without a result (a worker that died
//	          politely)
//
// Disk-fault kinds (torn, flip, enospc, rename, killwrite — see
// internal/store) ride the same syntax but are indexed by the process's
// persistent-store Put sequence, not the task sequence: `torn@1` tears
// the second record this process publishes. They apply only to runs
// carrying a cache directory and are matched by FaultPlan.DiskFault,
// never by the per-task lookup.
//
// The plan is read from the SRE_FAULT environment variable — the only
// fault input: the coordinator validates it, and workers inherit it.

import (
	"fmt"
	"strconv"
	"strings"

	"sre/internal/store"
)

// FaultEnv is the environment variable carrying the fault plan.
const FaultEnv = "SRE_FAULT"

const (
	faultCrash   = "crash"
	faultKill    = "kill"
	faultStall   = "stall"
	faultCorrupt = "corrupt"
	faultExit    = "exit"
)

type faultEntry struct {
	kind    string
	seq     int
	attempt int
}

// FaultPlan is a parsed fault-injection plan. The zero value (and nil)
// injects nothing.
type FaultPlan struct {
	entries []faultEntry
}

// ParseFaultPlan parses the plan syntax above. An empty string is the
// empty plan (nil).
func ParseFaultPlan(s string) (*FaultPlan, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	p := &FaultPlan{}
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kind, rest, ok := strings.Cut(part, "@")
		if !ok {
			return nil, fmt.Errorf("coord: fault entry %q missing @taskSeq", part)
		}
		switch {
		case kind == faultCrash, kind == faultKill, kind == faultStall,
			kind == faultCorrupt, kind == faultExit:
		case store.IsDiskFault(kind):
		default:
			return nil, fmt.Errorf("coord: unknown fault kind %q (want crash, kill, stall, corrupt, exit, or a disk fault: torn, flip, enospc, rename, killwrite)", kind)
		}
		seqStr, attemptStr, hasAttempt := strings.Cut(rest, "#")
		seq, err := strconv.Atoi(seqStr)
		if err != nil || seq < 0 {
			return nil, fmt.Errorf("coord: fault entry %q has bad task index", part)
		}
		attempt := 0
		if hasAttempt {
			attempt, err = strconv.Atoi(attemptStr)
			if err != nil || attempt < 0 {
				return nil, fmt.Errorf("coord: fault entry %q has bad attempt", part)
			}
		}
		p.entries = append(p.entries, faultEntry{kind: kind, seq: seq, attempt: attempt})
	}
	if len(p.entries) == 0 {
		return nil, nil
	}
	return p, nil
}

// at returns the fault kind to inject for (task seq, attempt), or "".
// Disk faults never match here: they are keyed by store Put index.
func (p *FaultPlan) at(seq, attempt int) string {
	if p == nil {
		return ""
	}
	for _, e := range p.entries {
		if e.seq == seq && e.attempt == attempt && !store.IsDiskFault(e.kind) {
			return e.kind
		}
	}
	return ""
}

// DiskFault returns the disk-fault kind planned for the process's
// index-th store Put (0-based), or "". It has the store.FaultFunc
// shape, so a plan plugs straight into store.Options.Fault.
func (p *FaultPlan) DiskFault(index int) string {
	if p == nil {
		return ""
	}
	for _, e := range p.entries {
		if e.seq == index && e.attempt == 0 && store.IsDiskFault(e.kind) {
			return e.kind
		}
	}
	return ""
}
