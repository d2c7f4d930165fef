package main

// The regression comparator: `srebench -compare old new` diffs two
// measurement files and attributes the end-to-end delta to individual
// cells (benchmark rows) or stages/prefixes (flight-recorder event
// logs). It understands two formats, auto-detected per file:
//
//   - BENCH_<exp>.json row arrays written by `srebench -metricsdir`
//     (cells keyed by experiment/dataset/system/k);
//   - NDJSON event logs written by `sre -events-out` (wall time
//     aggregated per stage and per prefix).
//
// Environments must match (same CPU, Go version, kernel, ...); a
// mismatch is a refusal (exit 2) unless -allow-env-mismatch downgrades
// it to a warning. A slowdown is a regression when the new/old ratio
// exceeds -threshold AND the absolute delta exceeds -mindelta; any
// regression (or an ok→non-ok outcome flip) exits 1, so CI can gate on
// it. Exit 0 means comparable and within threshold.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"sre/internal/obs"
)

// measurement is one comparable quantity extracted from a file.
type measurement struct {
	seconds float64
	outcome string
}

// measureSet is the parsed, keyed content of one measurement file.
type measureSet struct {
	path  string
	kind  string // "bench" or "events"
	env   obs.EnvInfo
	m     map[string]measurement
	order []string // insertion order, for stable output
	// experiment is the experiment name of a bench file (baseline
	// resolution); empty for event logs.
	experiment string
}

func (s *measureSet) add(key string, sec float64, outcome string) {
	if _, ok := s.m[key]; !ok {
		s.order = append(s.order, key)
	}
	prev := s.m[key]
	if prev.outcome == "" || prev.outcome == "ok" {
		prev.outcome = outcome
	}
	prev.seconds += sec
	s.m[key] = prev
}

// loadMeasurements parses path, auto-detecting the format by its first
// non-space byte: '[' is a benchRow array, '{' an NDJSON event log.
func loadMeasurements(path string) (*measureSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s := &measureSet{path: path, m: make(map[string]measurement)}
	trimmed := strings.TrimSpace(string(data))
	switch {
	case strings.HasPrefix(trimmed, "["):
		var rows []benchRow
		if err := json.Unmarshal([]byte(trimmed), &rows); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		s.kind = "bench"
		for _, r := range rows {
			if s.experiment == "" {
				s.experiment = r.Experiment
			}
			if s.env.IsZero() && r.Env != nil {
				s.env = *r.Env
			}
			if r.Outcome == "skipped" {
				continue
			}
			key := fmt.Sprintf("%s/%s", r.Experiment, r.Dataset)
			if r.System != "" {
				key += "/" + r.System
			}
			key += fmt.Sprintf("/k=%d", r.K)
			if r.Parallelism != 0 {
				key += fmt.Sprintf("/p=%d", r.Parallelism)
			}
			s.add(key, r.Seconds, r.Outcome)
		}
	case strings.HasPrefix(trimmed, "{"):
		hdr, events, err := obs.ReadEventLog(strings.NewReader(trimmed))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		s.kind = "events"
		s.env = hdr.Env
		for _, e := range events {
			sec := float64(e.Wall) / 1e9
			s.add("stage "+e.Stage, sec, e.Outcome)
			// Prefix attribution over the pipeline stages only: the
			// "prefix" and "coord.task" events enclose them and would
			// double-count.
			if e.Prefix != "" && (e.Stage == "src" || e.Stage == "spf") {
				s.add("prefix "+e.Prefix, sec, e.Outcome)
			}
		}
	default:
		return nil, fmt.Errorf("%s: unrecognized format (want a JSON array of bench rows or an NDJSON event log)", path)
	}
	return s, nil
}

// delta is one compared key.
type delta struct {
	key      string
	old, new measurement
	ratio    float64
}

// regressed reports whether d fails the gate: slower than threshold×
// and past the noise floor, or an ok measurement turning non-ok.
func (d delta) regressed() bool {
	if d.old.outcome == "ok" && d.new.outcome != "ok" && d.new.outcome != "" {
		return true
	}
	return d.ratio > *threshold && d.new.seconds-d.old.seconds >= minDelta.Seconds()
}

// runCompare implements `srebench -compare`; it returns the process
// exit code (0 comparable and within threshold, 1 regression, 2 usage,
// file, or environment-mismatch error).
func runCompare(args []string) int {
	fail := func(format string, a ...interface{}) int {
		fmt.Fprintf(os.Stderr, "srebench: "+format+"\n", a...)
		return 2
	}
	var oldPath, newPath string
	switch {
	case len(args) == 2:
		oldPath, newPath = args[0], args[1]
	case len(args) == 1 && *baselineDir != "":
		newPath = args[0]
	default:
		return fail("usage: srebench -compare <old> <new>  |  srebench -compare -baseline <dir> <new>")
	}
	newSet, err := loadMeasurements(newPath)
	if err != nil {
		return fail("%v", err)
	}
	if oldPath == "" {
		if newSet.kind != "bench" {
			return fail("-baseline resolution needs a BENCH_*.json row file, got an event log (%s)", newPath)
		}
		oldPath = filepath.Join(*baselineDir, "BENCH_"+newSet.experiment+".json")
	}
	oldSet, err := loadMeasurements(oldPath)
	if err != nil {
		return fail("%v", err)
	}
	if oldSet.kind != newSet.kind {
		return fail("cannot compare a %s file with a %s file", oldSet.kind, newSet.kind)
	}

	if mis := oldSet.env.Mismatch(newSet.env); len(mis) > 0 {
		fmt.Fprintf(os.Stderr, "srebench: environments differ:\n")
		for _, m := range mis {
			fmt.Fprintf(os.Stderr, "  %s\n", m)
		}
		if !*allowEnvMis {
			fmt.Fprintln(os.Stderr, "srebench: refusing to compare (pass -allow-env-mismatch to override)")
			return 2
		}
		fmt.Fprintln(os.Stderr, "srebench: comparing anyway (-allow-env-mismatch)")
	}

	var deltas []delta
	var missing, added []string
	var oldTotal, newTotal float64
	for _, key := range oldSet.order {
		o := oldSet.m[key]
		n, ok := newSet.m[key]
		if !ok {
			missing = append(missing, key)
			continue
		}
		d := delta{key: key, old: o, new: n}
		if o.seconds > 0 {
			d.ratio = n.seconds / o.seconds
		} else if n.seconds > 0 {
			d.ratio = float64(^uint(0) >> 1) // 0 → something: infinite
		} else {
			d.ratio = 1
		}
		oldTotal += o.seconds
		newTotal += n.seconds
		deltas = append(deltas, d)
	}
	for _, key := range newSet.order {
		if _, ok := oldSet.m[key]; !ok {
			added = append(added, key)
		}
	}

	fmt.Printf("compare %s (%d keys) -> %s (%d keys), threshold %.2fx\n",
		oldPath, len(oldSet.m), newPath, len(newSet.m), *threshold)
	fmt.Printf("total: %.3fs -> %.3fs (%s)\n", oldTotal, newTotal, fmtRatio(oldTotal, newTotal))
	for _, k := range missing {
		fmt.Printf("  warning: %q only in old file\n", k)
	}
	for _, k := range added {
		fmt.Printf("  warning: %q only in new file\n", k)
	}

	// Top-K by absolute delta, regressions first.
	sort.Slice(deltas, func(i, j int) bool {
		di := deltas[i].new.seconds - deltas[i].old.seconds
		dj := deltas[j].new.seconds - deltas[j].old.seconds
		return abs(di) > abs(dj)
	})
	regressions := 0
	t := newTable("", "key", "old", "new", "ratio", "outcome")
	shown := 0
	for _, d := range deltas {
		bad := d.regressed()
		if bad {
			regressions++
		}
		if shown >= *topK && !bad {
			continue
		}
		mark := " "
		if bad {
			mark = "!"
		}
		out := d.new.outcome
		if d.old.outcome != d.new.outcome {
			out = d.old.outcome + "->" + d.new.outcome
		}
		t.addf("%s|%s|%.3fs|%.3fs|%s|%s", mark, d.key,
			d.old.seconds, d.new.seconds, fmtRatio(d.old.seconds, d.new.seconds), out)
		shown++
	}
	t.print()
	if regressions > 0 {
		fmt.Printf("FAIL: %d regression(s) past %.2fx (min delta %s)\n", regressions, *threshold, *minDelta)
		return 1
	}
	fmt.Println("ok: no regressions past threshold")
	return 0
}

func fmtRatio(old, new float64) string {
	if old <= 0 {
		if new <= 0 {
			return "1.00x"
		}
		return "new"
	}
	return fmt.Sprintf("%.2fx", new/old)
}

func abs(f float64) float64 {
	if f < 0 {
		return -f
	}
	return f
}
