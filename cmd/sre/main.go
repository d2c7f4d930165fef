// Command sre is the command-line network configuration verifier: it
// loads a network description (topology + router configurations in the
// textual format of the config package), symbolically executes it, and
// answers property queries.
//
// Usage:
//
//	sre -config net.txt tolerance  <router> <prefix>
//	sre -config net.txt waypoint   <router> <prefix> <waypoint>
//	sre -config net.txt isolation  <router> <prefix>
//	sre -config net.txt probability <router> <prefix> [-plink 0.001] [-pnode 0]
//	sre -config net.txt loadbalance <router> <prefix>
//	sre -config net.txt mine                      # all specs
//	sre -config net.txt diff -after net2.txt      # config diffing
//	sre -config net.txt pfecs                     # PFEC summary
//	sre -config net.txt -reqs reqs.txt check      # verify a requirements file
//
// Global flags: -k (failure budget, default 3), -noecmp.
// Resilience flags: -timeout bounds the run's wall-clock time (exit 124
// on expiry), Ctrl-C cancels cooperatively (exit 130), and -resilient
// quarantines prefixes that overflow the BDD node table (capped by
// -nodelimit) and retries them at halved failure budgets instead of
// failing the whole run; a prefix verified at a halved budget is
// reported on stderr and its answers are lower bounds for the requested
// -k.
// Observability flags: -metrics <file> writes a JSON metrics report,
// -progress prints live progress lines to stderr (an in-place status
// line on a terminal, plain lines when piped), -trace-out <file> writes
// a Chrome trace_event JSON viewable at ui.perfetto.dev, -events-out
// <file> writes an NDJSON flight-recorder log for `srebench -compare`,
// -quiet suppresses the stderr chatter, and -pprof <addr> serves
// net/http/pprof. Flags may appear before or after the command. A
// one-line summary (stage timings, peak BDD nodes) prints to stderr
// after the command unless -quiet.
// Multi-process verification: -workers N fork/execs N `sre worker`
// subprocesses and verifies prefixes across them under coordinator
// supervision — crashed or wedged workers are detected (process exit,
// heartbeat loss, undecodable frames), their tasks retried with backoff
// on respawned workers, and prefixes that keep crashing fall back to
// in-process verification. Results are byte-identical to an in-process
// -parallel run. `sre worker` is the internal worker subcommand; it
// speaks a framed protocol on stdin/stdout and is not for direct use.
//
// Exit code contract (stable; scripts and CI may rely on it):
//
//	0   success
//	1   verification or query error (also: failed `check` requirements)
//	2   usage error
//	3   success, but at least one prefix was re-verified in-process
//	    after repeated worker crashes (-workers only; results are
//	    still exact — the code attributes the crashes)
//	124 wall-clock budget expired (-timeout), matching timeout(1)
//	130 interrupted by Ctrl-C (SIGINT), matching shell convention
//
// The check command exits non-zero when any requirement fails, so it
// slots into CI pipelines that gate configuration changes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"sort"
	"time"

	"sre"
	"sre/internal/bdd"
	"sre/internal/coord"
	"sre/internal/obs"
)

var (
	configPath  = flag.String("config", "", "network description file (required)")
	afterPath   = flag.String("after", "", "changed network file (diff command)")
	reqsPath    = flag.String("reqs", "", "requirements file (check command)")
	kFlag       = flag.Int("k", 3, "failure budget: explore up to k simultaneous link failures (-1 = all)")
	noECMP      = flag.Bool("noecmp", false, "disable multipath route selection")
	pLink       = flag.Float64("plink", 0.001, "link failure probability (probability command)")
	pNode       = flag.Float64("pnode", 0, "node failure probability (probability command; 0 = links only)")
	metricsPath = flag.String("metrics", "", "write a JSON metrics report to this file")
	progress    = flag.Bool("progress", false, "print live progress lines to stderr")
	pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	timeoutFlag = flag.Duration("timeout", 0, "wall-clock budget for the run (e.g. 30s; 0 = none)")
	resilient   = flag.Bool("resilient", false, "degrade gracefully when the BDD node table overflows: quarantine the offending prefix, retry it at halved failure budgets (its answers are then lower bounds for -k), and complete the rest")
	nodeLimit   = flag.Int("nodelimit", 0, "BDD node table cap, 0 (package default, 2^26) to 2^27 nodes; overflowing it fails the run, or degrades it under -resilient")
	parallel    = flag.Int("parallel", 0, "worker count for per-prefix parallel verification (0 = one per CPU, 1 = one at a time)")
	workers     = flag.Int("workers", 0, "verify across this many supervised worker subprocesses; crashed workers are retried and, past the attempt budget, their prefixes re-verified in-process (exit 3). 0 = in-process")
	traceOut    = flag.String("trace-out", "", "write a Chrome trace_event JSON file of the run (view at ui.perfetto.dev)")
	eventsOut   = flag.String("events-out", "", "write an NDJSON flight-recorder event log (input of srebench -compare)")
	quiet       = flag.Bool("quiet", false, "suppress progress, summary, and resilience lines on stderr")
	cacheDir    = flag.String("cache-dir", "", "persistent result cache directory: finished prefixes are published there and replayed by later runs; corrupt records are quarantined and recomputed. Shared safely across processes; also the target of the `cache` maintenance command")
	gcMaxBytes  = flag.Int64("cache-max-bytes", 0, "cache gc: evict oldest records until the store fits this many bytes (0 = no size budget)")
	gcMaxAge    = flag.Duration("cache-max-age", 0, "cache gc: evict records older than this (e.g. 720h; 0 = no age budget)")
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: sre -config <file> <command> [args]")
	fmt.Fprintln(os.Stderr, "commands: tolerance, waypoint, isolation, probability, loadbalance, mine, diff, pfecs, check, cache")
	os.Exit(2)
}

// parseCommandArgs re-parses flags that appear after the command name
// (e.g. "sre -metrics out.json check -config net.txt" or
// "sre -config net.txt probability A 10.0.0.0/8 -plink 0.01") and
// returns the positional arguments.
func parseCommandArgs(args []string) []string {
	var pos []string
	for len(args) > 0 {
		if err := flag.CommandLine.Parse(args); err != nil {
			fatal(err)
		}
		args = flag.CommandLine.Args()
		if len(args) == 0 {
			break
		}
		pos = append(pos, args[0])
		args = args[1:]
	}
	return pos
}

func main() {
	// The worker subcommand must win before flag parsing: workers speak
	// a framed binary protocol on stdin/stdout and share no flags with
	// the coordinator-facing CLI.
	if len(os.Args) > 1 && os.Args[1] == "worker" {
		os.Exit(coord.WorkerMain(os.Stdin, os.Stdout, os.Stderr))
	}
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}
	cmd := args[0]
	rest := parseCommandArgs(args[1:])
	// The cache maintenance command operates on the store alone — no
	// network, no verification.
	if cmd == "cache" {
		os.Exit(runCache(rest))
	}
	if *configPath == "" {
		usage()
	}
	if err := bdd.CheckNodeLimit(*nodeLimit); err != nil {
		fmt.Fprintln(os.Stderr, "sre:", err)
		os.Exit(2)
	}
	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "sre: pprof:", err)
			}
		}()
	}
	net, err := sre.LoadNetwork(*configPath)
	if err != nil {
		fatal(err)
	}
	// Ctrl-C cancels the run cooperatively: the pipeline polls the
	// context and aborts with ErrCanceled instead of dying mid-write.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSignals()
	tel := sre.NewTelemetry()
	opts := sre.Options{MaxFailures: *kFlag, NoECMP: *noECMP,
		Telemetry: tel, Context: ctx, Timeout: *timeoutFlag, Resilient: *resilient,
		BDDNodeLimit: *nodeLimit, Parallelism: *parallel, Workers: *workers}
	if *progress && !*quiet {
		opts.Progress = sre.StderrProgress()
	}
	if *cacheDir != "" {
		st, err := sre.OpenStore(*cacheDir, sre.StoreOptions{Telemetry: tel})
		if err != nil {
			fatal(err)
		}
		opts.Store = st
	}
	var rec *sre.FlightRecorder
	if *traceOut != "" || *eventsOut != "" {
		rec = sre.NewFlightRecorder(0)
		opts.Recorder = rec
	}
	start := time.Now()
	exitCode := 0
	var v *sre.Verifier

	switch cmd {
	case "mine":
		specs, err := sre.MineSpecs(net, *kFlag, opts)
		if err != nil {
			fatal(err)
		}
		printSpecs(net, specs, *kFlag)
		if len(specs.Outcomes) > 0 {
			outs := make([]sre.PrefixOutcome, 0, len(specs.Outcomes))
			for _, o := range specs.Outcomes {
				outs = append(outs, o)
			}
			sort.Slice(outs, func(i, j int) bool { return outs[i].Prefix.String() < outs[j].Prefix.String() })
			printOutcomes(outs)
		}
	case "diff":
		if *afterPath == "" {
			fatal(fmt.Errorf("diff needs -after <file>"))
		}
		after, err := sre.LoadNetwork(*afterPath)
		if err != nil {
			fatal(err)
		}
		diffs, err := sre.Diff(net, after, *kFlag, sre.LinkFailures(*pLink), opts)
		if err != nil {
			fatal(err)
		}
		printDiffs(diffs)
	default:
		v, err = sre.NewVerifier(net, opts)
		if err != nil {
			fatal(err)
		}
		defer v.Release()
		printOutcomes(v.Outcomes())
		exitCode = runQuery(v, cmd, rest)
		// Exit 3 attributes worker crashes on otherwise-successful runs;
		// a real failure (nonzero exitCode) takes precedence.
		if exitCode == 0 && v.CrashDegraded() {
			if !*quiet {
				fmt.Fprintln(os.Stderr, "sre: run degraded by worker crashes; results are exact (in-process fallback); exit 3")
			}
			exitCode = 3
		}
	}
	finish(v, tel, start)
	writeExports(rec)
	os.Exit(exitCode)
}

// runCache executes the store maintenance subcommands:
//
//	sre cache stats  -cache-dir <dir>   # inventory, no records opened
//	sre cache verify -cache-dir <dir>   # full fsck: re-checksum every record
//	sre cache gc     -cache-dir <dir> [-cache-max-bytes N] [-cache-max-age D]
//
// verify exits 1 when it quarantines anything (the store self-healed,
// but CI probably wants to know); stats and gc exit 0 unless the
// directory itself is unreadable.
func runCache(rest []string) int {
	if len(rest) != 1 || *cacheDir == "" {
		fmt.Fprintln(os.Stderr, "usage: sre cache <stats|verify|gc> -cache-dir <dir> [-cache-max-bytes N] [-cache-max-age D]")
		return 2
	}
	st, err := sre.OpenStore(*cacheDir, sre.StoreOptions{})
	if err != nil {
		fatal(err)
	}
	switch rest[0] {
	case "stats":
		s, err := st.Stats()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("records %d (%s), quarantined %d (%s), temp files %d\n",
			s.Records, obs.HumanCount(s.Bytes), s.QuarantinedFiles,
			obs.HumanCount(s.QuarantinedBytes), s.TempFiles)
	case "verify":
		r, err := st.Verify()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("checked %d records: %d ok, %d quarantined, %d stale temps reaped\n",
			r.Checked, r.OK, r.Quarantined, r.TempsReaped)
		for _, f := range r.Failures {
			fmt.Printf("  quarantined %s (%s): %s\n", f.Key, f.Path, f.Reason)
		}
		if r.Quarantined > 0 {
			return 1
		}
	case "gc":
		r, err := st.GC(sre.StoreGCOptions{MaxBytes: *gcMaxBytes, MaxAge: *gcMaxAge})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("evicted %d records (%s), swept %d quarantined, reaped %d temps; %d records (%s) remain\n",
			r.Evicted, obs.HumanCount(r.EvictedBytes), r.QuarantineSwept,
			r.TempsReaped, r.Remaining, obs.HumanCount(r.RemainingBytes))
	default:
		fmt.Fprintf(os.Stderr, "sre cache: unknown subcommand %q (want stats, verify, or gc)\n", rest[0])
		return 2
	}
	return 0
}

// writeExports writes the flight-recorder exports requested by
// -trace-out and -events-out.
func writeExports(rec *sre.FlightRecorder) {
	if rec == nil {
		return
	}
	env := sre.Environment()
	env.Parallelism = *parallel
	for _, out := range []struct {
		path  string
		write func(f *os.File) error
	}{
		{*traceOut, func(f *os.File) error { return rec.WriteChromeTrace(f, env) }},
		{*eventsOut, func(f *os.File) error { return rec.WriteEventLog(f, env) }},
	} {
		if out.path == "" {
			continue
		}
		f, err := os.Create(out.path)
		if err != nil {
			fatal(err)
		}
		err = out.write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(err)
		}
	}
}

// runQuery executes a verifier-backed command and returns the process
// exit code.
func runQuery(v *sre.Verifier, cmd string, rest []string) int {
	switch cmd {
	case "check":
		if *reqsPath == "" {
			fatal(fmt.Errorf("check needs -reqs <file>"))
		}
		f, err := os.Open(*reqsPath)
		if err != nil {
			fatal(err)
		}
		reqs, err := sre.ParseRequirements(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		results, all := v.CheckRequirements(reqs)
		for _, r := range results {
			status := "ok  "
			if !r.Holds {
				status = "FAIL"
			}
			detail := r.Got
			if r.Err != nil {
				detail = r.Err.Error()
			}
			fmt.Printf("%s line %-3d %-12s %s %s: %s\n", status, r.Req.Line, r.Req.Kind, r.Req.Src, r.Req.Prefix, detail)
		}
		if !all {
			return 1
		}
	case "pfecs":
		srcT, spfT := v.Stages()
		fmt.Printf("PFECs: %d  (SRC %.3fs, SPF %.3fs)\n", v.NumPFECs(), srcT, spfT)
	case "tolerance":
		need(rest, 2)
		k, err := v.FailureTolerance(rest[0], rest[1])
		if err != nil {
			fatal(err)
		}
		fmt.Println(formatTolerance(k, *kFlag))
	case "waypoint":
		need(rest, 3)
		k, err := v.WaypointTolerance(rest[0], rest[1], rest[2])
		if err != nil {
			fatal(err)
		}
		fmt.Println(formatTolerance(k, *kFlag))
	case "isolation":
		need(rest, 2)
		k, err := v.IsolationTolerance(rest[0], rest[1])
		if err != nil {
			fatal(err)
		}
		fmt.Println(formatTolerance(k, *kFlag))
	case "probability":
		need(rest, 2)
		model := sre.LinkFailures(*pLink)
		if *pNode > 0 {
			model = sre.NodeAndLinkFailures(*pLink, *pNode)
		}
		p, err := v.Probability(rest[0], rest[1], model)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%.9f\n", p)
	case "loadbalance":
		need(rest, 2)
		n, err := v.LoadBalancedPaths(rest[0], rest[1])
		if err != nil {
			fatal(err)
		}
		fmt.Println(n)
	default:
		usage()
	}
	return 0
}

// finish prints the one-line run summary to stderr and writes the JSON
// metrics report when -metrics was given. It runs for every command,
// including failing check runs.
func finish(v *sre.Verifier, tel *sre.Telemetry, start time.Time) {
	if *quiet {
		if *metricsPath == "" {
			return
		}
	} else if v != nil {
		m := v.Metrics()
		fmt.Fprintf(os.Stderr,
			"summary: src %.3fs, spf %.3fs, %s PFECs, bdd peak %s nodes, cache hit %s, gc %d, order %s\n",
			m.SRCSeconds, m.SPFSeconds, obs.HumanCount(int64(m.NumPFECs)),
			obs.HumanCount(int64(m.BDD.PeakNodes)),
			obs.HumanPct(m.BDD.CacheHitRatio, 1), m.BDD.GCRuns, m.BDD.VarOrderMethod)
	} else {
		rep := tel.Snapshot()
		fmt.Fprintf(os.Stderr, "summary: total %.3fs, bdd peak %s nodes, gc %s\n",
			time.Since(start).Seconds(),
			obs.HumanCount(int64(rep.Gauges["bdd.peak_nodes"])),
			obs.HumanCount(rep.Counters["bdd.gc_runs"]))
	}
	if *metricsPath == "" {
		return
	}
	f, err := os.Create(*metricsPath)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if v != nil {
		err = v.WriteMetrics(f)
	} else {
		err = tel.WriteJSON(f)
	}
	if err != nil {
		fatal(err)
	}
}

func need(args []string, n int) {
	if len(args) != n {
		usage()
	}
}

func fatal(err error) {
	switch {
	case errors.Is(err, sre.ErrCanceled):
		// 130 is the conventional exit status for SIGINT.
		fmt.Fprintln(os.Stderr, "sre: interrupted:", err)
		os.Exit(130)
	case errors.Is(err, sre.ErrDeadline):
		// 124 matches timeout(1).
		fmt.Fprintln(os.Stderr, "sre: timed out:", err)
		os.Exit(124)
	}
	fmt.Fprintln(os.Stderr, "sre:", err)
	os.Exit(1)
}

// printOutcomes reports, on stderr, every prefix a resilient run had to
// quarantine, degrade, or give up on. Cleanly verified prefixes stay
// silent.
func printOutcomes(outs []sre.PrefixOutcome) {
	if *quiet {
		return
	}
	for _, o := range outs {
		switch {
		case o.Err != nil:
			fmt.Fprintf(os.Stderr, "resilience: prefix %s FAILED after rungs %v: %v\n", o.Prefix, o.Rungs, o.Err)
		case o.Degraded:
			fmt.Fprintf(os.Stderr, "resilience: prefix %s verified degraded (rungs %v, effective budget %d)\n", o.Prefix, o.Rungs, o.EffectivePruneK)
		case o.Quarantined:
			fmt.Fprintf(os.Stderr, "resilience: prefix %s quarantined and re-verified in isolation\n", o.Prefix)
		}
	}
}

func formatTolerance(k, budget int) string {
	switch {
	case k == sre.InfiniteTolerance && budget >= 0:
		return fmt.Sprintf(">=%d (no violation within the explored budget)", budget)
	case k == sre.InfiniteTolerance:
		return "infinite (no failure combination violates the property)"
	case k < 0:
		return "-1 (violated even with all links up)"
	default:
		return fmt.Sprint(k)
	}
}

func printSpecs(net *sre.Network, specs *sre.Specs, budget int) {
	type row struct {
		src, prefix string
		k           int
	}
	rows := make([]row, 0, len(specs.ReachTolerance))
	for key, k := range specs.ReachTolerance {
		rows = append(rows, row{net.Topology.Name(key.Src), key.Prefix.String(), k})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].src != rows[j].src {
			return rows[i].src < rows[j].src
		}
		return rows[i].prefix < rows[j].prefix
	})
	explored := "all"
	if budget >= 0 {
		explored = fmt.Sprint(budget)
	}
	fmt.Printf("# mined %d reachability specs (k explored up to %s)\n", len(rows), explored)
	for _, r := range rows {
		fmt.Printf("reach %-12s -> %-18s tolerance %s\n", r.src, r.prefix, formatTolerance(r.k, budget))
	}
	if len(specs.Isolated) > 0 {
		fmt.Printf("# %d isolation specs\n", len(specs.Isolated))
		for _, key := range specs.Isolated {
			fmt.Printf("isolated %s -> %s\n", net.Topology.Name(key.Src), key.Prefix)
		}
	}
	lb := 0
	for _, n := range specs.LoadBalance {
		if n > 1 {
			lb++
		}
	}
	fmt.Printf("# %d pairs load-balanced over >1 path\n", lb)
	groups := specs.Generalize()
	fmt.Printf("# generalized to %d prefix-group specs:\n", len(groups))
	for _, g := range groups {
		if g.Members > 1 {
			fmt.Printf("group %-12s -> %-18s tolerance %s (%d prefixes)\n",
				net.Topology.Name(g.Src), g.Prefix, formatTolerance(g.K, budget), g.Members)
		}
	}
}

func printDiffs(diffs []sre.Difference) {
	if len(diffs) == 0 {
		fmt.Println("no behavioural differences")
		return
	}
	for _, d := range diffs {
		kind := "visible with all links up"
		if d.FailuresOnly {
			kind = "only under failures (invisible to no-failure diffing)"
		}
		fmt.Printf("%s -> %s: %s\n", d.Src, d.Prefix, kind)
		fmt.Printf("  tolerance %d -> %d, probability %.6f -> %.6f\n",
			d.ToleranceDelta[0], d.ToleranceDelta[1], d.ProbDelta[0], d.ProbDelta[1])
		if len(d.WitnessDown) > 0 {
			fmt.Printf("  witness failure scenario: links down %v\n", d.WitnessDown)
		}
	}
}
