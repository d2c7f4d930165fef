package coord

// The coordinator tests re-exec the test binary as the worker: spawn
// sets SRE_COORD_WORKER=1 in the child environment, and TestMain
// diverts such processes straight into WorkerMain before the testing
// framework parses anything. Fault plans, set in SRE_FAULT with
// t.Setenv and inherited by the workers, then drive every supervision
// path deterministically.

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"sre/internal/analysis"
	"sre/internal/config"
	"sre/internal/obs"
	"sre/internal/route"
	"sre/internal/src"
	"sre/internal/store"
)

func TestMain(m *testing.M) {
	if os.Getenv("SRE_COORD_WORKER") == "1" {
		os.Exit(WorkerMain(os.Stdin, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// testNet is a 4-router BGP ring with a chord; every router originates
// one prefix, giving four small independent tasks.
const testNetText = `
topology
  router A
  router B
  router C
  router D
  link A B
  link B C
  link C D
  link D A
  link A C
end
router A
  bgp 65001
    network 10.0.0.0/8
end
router B
  bgp 65002
    network 20.0.0.0/8
end
router C
  bgp 65003
    network 30.0.0.0/8
end
router D
  bgp 65004
    network 40.0.0.0/8
end
`

func testNet(t *testing.T) (*config.Network, []route.Prefix) {
	t.Helper()
	net, err := config.ParseString(testNetText)
	if err != nil {
		t.Fatal(err)
	}
	return net, net.AllPrefixes()
}

func testOpts() src.Options {
	return src.Options{PruneK: 2, Parallelism: 1}
}

// sweep condenses a Partitioned into per-prefix reachability tolerances
// from router 0 — the query-level fingerprint determinism tests compare.
func sweep(t *testing.T, part *analysis.Partitioned) map[string]int {
	t.Helper()
	res := map[string]int{}
	for _, o := range part.Outcomes() {
		if o.Err != nil {
			res[o.Prefix.String()] = -1000
			continue
		}
		k := analysis.InfiniteTolerance
		for _, pipe := range part.PipelinesFor(o.Prefix) {
			hdr := pipe.OwnedHeaders(o.Prefix)
			prop := pipe.ReachBDD(0, pipe.OriginSet(o.Prefix), hdr)
			if tol := pipe.MinTolerance(prop, hdr); tol < k {
				k = tol
			}
		}
		res[o.Prefix.String()] = k
	}
	return res
}

// normalize strips the crash bookkeeping a faulty multi-process run is
// allowed to differ in: WorkerCrashes, and — for prefixes that fell
// back in-process — the quarantine markers and the worker-crash rung.
// Everything else (errors, real degradation rungs, budgets) must match
// the in-process baseline exactly.
func normalize(outs []analysis.PrefixOutcome) []analysis.PrefixOutcome {
	norm := make([]analysis.PrefixOutcome, len(outs))
	for i, o := range outs {
		o.WorkerCrashes = 0
		if len(o.Rungs) > 0 && o.Rungs[0] == analysis.RungWorkerCrash {
			o.Rungs = o.Rungs[1:]
			o.Quarantined = false
			o.Degraded = len(o.Rungs) > 0
		}
		if len(o.Rungs) == 0 {
			o.Rungs = nil
		}
		norm[i] = o
	}
	return norm
}

func coordRun(t *testing.T, net *config.Network, prefixes []route.Prefix, opts Options) *analysis.Partitioned {
	t.Helper()
	part, err := Run(net, prefixes, opts)
	if err != nil {
		t.Fatalf("coord.Run: %v", err)
	}
	return part
}

// TestCoordMatchesInProcess pins the tentpole contract: a fault-free
// multi-process run at 1, 2, and 4 workers returns outcomes and query
// results identical to the in-process sequential baseline.
func TestCoordMatchesInProcess(t *testing.T) {
	net, prefixes := testNet(t)
	base, err := analysis.RunPartitionedCached(net, testOpts(), prefixes, analysis.LadderOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer base.Release()
	baseOuts, baseSweep := base.Outcomes(), sweep(t, base)
	if len(baseOuts) != 4 {
		t.Fatalf("baseline has %d outcomes, want 4", len(baseOuts))
	}

	for _, w := range []int{1, 2, 4} {
		w := w
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			part := coordRun(t, net, prefixes, Options{Workers: w, Verify: testOpts(), Resilient: true})
			defer part.Release()
			if got := part.Outcomes(); !reflect.DeepEqual(got, baseOuts) {
				t.Errorf("outcomes diverge\n got %+v\nwant %+v", got, baseOuts)
			}
			if got := sweep(t, part); !reflect.DeepEqual(got, baseSweep) {
				t.Errorf("tolerance sweep diverges\n got %v\nwant %v", got, baseSweep)
			}
		})
	}
}

// TestCoordRetryConverges injects one fault of each recoverable flavor
// across distinct tasks; every retried attempt is fault-free, so the
// run must converge to the baseline results with only WorkerCrashes
// attesting to the turbulence.
func TestCoordRetryConverges(t *testing.T) {
	net, prefixes := testNet(t)
	base, err := analysis.RunPartitionedCached(net, testOpts(), prefixes, analysis.LadderOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer base.Release()

	t.Setenv(FaultEnv, "crash@0;corrupt@1;exit@2")
	part := coordRun(t, net, prefixes, Options{Workers: 2, Verify: testOpts(), Resilient: true})
	defer part.Release()

	if got, want := normalize(part.Outcomes()), normalize(base.Outcomes()); !reflect.DeepEqual(got, want) {
		t.Errorf("normalized outcomes diverge\n got %+v\nwant %+v", got, want)
	}
	if got, want := sweep(t, part), sweep(t, base); !reflect.DeepEqual(got, want) {
		t.Errorf("tolerance sweep diverges\n got %v\nwant %v", got, want)
	}
	crashed := 0
	for _, o := range part.Outcomes() {
		crashed += o.WorkerCrashes
	}
	if crashed < 3 {
		t.Errorf("total WorkerCrashes = %d, want >= 3 (one per injected fault)", crashed)
	}
}

// TestCoordStallDetected wedges a worker (muted heartbeats, hung task):
// the coordinator must notice via the heartbeat grace, kill it, retry,
// and converge.
func TestCoordStallDetected(t *testing.T) {
	net, prefixes := testNet(t)
	t.Setenv(FaultEnv, "stall@0")
	part := coordRun(t, net, prefixes, Options{Workers: 2, Verify: testOpts(), Resilient: true})
	defer part.Release()
	stalled := 0
	for _, o := range part.Outcomes() {
		if o.Err != nil {
			t.Errorf("prefix %s failed: %v", o.Prefix, o.Err)
		}
		stalled += o.WorkerCrashes
	}
	if stalled == 0 {
		t.Error("no outcome records the stalled attempt")
	}
}

// TestCoordQuarantineFallback crashes one task on every allowed attempt:
// after maxAttempts the prefix must fall back to exact in-process
// verification, marked with the worker-crash rung, while its query
// results still match the baseline.
func TestCoordQuarantineFallback(t *testing.T) {
	net, prefixes := testNet(t)
	base, err := analysis.RunPartitionedCached(net, testOpts(), prefixes, analysis.LadderOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer base.Release()

	t.Setenv(FaultEnv, "crash@0;crash@0#1;crash@0#2")
	part := coordRun(t, net, prefixes, Options{Workers: 2, Verify: testOpts(), Resilient: true})
	defer part.Release()

	quarantined := 0
	for _, o := range part.Outcomes() {
		if o.Err != nil {
			t.Errorf("prefix %s failed: %v", o.Prefix, o.Err)
		}
		if len(o.Rungs) > 0 && o.Rungs[0] == analysis.RungWorkerCrash {
			quarantined++
			if !o.Quarantined || !o.Degraded {
				t.Errorf("crash-quarantined prefix %s: Quarantined=%v Degraded=%v, want both true", o.Prefix, o.Quarantined, o.Degraded)
			}
			if o.WorkerCrashes != maxAttempts {
				t.Errorf("crash-quarantined prefix %s: WorkerCrashes=%d, want %d", o.Prefix, o.WorkerCrashes, maxAttempts)
			}
		}
	}
	if quarantined != 1 {
		t.Errorf("%d prefixes carry the worker-crash rung, want exactly 1", quarantined)
	}
	// The fallback verified with the original options: results are exact.
	if got, want := sweep(t, part), sweep(t, base); !reflect.DeepEqual(got, want) {
		t.Errorf("tolerance sweep diverges after quarantine fallback\n got %v\nwant %v", got, want)
	}
}

// TestCoordKillNeverFailsResilient is the issue's acceptance bullet: a
// worker SIGKILLed mid-task (no exit handlers, no flushed buffers) must
// never fail a resilient run.
func TestCoordKillNeverFailsResilient(t *testing.T) {
	net, prefixes := testNet(t)
	t.Setenv(FaultEnv, "kill@0")
	part := coordRun(t, net, prefixes, Options{Workers: 2, Verify: testOpts(), Resilient: true})
	defer part.Release()
	outs := part.Outcomes()
	if len(outs) != 4 {
		t.Fatalf("got %d outcomes, want 4", len(outs))
	}
	for _, o := range outs {
		if o.Err != nil {
			t.Errorf("prefix %s failed after SIGKILL retry: %v", o.Prefix, o.Err)
		}
	}
}

// TestCoordFleetLoss exhausts one slot's respawn budget on a
// single-worker fleet: each of the four tasks crashes its first attempt
// only, so no task reaches maxAttempts, but the four crashes outrun the
// slot's maxRespawns replacements. With no workers left, every
// unfinished prefix must quarantine to the in-process fallback and the
// run still completes.
func TestCoordFleetLoss(t *testing.T) {
	net, prefixes := testNet(t)
	if len(prefixes) != maxRespawns+1 {
		t.Fatalf("%d prefixes, want one crash more than the %d respawns", len(prefixes), maxRespawns)
	}
	t.Setenv(FaultEnv, "crash@0;crash@1;crash@2;crash@3")
	part := coordRun(t, net, prefixes, Options{Workers: 1, Verify: testOpts(), Resilient: true})
	defer part.Release()
	outs := part.Outcomes()
	if len(outs) != 4 {
		t.Fatalf("got %d outcomes, want 4", len(outs))
	}
	sawCrashRung := false
	for _, o := range outs {
		if o.Err != nil {
			t.Errorf("prefix %s failed: %v", o.Prefix, o.Err)
		}
		if len(o.Rungs) > 0 && o.Rungs[0] == analysis.RungWorkerCrash {
			sawCrashRung = true
		}
	}
	if !sawCrashRung {
		t.Error("fleet loss left no worker-crash rung on any outcome")
	}
}

// TestCoordTelemetryMerges checks the worker telemetry shards land in
// the coordinator registry: a multi-process run must report the same
// class of BDD work a sequential run does.
func TestCoordTelemetryMerges(t *testing.T) {
	net, prefixes := testNet(t)
	tel := obs.New()
	opts := testOpts()
	opts.Telemetry = tel
	part := coordRun(t, net, prefixes, Options{Workers: 2, Verify: opts, Resilient: true})
	defer part.Release()
	rep := tel.Snapshot()
	if rep.Counters["bdd.cache_misses"] == 0 {
		t.Error("no bdd.cache_misses merged back from workers")
	}
}

func TestParseFaultPlan(t *testing.T) {
	good := []string{"", "crash@0", "kill@3#2", "crash@0;stall@2;corrupt@3#1", " exit@1 ; crash@2 "}
	for _, s := range good {
		if _, err := ParseFaultPlan(s); err != nil {
			t.Errorf("ParseFaultPlan(%q): %v", s, err)
		}
	}
	bad := []string{"crash", "boom@1", "crash@-1", "crash@x", "crash@1#x", "crash@1#-2"}
	for _, s := range bad {
		if _, err := ParseFaultPlan(s); err == nil {
			t.Errorf("ParseFaultPlan(%q) accepted invalid plan", s)
		}
	}
	p, err := ParseFaultPlan("crash@0;stall@2#1")
	if err != nil {
		t.Fatal(err)
	}
	if got := p.at(0, 0); got != faultCrash {
		t.Errorf("at(0,0) = %q, want crash", got)
	}
	if got := p.at(2, 1); got != faultStall {
		t.Errorf("at(2,1) = %q, want stall", got)
	}
	if got := p.at(2, 0); got != "" {
		t.Errorf("at(2,0) = %q, want none", got)
	}
}

// TestParseFaultPlanDiskKinds pins the disk-fault half of the plan
// syntax: the store kinds parse, are matched by DiskFault on the Put
// index, and never leak into the per-task lookup.
func TestParseFaultPlanDiskKinds(t *testing.T) {
	for _, s := range []string{"torn@0", "flip@1", "enospc@2", "rename@0", "killwrite@3", "crash@0;torn@0"} {
		if _, err := ParseFaultPlan(s); err != nil {
			t.Errorf("ParseFaultPlan(%q): %v", s, err)
		}
	}
	p, err := ParseFaultPlan("crash@0;torn@0;flip@2;killwrite@1")
	if err != nil {
		t.Fatal(err)
	}
	if got := p.at(0, 0); got != faultCrash {
		t.Errorf("at(0,0) = %q, want crash", got)
	}
	for _, seq := range []int{1, 2} {
		if got := p.at(seq, 0); got != "" {
			t.Errorf("at(%d,0) = %q; disk kinds must not match the per-task lookup", seq, got)
		}
	}
	want := map[int]string{0: store.FaultTorn, 1: store.FaultKillWrite, 2: store.FaultFlip, 3: "", 99: ""}
	for idx, kind := range want {
		if got := p.DiskFault(idx); got != kind {
			t.Errorf("DiskFault(%d) = %q, want %q", idx, got, kind)
		}
	}
	var nilPlan *FaultPlan
	if got := nilPlan.DiskFault(0); got != "" {
		t.Errorf("nil plan DiskFault = %q", got)
	}
}

// TestCoordDiskFaultsSelfHeal drives the worker-side store through the
// injected disk faults: a first run publishes under torn/flipped/failed
// writes (results unaffected — a failed publish is never a failed
// task), and a second run over the damaged store quarantines the
// corrupt records, recomputes, and still matches the baseline.
func TestCoordDiskFaultsSelfHeal(t *testing.T) {
	net, prefixes := testNet(t)
	base, err := analysis.RunPartitionedCached(net, testOpts(), prefixes, analysis.LadderOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer base.Release()
	baseOuts, baseSweep := base.Outcomes(), sweep(t, base)

	dir := t.TempDir()
	cacheOn := func(t *testing.T) *store.Store {
		t.Helper()
		s, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}

	// One worker so the Put sequence is deterministic: four tasks, the
	// first record torn on disk, the second bit-flipped, the third's
	// rename failed (orphan temp), the fourth clean.
	s1 := cacheOn(t)
	t.Setenv(FaultEnv, "torn@0;flip@1;rename@2")
	part := coordRun(t, net, prefixes, Options{
		Workers: 1, Verify: testOpts(), Resilient: true, Cache: &analysis.ResultCache{S: s1}})
	if got := part.Outcomes(); !reflect.DeepEqual(got, baseOuts) {
		t.Errorf("faulty-publish run diverges\n got %+v\nwant %+v", got, baseOuts)
	}
	if got := sweep(t, part); !reflect.DeepEqual(got, baseSweep) {
		t.Errorf("faulty-publish sweep diverges")
	}
	part.Release()

	// The damaged store must self-heal: the coordinator's pre-dispatch
	// lookups quarantine the torn and flipped records, the missing third
	// misses, the clean fourth hits, and the recomputed results match.
	s2 := cacheOn(t)
	t.Setenv(FaultEnv, "")
	part2 := coordRun(t, net, prefixes, Options{
		Workers: 1, Verify: testOpts(), Resilient: true, Cache: &analysis.ResultCache{S: s2}})
	defer part2.Release()
	if got := part2.Outcomes(); !reflect.DeepEqual(got, baseOuts) {
		t.Errorf("self-heal run diverges\n got %+v\nwant %+v", got, baseOuts)
	}
	if got := sweep(t, part2); !reflect.DeepEqual(got, baseSweep) {
		t.Errorf("self-heal sweep diverges")
	}
	m := s2.Metrics()
	if m.Quarantined != 2 {
		t.Errorf("Quarantined = %d, want 2 (torn + flipped)", m.Quarantined)
	}
	if m.Hits != 1 {
		t.Errorf("Hits = %d, want 1 (the clean record)", m.Hits)
	}
}

// ageTemps backdates every file under dir that is not a published
// record (".rec") by age: the orphan temps of an interrupted Put.
func ageTemps(t *testing.T, dir string, age time.Duration) {
	t.Helper()
	old := time.Now().Add(-age)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || strings.HasSuffix(path, ".rec") {
			return err
		}
		return os.Chtimes(path, old, old)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCoordCrashMidWrite is the crash-mid-write scenario: a worker is
// SIGKILLed between writing a record's temp file and renaming it into
// place. The run must converge via retry, the orphan temp must never
// surface as a record, and a follow-up run must be fully warm.
func TestCoordCrashMidWrite(t *testing.T) {
	net, prefixes := testNet(t)
	base, err := analysis.RunPartitionedCached(net, testOpts(), prefixes, analysis.LadderOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer base.Release()

	dir := t.TempDir()
	s1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	// killwrite@3: the single worker publishes three records cleanly,
	// then dies mid-publication of the fourth. The respawned worker's
	// Put sequence restarts at 0, so the retry publishes unfaulted.
	t.Setenv(FaultEnv, "killwrite@3")
	part := coordRun(t, net, prefixes, Options{
		Workers: 1, Verify: testOpts(), Resilient: true, Cache: &analysis.ResultCache{S: s1}})
	if got, want := normalize(part.Outcomes()), normalize(base.Outcomes()); !reflect.DeepEqual(got, want) {
		t.Errorf("crash-mid-write outcomes diverge\n got %+v\nwant %+v", got, want)
	}
	crashes := 0
	for _, o := range part.Outcomes() {
		crashes += o.WorkerCrashes
	}
	if crashes == 0 {
		t.Error("killwrite fault did not register as a worker crash")
	}
	part.Release()

	// The interrupted publication left an orphan temp; once it is older
	// than the lock TTL, Verify reaps it and finds every landed record
	// intact.
	s2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	stats, err := s2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.TempFiles == 0 {
		t.Error("crash-mid-write left no orphan temp file")
	}
	ageTemps(t, dir, store.DefaultLockTTL+time.Minute)
	rep, err := s2.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Quarantined != 0 {
		t.Errorf("Verify quarantined %d records; atomic rename must keep landed records intact", rep.Quarantined)
	}
	if rep.TempsReaped == 0 {
		t.Error("Verify did not reap the orphan temp")
	}

	// Second run: fully warm — every task resolves from the store
	// before any worker is spawned.
	t.Setenv(FaultEnv, "")
	part2 := coordRun(t, net, prefixes, Options{
		Workers: 1, Verify: testOpts(), Resilient: true, Cache: &analysis.ResultCache{S: s2}})
	defer part2.Release()
	if got := part2.Outcomes(); !reflect.DeepEqual(got, base.Outcomes()) {
		t.Errorf("warm run after crash diverges\n got %+v\nwant %+v", got, base.Outcomes())
	}
	if m := s2.Metrics(); m.Hits != int64(len(prefixes)) {
		t.Errorf("warm run Hits = %d, want %d", m.Hits, len(prefixes))
	}
}

// TestInitFrameCarriesEveryOption hands a worker the init frame a
// coordinator writes for options with every field set: the worker must
// rebuild exactly the coordinator's result-shaping options (equal
// canonical bytes — src's own test pins that those cover every field
// not marked process-local), with the process-local fields its own.
func TestInitFrameCarriesEveryOption(t *testing.T) {
	sent := src.Options{Telemetry: obs.New(), Interrupt: func() error { return nil },
		Prefixes: []route.Prefix{route.MustParsePrefix("10.0.0.0/8")}, Parallelism: 8}
	v := reflect.ValueOf(&sent).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); {
		case !f.IsZero():
		case f.Kind() == reflect.Bool:
			f.SetBool(true)
		case f.Kind() == reflect.String:
			f.SetString("bfs")
		case f.CanInt():
			f.SetInt(7)
		case f.CanUint():
			f.SetUint(7)
		case f.CanFloat():
			f.SetFloat(7)
		}
	}
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	im, err := Options{Verify: sent, Resilient: true, Cache: &analysis.ResultCache{S: st}}.initMsg()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := (&frameWriter{w: &buf}).write(&frame{Type: frameInit, Init: &im}); err != nil {
		t.Fatal(err)
	}
	f, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := *f.Init; !got.Ladder || got.CacheDir != dir {
		t.Errorf("run settings did not survive the init frame: %+v", got)
	}
	got, err := f.Init.options()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := sent.Encode()
	if enc, _ := got.Encode(); !bytes.Equal(enc, want) {
		t.Errorf("worker options differ from the coordinator's:\n sent %s\n got  %s", want, enc)
	}
	if got.Parallelism != 1 || got.Telemetry != nil || got.Interrupt != nil || got.Prefixes != nil {
		t.Errorf("process-local fields crossed the init frame: %+v", got)
	}
}

// TestErrorFrameWithoutPayload: an error frame carrying no error is a
// malformed frame, not a clean report. The worker must be written off
// and its task retried — carrying on would leave the task assigned to a
// live, heartbeating worker forever.
func TestErrorFrameWithoutPayload(t *testing.T) {
	task := &taskState{Task: analysis.Task{Prefix: route.MustParsePrefix("10.0.0.0/8")}}
	w := &workerProc{ready: true, task: task}
	// The slot's respawn budget is spent, so the loss spawns nothing.
	c := &coordinator{workers: []*workerProc{w}, respawns: []int{maxRespawns}}
	if err := c.handleFrame(w, &frame{Type: frameError}); err != nil {
		t.Fatalf("handleFrame = %v, want the worker written off, not a run error", err)
	}
	if !w.dead || w.task != nil {
		t.Errorf("worker dead=%v task=%v, want dead with its task released", w.dead, w.task)
	}
	if task.attempt != 1 || task.done {
		t.Errorf("task attempt=%d done=%v, want one failed attempt awaiting retry", task.attempt, task.done)
	}
}

// TestSpawnCappedAtPendingTasks: a fleet never starts more workers than
// the cache pass left tasks for.
func TestSpawnCappedAtPendingTasks(t *testing.T) {
	net, prefixes := testNet(t)
	tel := obs.New()
	rec := obs.NewRecorder(0)
	tel.SetRecorder(rec)
	opts := testOpts()
	opts.Telemetry = tel
	part := coordRun(t, net, prefixes[:1], Options{Workers: 4, Verify: opts, Resilient: true})
	defer part.Release()
	spawns := 0
	for _, e := range rec.Events() {
		if e.Stage == "coord.spawn" {
			spawns++
		}
	}
	if spawns != 1 {
		t.Errorf("%d coord.spawn events for one pending prefix at 4 workers, want 1", spawns)
	}
}
