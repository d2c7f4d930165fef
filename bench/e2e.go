package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"sre"
	"sre/internal/config"
)

// setupRepeats is how often one run sets up, so setup_s is a median.
const setupRepeats = 3

// inputs is what set-up hands to the passes: the generated text is the
// only thing the engine ever sees of the network.
type inputs struct {
	text  string
	ref   *reference
	sweep []query
	warm  string // pre-filled store directory (storeWarm)
}

// env is the per-run scratch state.
type env struct {
	w    workloadDef
	seed int64
	dir  string // scratch directory of this run, removed at exit
	seq  int    // distinguishes store directories
}

func (e *env) freshDir(kind string) (string, error) {
	e.seq++
	dir := filepath.Join(e.dir, fmt.Sprintf("%s-%d", kind, e.seq))
	return dir, os.MkdirAll(dir, 0o755)
}

// setUp generates the inputs from the seed: config text, reference
// answers, the sweep order, and (warm workloads) a pre-filled store.
func (e *env) setUp() (*inputs, error) {
	rng := rand.New(rand.NewSource(e.seed))
	net := e.w.Gen.build()
	in := &inputs{text: config.Format(net)}
	ref, err := buildReference(e.w, net, rng)
	if err != nil {
		return nil, err
	}
	in.ref = ref
	in.sweep = buildSweep(ref, e.w.PDown, rng)
	if e.w.StoreMode == storeWarm {
		if in.warm, err = e.freshDir("warm"); err != nil {
			return nil, err
		}
		// Cache keys do not depend on parallelism, so the fill may use
		// every CPU; the measured iterations then only read.
		fill := e.w.Opts
		fill.Parallelism = runtime.NumCPU()
		s, err := e.facadeIteration(in, fill, in.warm)
		if err != nil {
			return nil, fmt.Errorf("pre-filling the store: %w", err)
		}
		if s.wrong > 0 || s.failed > 0 {
			return nil, fmt.Errorf("pre-filling the store: %d wrong answers, %d failed operations", s.wrong, s.failed)
		}
	}
	return in, nil
}

// setUpRepeated sets up setupRepeats times and keeps the last inputs;
// the returned durations feed setup_s.
func (e *env) setUpRepeated() (*inputs, []float64, error) {
	var in *inputs
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		if in != nil && in.warm != "" {
			if err := os.RemoveAll(in.warm); err != nil {
				return nil, nil, err
			}
		}
		t0 := time.Now()
		next, err := e.setUp()
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		in = next
	}
	return in, times, nil
}

// sample is one facade iteration.
type sample struct {
	verify, query time.Duration
	answers       int
	peakNodes     int
	allocMB       float64
	heapSysMB     float64
	attempted     int
	failed        int
	wrong         int
	digest        string
	store         sre.StoreMetrics
}

func (s sample) wall() time.Duration { return s.verify + s.query }

// facadeIteration is one end-to-end iteration through the public
// facade: text → ParseNetwork → NewVerifier → the query sweep, checked
// against the reference. storeDir, when set, is opened as Options.Store
// inside the timed section (an operator pays for that too). An engine
// error is counted in failed, not returned; err is for the bench's own
// failures.
func (e *env) facadeIteration(in *inputs, opts sre.Options, storeDir string) (sample, error) {
	var s sample
	runtime.GC() // every iteration starts from the same heap
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	if storeDir != "" {
		st, err := sre.OpenStore(storeDir, sre.StoreOptions{})
		if err != nil {
			return s, err
		}
		defer st.Close()
		opts.Store = st
	}
	s.attempted++
	net, err := sre.ParseNetwork(in.text)
	var v *sre.Verifier
	if err == nil {
		v, err = sre.NewVerifier(net, opts)
	}
	s.verify = time.Since(t0)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: verify failed: %v\n", e.w.Name, err)
		s.failed++
		return s, nil
	}
	defer v.Release()

	ref := in.ref
	prefixNames := make([]string, len(ref.prefixes))
	for p, pfx := range ref.prefixes {
		prefixNames[p] = pfx.String()
	}
	model := sre.LinkFailures(e.w.PDown)
	got := newAnswerSet(ref)
	t1 := time.Now()
	for _, q := range in.sweep {
		s.attempted++
		var qerr error
		switch q.kind {
		case queryTolerance:
			got.tol[q.r][q.p], qerr = v.FailureTolerance(ref.routers[q.r], prefixNames[q.p])
		case queryProbability:
			got.prob[q.r][q.p], qerr = v.Probability(ref.routers[q.r], prefixNames[q.p], model)
		}
		if qerr != nil {
			if s.failed == 0 {
				fmt.Fprintf(os.Stderr, "bench: %s: query failed: %v\n", e.w.Name, qerr)
			}
			s.failed++
			continue
		}
		s.answers++
	}
	s.query = time.Since(t1)

	degraded := map[string]bool{}
	for _, o := range v.Outcomes() {
		if o.Err != nil {
			s.failed++
		}
		degraded[o.Prefix.String()] = o.Degraded
	}
	if v.CrashDegraded() {
		s.failed++
	}
	s.wrong = countWrong(ref, in.sweep, got, func(p int) bool { return degraded[prefixNames[p]] })
	s.digest = got.digest()
	m := v.Metrics()
	s.peakNodes = m.BDD.PeakNodes
	if m.Store != nil {
		s.store = *m.Store
	}
	runtime.ReadMemStats(&m1)
	s.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	s.heapSysMB = float64(m1.HeapSys) / 1e6
	return s, nil
}

// countWrong compares a sweep's answers with the reference and reports
// the first difference on standard error.
func countWrong(ref *reference, sweep []query, got *answerSet, degraded func(p int) bool) int {
	wrong := 0
	for _, q := range sweep {
		ok, answer, want := true, "", ""
		switch q.kind {
		case queryTolerance:
			ok = ref.tolOK(q.r, q.p, got.tol[q.r][q.p], degraded(q.p))
			answer, want = fmt.Sprint(got.tol[q.r][q.p]), fmt.Sprint(ref.tol[q.r][q.p])
		case queryProbability:
			ok = ref.probOK(q.r, q.p, got.prob[q.r][q.p])
			answer, want = fmt.Sprintf("%.12g", got.prob[q.r][q.p]), fmt.Sprintf("%.12g", ref.prob[q.r][q.p])
		}
		if ok {
			continue
		}
		if wrong == 0 {
			fmt.Fprintf(os.Stderr, "bench: wrong answer for %s → %s: got %s, reference %s\n",
				ref.routers[q.r], ref.prefixes[q.p], answer, want)
		}
		wrong++
	}
	return wrong
}

// workloadIteration runs one facade iteration the way the workload
// defines it: cold stores get a fresh directory, removed afterwards.
func (e *env) workloadIteration(in *inputs, opts sre.Options) (sample, error) {
	switch e.w.StoreMode {
	case storeCold:
		dir, err := e.freshDir("cold")
		if err != nil {
			return sample{}, err
		}
		defer os.RemoveAll(dir)
		s, err := e.facadeIteration(in, opts, dir)
		if err == nil && (s.store.Hits != 0 || s.store.Puts == 0) && s.failed == 0 {
			err = fmt.Errorf("cold store saw %d hits and %d puts", s.store.Hits, s.store.Puts)
		}
		return s, err
	case storeWarm:
		s, err := e.facadeIteration(in, opts, in.warm)
		if err == nil && (s.store.Misses != 0 || s.store.Hits == 0) && s.failed == 0 {
			err = fmt.Errorf("warm store saw %d misses and %d hits", s.store.Misses, s.store.Hits)
		}
		return s, err
	}
	return e.facadeIteration(in, opts, "")
}

// tally accumulates the result-line fields over iterations.
type tally struct {
	attempted, failed, wrong int
	digest                   string
	unstable                 bool // two iterations answered differently
}

func (t *tally) add(s sample) {
	t.merge(tally{attempted: s.attempted, failed: s.failed, wrong: s.wrong, digest: s.digest})
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.wrong += o.wrong
	t.unstable = t.unstable || o.unstable
	if o.digest != "" {
		if t.digest != "" && t.digest != o.digest {
			t.unstable = true
		}
		t.digest = o.digest
	}
}

// fail counts one failed operation and reports the first on standard
// error.
func (t *tally) fail(workload, what string, err error) {
	if t.failed == 0 {
		fmt.Fprintf(os.Stderr, "bench: %s: %s failed: %v\n", workload, what, err)
	}
	t.failed++
}

func (t *tally) correct() bool { return t.wrong == 0 && !t.unstable }

// endToEndPass measures the end-to-end metrics with tracing off.
func (e *env) endToEndPass(window time.Duration) (result, error) {
	in, setups, err := e.setUpRepeated()
	if err != nil {
		return result{}, err
	}
	for i := 0; i < e.w.WarmUps; i++ {
		if _, err := e.workloadIteration(in, e.w.Opts); err != nil {
			return result{}, err
		}
	}
	var t tally
	var verify, query, rate, peak, alloc []float64
	start := time.Now()
	for i := 0; i < e.w.MinIters || time.Since(start) < window; i++ {
		s, err := e.workloadIteration(in, e.w.Opts)
		if err != nil {
			return result{}, err
		}
		t.add(s)
		if s.answers == 0 {
			continue // a failed verify has no timings worth a median
		}
		verify = append(verify, s.verify.Seconds())
		query = append(query, s.query.Seconds())
		rate = append(rate, float64(s.answers)/s.wall().Seconds())
		peak = append(peak, float64(s.peakNodes))
		alloc = append(alloc, s.allocMB)
	}
	if len(verify) == 0 {
		return result{}, fmt.Errorf("no iteration of %s completed", e.w.Name)
	}
	fmt.Fprintf(os.Stderr, "bench: %s: %d iterations, verify min %.4fs median %.4fs max %.4fs, query median %.4fs, digest %s\n",
		e.w.Name, len(verify), quantile(verify, 0), median(verify), quantile(verify, 1), median(query), t.digest)
	raw := map[string]float64{
		"setup_s":        median(setups),
		"verify_s":       median(verify),
		"query_s":        median(query),
		"answers_per_s":  median(rate),
		"peak_bdd_nodes": median(peak),
		"alloc_mb":       median(alloc),
	}
	return result{Correct: t.correct(), Attempted: t.attempted, Failed: t.failed,
		Metrics: report(endToEnd, raw)}, nil
}
