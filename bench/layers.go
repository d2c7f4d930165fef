package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"

	"sre"
	"sre/internal/analysis"
	"sre/internal/bdd"
	"sre/internal/config"
	"sre/internal/coord"
	"sre/internal/obs"
	"sre/internal/order"
	"sre/internal/prob"
	"sre/internal/route"
	"sre/internal/spf"
	"sre/internal/src"
	"sre/internal/store"
	"sre/internal/symbol"
	"sre/internal/topology"
)

// extractStride: Pipeline.Extract is timed on every extractStride-th
// tolerance query of the sweep — enough samples for a stable sum, few
// enough that the extra work stays a small share of the extras root.
const extractStride = 8

// walked is what one walk of the workload's execution path produced.
type walked struct {
	net *config.Network
	// pipes are the pipelines the iteration root built; byPrefix answers
	// "which pipelines cover this prefix" like Verifier.pipesFor.
	pipes    []*analysis.Pipeline
	byPrefix func(route.Prefix) []*analysis.Pipeline
	outcomes []analysis.PrefixOutcome
	// srcTime/spfTime is the route-computation and forwarding time the
	// iteration paid (in this process, or in its worker subprocesses).
	srcTime, spfTime time.Duration
	engines          []src.Stats
	lanes            int // goroutines or processes that shared the work
	blobBytes        int // size of the kernel extras' serialized BDD blob
}

func (wk *walked) add(pipes []*analysis.Pipeline, local bool) {
	for _, p := range pipes {
		wk.pipes = append(wk.pipes, p)
		if local && p.Eng == nil {
			continue // decoded from a store record: no work done here
		}
		wk.srcTime += p.SRCTime
		wk.spfTime += p.SPFTime
		if p.Eng != nil {
			wk.engines = append(wk.engines, p.Eng.Statistics())
		}
	}
}

// protect turns the panics BDD overflows raise inside Pipeline queries
// into errors, as the facade's guard does.
func protect(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return fn()
}

// engineOptions are the src.Options sre.NewVerifier derives from the
// workload's facade options.
func (e *env) engineOptions() src.Options {
	o := e.w.Opts
	return src.Options{PruneK: o.MaxFailures, Parallelism: o.Parallelism, BDDNodeLimit: o.BDDNodeLimit}
}

// round is one traced walk of the workload plus the extras that give
// layers their own numbers.
type round struct {
	tr    *tracer
	m     map[string]float64
	tally tally
	wall  time.Duration // the iteration root: what mirrors the facade
}

// tracedRound walks the workload's path layer by layer from outside,
// with a span around every call into a layer.
func (e *env) tracedRound(in *inputs) (*round, error) {
	runtime.GC()
	rd := &round{tr: newTracer(), m: map[string]float64{}}
	tr, m := rd.tr, rd.m
	so := e.engineOptions()

	// Scratch directories are made and removed outside the spans: a cold
	// iteration writes to a private one, a warm one reads set-up's.
	storeDir := in.warm
	if e.w.StoreMode == storeCold {
		var err error
		if storeDir, err = e.freshDir("cold"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(storeDir)
	}

	it := tr.begin(0, "iteration")
	id := tr.begin(it, "config.parse")
	net, err := config.ParseString(in.text)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin(it, "order.compute")
	ord := src.LinkOrder(net, so)
	m["order.span_cost"] = float64(order.SpanCost(net.Topology, ord.Perm))
	tr.end(id)

	wk := &walked{net: net, lanes: 1}
	rd.tally.attempted++
	switch e.w.path() {
	case pathCombined:
		err = e.walkCombined(tr, it, wk, so, m)
	case pathSharded:
		err = e.walkSharded(tr, it, wk, so)
	case pathCached:
		err = e.walkCached(tr, it, wk, so, storeDir, m)
	case pathResilient:
		err = e.walkResilient(tr, it, wk, so, m)
	case pathFleet:
		err = e.walkFleet(tr, it, wk, so, m)
	}
	if err != nil {
		return nil, fmt.Errorf("traced walk of %s: %w", e.w.Name, err)
	}
	got := e.tracedSweep(tr, it, wk, in, &rd.tally)
	rd.wall = tr.end(it)

	degraded := map[route.Prefix]bool{}
	for _, o := range wk.outcomes {
		degraded[o.Prefix] = o.Degraded
		if o.Err != nil || slices.Contains(o.Rungs, analysis.RungWorkerCrash) {
			rd.tally.failed++
		}
		if o.Degraded {
			m["analysis.degraded_prefixes"]++
		}
		if o.Quarantined {
			m["analysis.quarantined_prefixes"]++
		}
		m["coord.worker_crashes"] += float64(o.WorkerCrashes)
	}
	rd.tally.wrong = countWrong(in.ref, in.sweep, got, func(p int) bool { return degraded[in.ref.prefixes[p]] })
	rd.tally.digest = got.digest()

	ex := tr.begin(0, "extras")
	if err := e.extras(tr, ex, wk, so, in, m, &rd.tally); err != nil {
		return nil, fmt.Errorf("extras of %s: %w", e.w.Name, err)
	}
	tr.end(ex)
	e.layerMetrics(rd, wk, in)
	for _, p := range wk.pipes {
		p.Release()
	}
	return rd, nil
}

// walkCombined is analysis.RunWithSpace taken apart: one space, one
// engine, one forwarder for all prefixes.
func (e *env) walkCombined(tr *tracer, it int, wk *walked, so src.Options, m map[string]float64) error {
	net := wk.net
	id := tr.begin(it, "symbol.newspace")
	sp := analysis.NewRunSpace(net, so)
	tr.end(id)

	id = tr.begin(it, "src.run")
	eng := src.NewWithSpace(net, sp, so)
	err := eng.Run()
	wk.srcTime = tr.end(id)
	if err != nil {
		return err
	}
	m["bdd.live_nodes_after_src"] = float64(sp.M.Statistics().LiveNodes)

	id = tr.begin(it, "spf.newforwarder")
	fw, err := spf.NewForwarder(eng)
	wk.spfTime = tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin(it, "spf.forward")
	pfecs := make([][]*spf.PFEC, net.Topology.NumRouters())
	for r := range pfecs {
		if pfecs[r], err = fw.Forward(topology.RouterID(r)); err != nil {
			return err
		}
		sp.M.MaybeGC(0)
	}
	wk.spfTime += tr.end(id)
	m["bdd.live_nodes_after_spf"] = float64(sp.M.Statistics().LiveNodes)

	pipe := analysis.NewDecodedPipeline(net, sp, nil, pfecs, wk.srcTime, wk.spfTime, nil)
	wk.pipes = []*analysis.Pipeline{pipe}
	wk.byPrefix = func(route.Prefix) []*analysis.Pipeline { return wk.pipes }
	wk.engines = []src.Stats{eng.Statistics()}
	return nil
}

// walkSharded is the parallel regular run: one scoped pipeline per
// prefix on the sched pool.
func (e *env) walkSharded(tr *tracer, it int, wk *walked, so src.Options) error {
	wk.lanes = analysis.Workers(so)
	id := tr.begin(it, "sched.run")
	part, err := analysis.RunSharded(wk.net, so, wk.net.AllPrefixes(), wk.lanes)
	tr.end(id)
	if err != nil {
		return err
	}
	wk.add(part.Groups, true)
	wk.byPrefix = part.PipelinesFor
	return nil
}

// prefixTask runs one serial RunPrefixTask under parent, with the
// program's own SRC/SPF stopwatches laid in as synthetic children so
// the task's self time is what analysis and sched add on top.
func prefixTask(tr *tracer, parent int, net *config.Network, so src.Options, pfx route.Prefix) ([]*analysis.Pipeline, analysis.PrefixOutcome, error) {
	so.Parallelism = 1
	id := tr.begin(parent, "analysis.prefix_task")
	pipes, out, err := analysis.RunPrefixTask(net, so, pfx, false, analysis.LadderOptions{})
	tr.end(id)
	stageChildren(tr, id, pipes)
	return pipes, out, err
}

// stageChildren lays the SRC and SPF durations the pipelines report
// themselves under span id, one after the other.
func stageChildren(tr *tracer, id int, pipes []*analysis.Pipeline) {
	var offset time.Duration
	for _, p := range pipes {
		tr.synthetic(id, "src.run", offset, p.SRCTime)
		tr.synthetic(id, "spf.forward", offset+p.SRCTime, p.SPFTime)
		offset += p.SRCTime + p.SPFTime
	}
}

// walkCached is the sharded path at one worker behind a store: per
// prefix a key, a Get, and on a hit a decode, on a miss the task, an
// encode and a Put. Cold iterations write to a private directory; warm
// ones read the directory set-up filled through the facade.
func (e *env) walkCached(tr *tracer, it int, wk *walked, so src.Options, dir string, m map[string]float64) error {
	net := wk.net
	id := tr.begin(it, "store.open")
	st, err := store.Open(dir, store.Options{})
	tr.end(id)
	if err != nil {
		return err
	}
	defer st.Close()

	byPrefix := map[route.Prefix][]*analysis.Pipeline{}
	for _, pfx := range net.AllPrefixes() {
		id := tr.begin(it, "analysis.cachekey")
		key := analysis.CacheKey(net, so, pfx, false, analysis.LadderOptions{})
		tr.end(id)
		id = tr.begin(it, "store.get")
		payload, hit := st.Get(key)
		tr.end(id)
		var pipes []*analysis.Pipeline
		if hit {
			id = tr.begin(it, "analysis.decode")
			var rec analysis.CacheRecord
			if err = json.Unmarshal(payload, &rec); err == nil {
				pipes, err = analysis.DecodePipelines(net, so, rec.Pipes, nil)
			}
			tr.end(id)
			if err != nil {
				return err
			}
			m["analysis.wire_bytes"] += float64(len(payload))
		} else {
			id = tr.begin(it, "analysis.prefixcost")
			analysis.PrefixCost(net, pfx)
			tr.end(id)
			var out analysis.PrefixOutcome
			if pipes, out, err = prefixTask(tr, it, net, so, pfx); err != nil {
				return err
			}
			id = tr.begin(it, "analysis.encode")
			// The engine never reads this directory, so the record
			// version it would check is left unset.
			rec := analysis.CacheRecord{Prefix: pfx.String(), Outcome: analysis.OutcomeToWire(out)}
			if rec.Pipes, err = analysis.EncodePipelines(pipes, net); err == nil {
				payload, err = json.Marshal(rec)
			}
			tr.end(id)
			if err != nil {
				return err
			}
			m["analysis.wire_bytes"] += float64(len(payload))
			id = tr.begin(it, "store.put")
			err = st.Put(key, payload)
			tr.end(id)
			if err != nil {
				return err
			}
		}
		byPrefix[pfx] = pipes
		wk.add(pipes, true)
	}
	wk.byPrefix = func(pfx route.Prefix) []*analysis.Pipeline { return byPrefix[pfx] }

	sm := st.Metrics()
	m["store.hits"], m["store.misses"] = float64(sm.Hits), float64(sm.Misses)
	m["store.publishes"], m["store.quarantined"] = float64(sm.Puts), float64(sm.Quarantined)
	m["store.hit_ratio"] = ratio(float64(sm.Hits), float64(sm.Hits+sm.Misses))
	if want := map[string]float64{storeCold: 0, storeWarm: 1}[e.w.StoreMode]; m["store.hit_ratio"] != want {
		return fmt.Errorf("%s store: hit ratio %v, want %v", e.w.StoreMode, m["store.hit_ratio"], want)
	}
	// The facade never scans the directory; the scan has a span of its own
	// so that it is not mistaken for glue.
	id = tr.begin(it, "store.stats")
	stats, err := st.Stats()
	tr.end(id)
	m["store.records"], m["store.bytes_on_disk"] = float64(stats.Records), float64(stats.Bytes)
	return err
}

// walkResilient is the ladder path. Its telemetry registry is the only
// way to count bisections and rung attempts from outside.
func (e *env) walkResilient(tr *tracer, it int, wk *walked, so src.Options, m map[string]float64) error {
	so.Telemetry = obs.New()
	id := tr.begin(it, "analysis.partitioned")
	part, err := analysis.RunPartitionedCached(wk.net, so, wk.net.AllPrefixes(), analysis.LadderOptions{}, nil)
	tr.end(id)
	if err != nil {
		return err
	}
	stageChildren(tr, id, part.Groups)
	m["analysis.ladder_attempts"] = float64(so.Telemetry.Counter("resilience.retries").Value())
	wk.add(part.Groups, true)
	wk.byPrefix = part.PipelinesFor
	wk.outcomes = part.Outcomes()
	return nil
}

// walkFleet is the multi-process path. The flight recorder on its
// telemetry is where the coordinator reports retries and crashes.
func (e *env) walkFleet(tr *tracer, it int, wk *walked, so src.Options, m map[string]float64) error {
	tel := obs.New()
	rec := obs.NewRecorder(0)
	tel.SetRecorder(rec)
	co := coord.Options{Workers: e.w.Opts.Workers, Verify: so} // Exe defaults to this binary, Args to "worker"
	co.Verify.Telemetry = tel
	domain := wk.net.AllPrefixes()
	id := tr.begin(it, "coord.run")
	part, err := coord.Run(wk.net, domain, co)
	tr.end(id)
	if err != nil {
		return err
	}
	for _, ev := range rec.Events() {
		if ev.Stage == "coord.retry" {
			m["coord.retries"]++
		}
	}
	m["coord.tasks"] = float64(len(domain))
	wk.lanes = e.w.Opts.Workers
	wk.add(part.Groups, false)
	wk.byPrefix = part.PipelinesFor
	wk.outcomes = part.Outcomes()
	return nil
}

// tracedSweep asks the workload's queries of the pipelines directly,
// one span per query, the way the facade's FailureTolerance and
// Probability do.
func (e *env) tracedSweep(tr *tracer, parent int, wk *walked, in *inputs, t *tally) *answerSet {
	sw := tr.begin(parent, "analysis.sweep")
	defer tr.end(sw)
	ref := in.ref
	ids := make([]topology.RouterID, len(ref.routers))
	for r, name := range ref.routers {
		ids[r] = wk.net.Topology.MustRouter(name)
	}
	model := prob.LinkModel{PDown: e.w.PDown}
	got := newAnswerSet(ref)
	for _, q := range in.sweep {
		pfx := ref.prefixes[q.p]
		name := "analysis.tolerance"
		if q.kind == queryProbability {
			name = "analysis.probability"
		}
		t.attempted++
		id := tr.begin(sw, name)
		err := protect(func() error {
			pipes := wk.byPrefix(pfx)
			if len(pipes) == 0 {
				return fmt.Errorf("no pipeline covers %s", pfx)
			}
			k, pmin := infinite, 1.0
			for _, pipe := range pipes {
				hdr := pipe.OwnedHeaders(pfx)
				property := pipe.ReachBDD(ids[q.r], pipe.OriginSet(pfx), hdr)
				if q.kind == queryTolerance {
					k = min(k, pipe.MinTolerance(property, hdr))
					continue
				}
				results := pipe.Probability(property, model)
				if len(results) == 0 {
					return sre.ErrNoPFECs
				}
				for _, r := range results {
					pmin = min(pmin, r.P)
				}
			}
			if q.kind == queryTolerance {
				got.tol[q.r][q.p] = k
			} else {
				got.prob[q.r][q.p] = pmin
			}
			return nil
		})
		tr.end(id)
		if err != nil {
			t.fail(e.w.Name, "traced query", err)
		}
	}
	return got
}

// extras measures what the workload's own path does not expose: the
// serial decomposition of a parallel run, the codecs a fleet runs in
// its workers, and kernel numbers no other layer touches.
func (e *env) extras(tr *tracer, ex int, wk *walked, so src.Options, in *inputs, m map[string]float64, t *tally) error {
	net := wk.net
	id := tr.begin(ex, "config.format")
	config.Format(net)
	tr.end(id)

	switch e.w.path() {
	case pathSharded:
		for _, pfx := range net.AllPrefixes() {
			id = tr.begin(ex, "analysis.prefixcost")
			analysis.PrefixCost(net, pfx)
			tr.end(id)
			pipes, _, err := prefixTask(tr, ex, net, so, pfx)
			if err != nil {
				return err
			}
			for _, p := range pipes {
				p.Release()
			}
		}
	case pathFleet:
		// The same domain in-process at parallelism = workers: what the
		// fleet costs on top is the coordinator's overhead.
		id = tr.begin(ex, "sched.run")
		part, err := analysis.RunSharded(net, so, net.AllPrefixes(), e.w.Opts.Workers)
		tr.end(id)
		if err != nil {
			return err
		}
		part.Release()
		// The codec a worker runs on its result and the coordinator on
		// receipt, on the pipelines the fleet delivered.
		id = tr.begin(ex, "analysis.encode")
		wps, err := analysis.EncodePipelines(wk.pipes, net)
		tr.end(id)
		if err != nil {
			return err
		}
		for _, wp := range wps {
			m["analysis.wire_bytes"] += float64(len(wp.BDD))
		}
		id = tr.begin(ex, "analysis.decode")
		pipes, err := analysis.DecodePipelines(net, so, wps, nil)
		tr.end(id)
		if err != nil {
			return err
		}
		for _, p := range pipes {
			p.Release()
		}
	}

	// Extract on a stride of the sweep's property BDDs.
	ref := in.ref
	n := 0
	for _, q := range in.sweep {
		if q.kind != queryTolerance {
			continue
		}
		if n++; n%extractStride != 0 {
			continue
		}
		pfx := ref.prefixes[q.p]
		s := net.Topology.MustRouter(ref.routers[q.r])
		t.attempted++
		err := protect(func() error {
			for _, pipe := range wk.byPrefix(pfx) {
				id := tr.begin(ex, "analysis.reach")
				property := pipe.ReachBDD(s, pipe.OriginSet(pfx), pipe.OwnedHeaders(pfx))
				tr.end(id)
				id = tr.begin(ex, "analysis.extract")
				pipe.Extract(property)
				tr.end(id)
			}
			return nil
		})
		if err != nil {
			t.fail(e.w.Name, "extract", err)
		}
	}
	return e.kernel(tr, ex, wk, so, m)
}

// kernel gives the bdd layer numbers of its own: a fixed operation
// script on a fresh manager sized to the workload's link band, and a
// timed Write/Read of the first pipeline's PFEC predicates.
func (e *env) kernel(tr *tracer, ex int, wk *walked, so src.Options, m map[string]float64) error {
	links := wk.net.Topology.NumLinks()
	id := tr.begin(ex, "bdd.script")
	sp := symbol.NewSpace(links, bdd.Config{}, 0, nil)
	mgr, vars := sp.M, sp.LinkVars()
	f := mgr.AtMostKFalse(vars, 3)
	// Bands of 2-literal clauses over links 1..8 levels apart: diagrams
	// up to 2^8 wide, conjoined, then half the band quantified away.
	for d := 1; d <= 8 && d < links; d++ {
		clauses := make([]bdd.Node, 0, links)
		pairs := make([]bdd.Node, 0, links)
		for i := 0; i+d < links; i++ {
			clauses = append(clauses, mgr.Or(mgr.Var(vars[i]), mgr.Var(vars[i+d])))
			pairs = append(pairs, mgr.And(mgr.NVar(vars[i]), mgr.NVar(vars[i+d])))
		}
		f = mgr.And(f, mgr.And(mgr.AndN(clauses...), mgr.Not(mgr.OrN(pairs...))))
	}
	var even []int
	for i := 0; i < links; i += 2 {
		even = append(even, vars[i])
	}
	mgr.ExistsCube(f, mgr.CubeVars(even))
	tr.end(id)
	m["bdd.script_nodes"] = float64(mgr.Statistics().PeakNodes)

	if len(wk.pipes) == 0 {
		return nil
	}
	pipe := wk.pipes[0]
	var roots []bdd.Node
	for r := 0; r < wk.net.Topology.NumRouters(); r++ {
		for _, pf := range pipe.PFECs(topology.RouterID(r)) {
			roots = append(roots, pf.Pred)
		}
	}
	var buf bytes.Buffer
	id = tr.begin(ex, "bdd.write")
	err := pipe.Sp.M.Write(&buf, roots...)
	tr.end(id)
	if err != nil {
		return err
	}
	wk.blobBytes = buf.Len()
	so.BDDNodeLimit = 0 // the kernel number must not depend on the workload's limit
	id = tr.begin(ex, "symbol.newspace")
	fresh := analysis.NewRunSpace(wk.net, so)
	tr.end(id)
	id = tr.begin(ex, "bdd.read")
	_, err = fresh.M.Read(&buf)
	tr.end(id)
	return err
}

// layerMetrics derives the per-layer numbers of one round from its spans
// and the counters read at the same boundaries.
func (e *env) layerMetrics(rd *round, wk *walked, in *inputs) {
	tr, m := rd.tr, rd.m
	sum := func(name string) float64 { return tr.total(name).Seconds() }
	wall := rd.wall.Seconds()

	m["config.parse_s"] = sum("config.parse")
	m["config.format_s"] = sum("config.format")
	m["config.text_bytes"] = float64(len(in.text))
	m["config.parse_mb_per_s"] = ratio(float64(len(in.text))/1e6, m["config.parse_s"])
	m["order.compute_s"] = sum("order.compute")
	m["symbol.newspace_s"] = sum("symbol.newspace")

	m["src.run_s"] = wk.srcTime.Seconds()
	m["src.share"] = ratio(wk.srcTime.Seconds(), wall*float64(wk.lanes))
	for _, st := range wk.engines {
		m["src.activations"] += float64(st.Activations)
		m["src.routes_imported"] += float64(st.RoutesImported)
		m["src.routes_pruned"] += float64(st.RoutesPruned)
		m["src.rib_routes"] += float64(st.RIBRoutes)
	}
	m["src.activations_per_s"] = ratio(m["src.activations"], m["src.run_s"])

	m["spf.newforwarder_s"] = sum("spf.newforwarder")
	m["spf.forward_s"] = wk.spfTime.Seconds() - m["spf.newforwarder_s"]
	m["spf.share"] = ratio(wk.spfTime.Seconds(), wall*float64(wk.lanes))
	var lookups, hits, axLookups, axHits float64
	for _, p := range wk.pipes {
		m["spf.pfecs"] += float64(p.NumPFECs())
		st := p.Sp.M.Statistics()
		m["bdd.peak_nodes"] += float64(st.PeakNodes)
		m["bdd.unique_hits"] += float64(st.UniqueHits)
		m["bdd.gc_runs"] += float64(st.GCRuns)
		m["bdd.reorders"] += float64(st.Reorders)
		hits += float64(st.CacheHits)
		lookups += float64(st.CacheHits + st.CacheMiss)
		axHits += float64(st.AxCacheHits)
		axLookups += float64(st.AxCacheHits + st.AxCacheMiss)
	}
	m["spf.pfecs_per_s"] = ratio(m["spf.pfecs"], m["spf.forward_s"])
	m["bdd.cache_lookups"] = lookups + axLookups
	m["bdd.lookups_per_s"] = ratio(lookups+axLookups, wall)
	m["bdd.cache_hit_ratio"] = ratio(hits, lookups)
	m["bdd.ax_cache_hit_ratio"] = ratio(axHits, axLookups)
	m["bdd.script_s"] = sum("bdd.script")
	m["bdd.write_s"], m["bdd.read_s"] = sum("bdd.write"), sum("bdd.read")
	m["bdd.write_mb_per_s"] = ratio(float64(wk.blobBytes)/1e6, m["bdd.write_s"])
	m["bdd.read_mb_per_s"] = ratio(float64(wk.blobBytes)/1e6, m["bdd.read_s"])

	m["analysis.tolerance_s"] = sum("analysis.tolerance")
	m["analysis.tolerance_p99_s"] = tail(tr.durations("analysis.tolerance"))
	m["analysis.probability_s"] = sum("analysis.probability")
	m["analysis.extract_s"] = sum("analysis.extract")
	m["analysis.queries"] = float64(len(in.sweep))
	m["analysis.queries_per_s"] = ratio(float64(len(in.sweep)), sum("analysis.sweep"))
	m["analysis.cachekey_s"] = sum("analysis.cachekey")
	m["analysis.prefixcost_s"] = sum("analysis.prefixcost")
	m["analysis.encode_s"], m["analysis.decode_s"] = sum("analysis.encode"), sum("analysis.decode")
	m["analysis.encode_mb_per_s"] = ratio(m["analysis.wire_bytes"]/1e6, m["analysis.encode_s"])
	m["analysis.decode_mb_per_s"] = ratio(m["analysis.wire_bytes"]/1e6, m["analysis.decode_s"])
	tasks := tr.durations("analysis.prefix_task")
	m["analysis.prefix_tasks"] = float64(len(tasks))
	m["analysis.prefix_task_sum_s"] = sum("analysis.prefix_task")
	if len(tasks) > 0 {
		m["analysis.prefix_task_max_s"] = tasks[len(tasks)-1].Seconds()
	}

	if w := sum("sched.run"); w > 0 {
		m["sched.wall_s"] = w
		m["sched.speedup_vs_p1"] = ratio(m["analysis.prefix_task_sum_s"], w)
		m["sched.efficiency"] = ratio(m["analysis.prefix_task_sum_s"], float64(wk.lanes)*w)
	}
	m["store.put_s"], m["store.get_s"] = sum("store.put"), sum("store.get")
	m["store.get_p99_s"] = tail(tr.durations("store.get"))
	if run := sum("coord.run"); run > 0 {
		m["coord.run_s"] = run
		m["coord.overhead_s"] = run - m["sched.wall_s"]
		m["coord.per_task_overhead_s"] = ratio(m["coord.overhead_s"], m["coord.tasks"])
	}
}

// tail is the 99th percentile of ascending durations, or the maximum
// when fewer than 100 samples leave nothing beyond it.
func tail(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	if len(ds) < 100 {
		return ds[len(ds)-1].Seconds()
	}
	return ds[len(ds)*99/100].Seconds()
}

// procSnapshot reads the process-wide counters proc.* are deltas of.
// The process is this one plus the worker subprocesses it has reaped.
type procSnapshot struct {
	at        time.Time
	user, sys time.Duration
	maxRSSKB  int64 // Linux reports KB
	gcCycles  uint32
	gcPause   time.Duration
}

func snapshotProc() procSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p := procSnapshot{at: time.Now(), gcCycles: ms.NumGC, gcPause: time.Duration(ms.PauseTotalNs)}
	for _, who := range []int{syscall.RUSAGE_SELF, syscall.RUSAGE_CHILDREN} {
		var ru syscall.Rusage
		if err := syscall.Getrusage(who, &ru); err != nil {
			continue // the proc.* numbers then miss that share
		}
		p.user += time.Duration(ru.Utime.Nano())
		p.sys += time.Duration(ru.Stime.Nano())
		p.maxRSSKB = max(p.maxRSSKB, int64(ru.Maxrss))
	}
	return p
}

// tracedPass measures the per-layer metrics: rounds of (traced walk,
// untraced facade iteration, facade iteration with a flight recorder)
// until the window closes. The last round's spans are written to
// <out>/trace_<workload>.json.
func (e *env) tracedPass(window time.Duration, outDir string) (result, error) {
	in, _, err := e.setUpRepeated()
	if err != nil {
		return result{}, err
	}
	for i := 0; i < e.w.WarmUps; i++ {
		if _, err := e.workloadIteration(in, e.w.Opts); err != nil {
			return result{}, err
		}
	}
	var t tally
	var last *round
	perRound := map[string][]float64{}
	var plain, recorded, verify, traced []float64
	heapPeak := 0.0
	p0 := snapshotProc()
	for i := 0; i < 1 || time.Since(p0.at) < window; i++ {
		rd, err := e.tracedRound(in)
		if err != nil {
			return result{}, err
		}
		t.merge(rd.tally)
		for k, v := range rd.m {
			perRound[k] = append(perRound[k], v)
		}
		traced = append(traced, rd.wall.Seconds())
		last = rd

		s, err := e.workloadIteration(in, e.w.Opts)
		if err != nil {
			return result{}, err
		}
		t.add(s)
		withRecorder := e.w.Opts
		withRecorder.Recorder = sre.NewFlightRecorder(0)
		sr, err := e.workloadIteration(in, withRecorder)
		if err != nil {
			return result{}, err
		}
		t.add(sr)
		plain = append(plain, s.wall().Seconds())
		recorded = append(recorded, sr.wall().Seconds())
		verify = append(verify, s.verify.Seconds())
		heapPeak = max(heapPeak, s.heapSysMB, sr.heapSysMB)
	}
	p1 := snapshotProc()

	raw := map[string]float64{}
	for k, vs := range perRound {
		raw[k] = median(vs)
	}
	raw["obs.recorder_overhead_share"] = ratio(median(recorded), median(plain)) - 1
	raw["trace.overhead_share"] = ratio(median(traced), median(plain)) - 1
	byLayer, rootWall := last.tr.selfTimes()
	raw["trace.attributed_share"] = 1 - ratio(byLayer["bench"].Seconds(), rootWall.Seconds())

	elapsed := p1.at.Sub(p0.at)
	raw["proc.peak_rss_mb"] = float64(p1.maxRSSKB) / 1024
	raw["proc.heap_peak_mb"] = heapPeak
	raw["proc.gc_cycles"] = float64(p1.gcCycles - p0.gcCycles)
	raw["proc.gc_pause_total_s"] = (p1.gcPause - p0.gcPause).Seconds()
	raw["proc.user_cpu_s"] = (p1.user - p0.user).Seconds()
	raw["proc.sys_cpu_s"] = (p1.sys - p0.sys).Seconds()
	raw["proc.cpu_utilisation"] = ratio(raw["proc.user_cpu_s"]+raw["proc.sys_cpu_s"], elapsed.Seconds())

	raw["run.iterations"] = float64(len(verify))
	raw["run.verify_min_s"], raw["run.verify_max_s"] = quantile(verify, 0), quantile(verify, 1)
	if len(verify) >= 4 {
		raw["run.verify_iqr_s"] = quantile(verify, 0.75) - quantile(verify, 0.25)
	}
	raw["run.wrong_answers"] = float64(t.wrong)
	raw["run.failed_share"] = ratio(float64(t.failed), float64(t.attempted))

	path := filepath.Join(outDir, "trace_"+e.w.Name+".json")
	err = last.tr.write(path, map[string]any{
		"workload": e.w.Name, "seed": e.seed, "path": e.w.path(),
		"network": e.w.Gen.String(), "env": sre.Environment(),
	})
	if err != nil {
		return result{}, fmt.Errorf("writing the trace: %w", err)
	}
	fmt.Fprintf(os.Stderr, "bench: %s: %d traced rounds, attributed %.3f, overhead %+.3f, trace in %s\n",
		e.w.Name, len(traced), raw["trace.attributed_share"], raw["trace.overhead_share"], path)
	for _, layer := range sortedKeys(byLayer) {
		fmt.Fprintf(os.Stderr, "bench:   self %-9s %8.4fs\n", layer, byLayer[layer].Seconds())
	}
	return result{Correct: t.correct(), Attempted: t.attempted, Failed: t.failed,
		Metrics: report(perLayer, raw)}, nil
}
