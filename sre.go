// Package sre is a Go implementation of Symbolic Router Execution
// (Zhang, Wang, Gember-Jacobson — SIGCOMM 2022): a general and scalable
// network configuration verification engine that symbolically executes
// the network control plane and data plane with BOTH packet headers and
// link failures as symbolic inputs.
//
// SRE discovers Packet Failure Equivalence Classes (PFECs): classes of
// (packet, failure-scenario) tuples that follow the same forwarding
// path. Encoded as binary decision diagrams, PFECs reduce a wide range
// of analyses to graph algorithms:
//
//   - failure tolerance — the maximum number of simultaneous link
//     failures a property survives — is a shortest-path computation;
//   - the probability that a property holds under independent link (and
//     node) failures is a weighted path sum;
//   - configuration diffing under failures is an XOR of BDDs;
//   - specification mining enumerates tolerances for all (source,
//     prefix) pairs with stratified pruning.
//
// # Quick start
//
//	net, err := sre.ParseNetwork(configText)
//	v, err := sre.NewVerifier(net, sre.Options{MaxFailures: 3})
//	k, err := v.FailureTolerance("A", "10.0.0.0/24")     // tolerance
//	p, err := v.Probability("A", "10.0.0.0/24", sre.LinkFailures(0.001))
//
// The underlying stages (symbolic route computation, symbolic packet
// forwarding, property analysis) live in internal packages; this package
// is the supported surface.
package sre

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"sre/internal/analysis"
	"sre/internal/bdd"
	"sre/internal/config"
	"sre/internal/coord"
	"sre/internal/obs"
	"sre/internal/order"
	"sre/internal/prob"
	"sre/internal/resil"
	"sre/internal/route"
	"sre/internal/src"
	"sre/internal/symmetry"
	"sre/internal/topology"
)

// Network is a parsed network: topology plus per-router configuration.
type Network = config.Network

// ParseNetwork parses the textual network format (see the config package
// documentation for the grammar: a topology section followed by router
// sections with bgp/ospf/static/interface/route-map blocks).
func ParseNetwork(text string) (*Network, error) {
	return config.ParseString(text)
}

// ReadNetwork parses a network from a reader.
func ReadNetwork(r io.Reader) (*Network, error) {
	return config.Parse(r)
}

// LoadNetwork parses a network from a file.
func LoadNetwork(path string) (*Network, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return config.Parse(f)
}

// FormatNetwork renders a network back into the textual format.
func FormatNetwork(n *Network) string { return config.Format(n) }

// Options configures verification. buildOpts translates the fields
// that shape a result into the engine's src.Options, whose declaration
// is the one place that says, field by field, what is encoded, shipped
// to worker subprocesses and hashed into result-cache keys; the other
// fields say how and where this process runs, never what a run answers.
// The BDD variable order is not an option: it is computed from the
// topology, and Metrics().BDD.VarOrderMethod names it.
type Options struct {
	// MaxFailures bounds the failure budget explored (route pruning,
	// §7.1 of the paper). Negative explores the full failure space.
	// The default (0) explores only the no-failure scenario; most
	// callers want 1-4.
	MaxFailures int
	// NoECMP disables multipath route selection.
	NoECMP bool
	// IBGPFullMesh enables iBGP full-mesh sessions among same-AS
	// routers that also run OSPF; sessions are modeled as virtual
	// links conditioned on underlay reachability (§4).
	IBGPFullMesh bool
	// Prefixes restricts analysis to these destination prefixes
	// (prefix pruning, §7.2). Empty means all originated prefixes.
	// Routes are still computed for the prefixes their answers depend
	// on: overlapping originated prefixes (a covering prefix is the
	// longest-prefix-match fallback) and aggregate contributors.
	Prefixes []string
	// BDDNodeLimit caps the BDD node table: 0 (the package default,
	// 2²⁶ nodes) through 2²⁷ nodes, the most a node handle can address
	// in the operation cache's packed key; NewVerifier rejects any other
	// value. When exceeded, NewVerifier returns ErrBDDLimit — unless Resilient
	// is set, in which case overflowing prefixes are quarantined and
	// retried through the degradation ladder instead.
	BDDNodeLimit int
	// Context, when non-nil, cancels the run cooperatively: the
	// pipeline polls it from its inner loops (BDD operations, router
	// activations) and aborts within one polling interval, returning an
	// error matching ErrCanceled (or ErrDeadline when the context's own
	// deadline expired).
	Context context.Context
	// Timeout bounds the wall-clock duration of the run. When it
	// expires mid-run the pipeline aborts with an error matching
	// ErrDeadline. Zero means no budget.
	Timeout time.Duration
	// Parallelism is the number of workers used to run multi-prefix
	// verification and mining: prefixes are analyzed as independent
	// prefix-scoped pipelines (§7.2 makes the decomposition sound), each
	// idle worker claiming the largest prefix not yet started and
	// building its own BDD manager. 0 (the default) uses
	// runtime.GOMAXPROCS(0); 1 runs the same tasks one at a time —
	// except that a one-worker run with nothing to decompose for (not
	// Resilient, no Store, no Workers, no symmetry orbit) verifies the
	// whole domain as a single task in one symbolic space, which shares
	// route computation across prefixes. Results are the same at any
	// setting: outcomes, answers, PFEC counts and forwarding classes do
	// not depend on how the run was split up, and outcomes and mined
	// specs are ordered by prefix, never by completion order.
	Parallelism int
	// Workers, when > 0, verifies prefixes across that many worker
	// subprocesses instead of in-process goroutines: the coordinator
	// fork/execs `sre worker` children (never more than there are
	// prefixes to compute), supervises them with heartbeats, retries
	// crashed tasks with backoff, and quarantines prefixes that keep
	// crashing to an in-process fallback (surfaced via
	// Verifier.CrashDegraded). Results are byte-identical to an
	// in-process Parallelism run at any worker count. 0 (the default)
	// keeps everything in-process. Deterministic worker faults for
	// testing come from the SRE_FAULT environment variable (see the
	// coord package for the plan syntax, e.g. "crash@0;stall@2"), which
	// workers inherit.
	Workers int
	// Resilient enables graceful degradation for multi-prefix runs:
	// every prefix is verified as its own scoped task (at any
	// Parallelism), and instead of failing the whole run when a task
	// overflows the BDD node table, that prefix is quarantined and
	// retried at halved failure budgets (MaxFailures/2, /4, ... down to
	// 0) while the remaining prefixes complete normally. Per-prefix
	// outcomes are reported by Verifier.Outcomes; a prefix verified on
	// the halve-budget rung answers for its
	// EffectivePruneK, so its tolerances are sound lower bounds: reach
	// and waypoint tolerances count every unexplored scenario as a
	// violation (they never exceed the unlimited answer), and an
	// isolation or waypoint-only query that finds no violation reports
	// the effective budget rather than InfiniteTolerance.
	Resilient bool
	// Telemetry, when non-nil, collects counters and gauges across the
	// run (see NewTelemetry and Verifier.Metrics); stage wall times are
	// recorded by Recorder. Nil disables collection at near-zero cost
	// unless Progress or Trace request an internal instance.
	Telemetry *Telemetry
	// Progress receives live progress events during symbolic execution
	// ("spf: 412/1280 routers, ..."). StderrProgress() gives the
	// default rate-limited stderr ticker. Setting Progress without a
	// Telemetry creates one internally.
	Progress ProgressSink
	// Trace collects into an internal registry when no Telemetry is
	// given; Verifier.Metrics reports its snapshot.
	Trace bool
	// Recorder, when non-nil, is a flight recorder capturing structured
	// events at every pipeline stage boundary (SRC/SPF stages, scheduler
	// tasks, per-prefix attempts, BDD GCs and overflows) into a bounded
	// ring buffer. Export the recording with
	// FlightRecorder.WriteChromeTrace (Perfetto/chrome://tracing) or
	// WriteEventLog (NDJSON for `srebench -compare`). Setting Recorder
	// without a Telemetry creates one internally. Nil costs nothing on
	// the hot path.
	Recorder *FlightRecorder
	// Store, when non-nil, is a persistent result cache (see OpenStore):
	// each prefix is looked up before it is computed and published after
	// — across in-process, parallel, and multi-process runs, which share
	// one content-addressed key space. A run that verifies one prefix per
	// symmetry orbit looks up representatives only, and publishes each
	// member's record renamed from its representative's. Results are
	// identical with a cold, warm, or corrupted cache; Verifier.Metrics
	// reports the traffic (including quarantined corrupt records) under
	// Store.
	Store *Store
}

// telemetry resolves the telemetry instance implied by the options: the
// explicit one, or a fresh internal one when Progress or Trace ask for
// collection. The progress sink, if any, is installed on it.
func (o Options) telemetry() *obs.Telemetry {
	tel := o.Telemetry
	if tel == nil && (o.Progress != nil || o.Trace || o.Recorder != nil) {
		tel = obs.New()
	}
	if tel != nil && o.Progress != nil {
		tel.SetSink(o.Progress)
	}
	if tel != nil && o.Recorder != nil {
		tel.SetRecorder(o.Recorder)
	}
	return tel
}

// ErrBDDLimit is returned when the BDD node table overflows — the
// "BDD limit" outcome of the paper's Table 2 and Figure 11.
var ErrBDDLimit = bdd.ErrNodeLimit

// Verifier holds the result of symbolically executing a network: the
// PFECs, ready for property analysis.
type Verifier struct {
	net *Network
	// part is what the executor produced: the pipelines covering each
	// prefix of the analysis domain (one shared by all of them for a
	// combined run) and the per-prefix outcomes.
	part *analysis.Partitioned
	tel  *obs.Telemetry
	// resilient records whether the verifier ran with
	// Options.Resilient (gates Outcomes; other runs have no degradation
	// outcomes to report).
	resilient bool
	// store is the persistent result cache the run consulted, if any
	// (surfaced in Metrics).
	store *Store
	// varOrder names the link-variable order computed for the
	// topology; it surfaces in Metrics and the CLI summary.
	varOrder string
	// originated holds every prefix some router originates, indexed
	// once so a pair query need not walk the routers to check it.
	originated map[route.Prefix]map[topology.RouterID]bool
	// outcomes are the run's per-prefix outcomes, sorted by prefix. They
	// do not change after NewVerifier, which takes them once.
	outcomes []PrefixOutcome
	// numPFECs caches NumPFECs (-1 until first asked): where a scoped
	// prefix covers another, counting its classes takes BDD work.
	numPFECs int
}

// NewVerifier symbolically executes the network (symbolic route
// computation, then symbolic packet forwarding) and returns a verifier
// over the discovered PFECs.
func NewVerifier(net *Network, opts Options) (v *Verifier, err error) {
	return newVerifier(net, opts, true)
}

// newVerifier is NewVerifier; without orbits it verifies every prefix
// itself, which the tests compare the orbit-reduced run against.
func newVerifier(net *Network, opts Options, orbits bool) (v *Verifier, err error) {
	srcOpts, prefixes, err := buildOpts(opts)
	if err != nil {
		return nil, err
	}
	v = &Verifier{net: net, tel: srcOpts.Telemetry, resilient: opts.Resilient, store: opts.Store,
		varOrder: order.Compute(net.Topology).Name, numPFECs: -1}
	defer func() {
		if err != nil {
			v = nil
		}
	}()
	defer guard("verify", srcOpts.Telemetry, &err)
	// Every run is one call of the per-prefix executor; the options only
	// fill in its data. Prefixes reaches a combined run closed over its
	// dependencies; the domain is what the verifier answers queries for.
	srcOpts.Prefixes = prefixes
	all, originated := net.PrefixOrigins()
	v.originated = originated
	domain := prefixes
	if len(domain) == 0 {
		domain = all
	}
	x := analysis.Executor{Net: net, Opts: srcOpts, Ladder: opts.Resilient,
		Workers: analysis.Workers(srcOpts), Cache: opts.Store.cache()}
	if orbits && x.OrbitsApply() {
		// One prefix per symmetry orbit is verified; the rest are
		// answered through it.
		x.Orbits = symmetry.Find(net)
	}
	if opts.Workers > 0 {
		// A fleet is only another place for the pending tasks to run.
		// Worker crashes are retried there, so only verification errors
		// (cancellation, non-convergence, a non-resilient overflow) abort.
		copts := coord.Options{
			Workers:   opts.Workers,
			Verify:    srcOpts,
			Resilient: opts.Resilient,
			Cache:     x.Cache,
		}
		if x.Dispatch, err = coord.Fleet(net, copts); err != nil {
			return nil, err
		}
	}
	if v.part, err = x.Run(domain); err != nil {
		return nil, err
	}
	v.outcomes = v.part.Outcomes()
	return v, nil
}

// buildOpts translates the public options into engine options (wiring
// the cancellation checker into the interrupt hook) and parses the
// requested prefixes.
func buildOpts(opts Options) (src.Options, []route.Prefix, error) {
	if err := bdd.CheckNodeLimit(opts.BDDNodeLimit); err != nil {
		return src.Options{}, nil, err
	}
	// The shared checker is safe for the concurrent pipelines of a
	// parallel run and costs the same at one worker.
	checker := resil.NewSharedChecker(opts.Context, opts.Timeout)
	srcOpts := src.Options{
		PruneK:       opts.MaxFailures,
		NoECMP:       opts.NoECMP,
		IBGPFullMesh: opts.IBGPFullMesh,
		Telemetry:    opts.telemetry(),
		Interrupt:    checker.Fn(),
		BDDNodeLimit: opts.BDDNodeLimit,
		Parallelism:  opts.Parallelism,
	}
	var prefixes []route.Prefix
	for _, p := range opts.Prefixes {
		pfx, err := route.ParsePrefix(p)
		if err != nil {
			return src.Options{}, nil, err
		}
		prefixes = append(prefixes, pfx)
	}
	return srcOpts, prefixes, nil
}

// Release frees the verifier's BDD resources. The verifier must not be
// used afterwards.
func (v *Verifier) Release() { v.part.Release() }

// NumPFECs returns the number of packet failure equivalence classes
// discovered across all sources: the forwarding classes
// (ForwardingClasses) of every source router, one per forwarding path,
// whatever the run's shape. Prefixes answered through their symmetry
// orbit count as the run verifying them would have counted them.
func (v *Verifier) NumPFECs() int {
	if v.numPFECs < 0 {
		v.numPFECs = v.countPFECs()
	}
	return v.numPFECs
}

// Stages returns the wall-clock durations of the two symbolic execution
// stages (SRC and SPF), as reported in the paper's Figure 13 (summed
// over prefix groups for a resilient run).
func (v *Verifier) Stages() (srcTime, spfTime float64) {
	for _, pipe := range v.part.Groups {
		srcTime += pipe.SRCTime.Seconds()
		spfTime += pipe.SPFTime.Seconds()
	}
	return srcTime, spfTime
}

// InfiniteTolerance is returned when no explored failure combination
// violates the property; with a bounded budget read it as "at least
// MaxFailures".
const InfiniteTolerance = analysis.InfiniteTolerance

// resolve translates the router, prefix and (for waypoint queries) the
// one waypoint name of a pair query and builds the query on the
// pipeline answering it. The checks run in one order — source router,
// prefix syntax, prefix origin, waypoint, pipeline — so a bad input
// reports the same error from every query.
func (v *Verifier) resolve(srcRouter, prefix string, via ...string) (q analysis.Query, w topology.RouterID, err error) {
	s, pfx, err := v.parsePair(srcRouter, prefix)
	if err != nil {
		return q, w, err
	}
	return v.resolvePrefix(s, pfx, via...)
}

// parsePair is resolve's first two checks: the source router, then the
// prefix syntax.
func (v *Verifier) parsePair(srcRouter, prefix string) (topology.RouterID, route.Prefix, error) {
	s, ok := v.net.Topology.RouterByName(srcRouter)
	if !ok {
		return s, route.Prefix{}, fmt.Errorf("sre: unknown router %q", srcRouter)
	}
	pfx, err := route.ParsePrefix(prefix)
	return s, pfx, err
}

// resolvePrefix is resolve once the source router and the prefix are
// known: the checks from prefix origin on.
func (v *Verifier) resolvePrefix(s topology.RouterID, pfx route.Prefix, via ...string) (q analysis.Query, w topology.RouterID, err error) {
	if len(v.originated[pfx]) == 0 {
		return q, w, fmt.Errorf("sre: prefix %s is not originated anywhere", pfx)
	}
	for _, name := range via {
		var ok bool
		if w, ok = v.net.Topology.RouterByName(name); !ok {
			return q, w, fmt.Errorf("sre: unknown waypoint %q", name)
		}
	}
	pipe, err := v.pipeFor(pfx)
	if err != nil {
		return q, w, err
	}
	if img, ok := v.part.Image(pfx); ok {
		// (s, σ(p), via) is answered as (π⁻¹(s), p, π⁻¹(via)).
		s, pfx = img.Inv[s], img.Rep
		if len(via) > 0 {
			w = img.Inv[w]
		}
	}
	return pipe.Query(s, pfx), w, nil
}

// FailureTolerance returns the reachability failure tolerance from
// srcRouter to the originators of prefix: the maximum k such that the
// prefix stays reachable under every combination of at most k link
// failures. -1 means unreachable even with all links up;
// InfiniteTolerance means no explored combination breaks it.
func (v *Verifier) FailureTolerance(srcRouter, prefix string) (k int, err error) {
	s, pfx, err := v.parsePair(srcRouter, prefix)
	if err != nil {
		return 0, err
	}
	return v.reachTolerance(s, pfx)
}

// reachTolerance is FailureTolerance from s to pfx, both resolved;
// FailureTolerances calls it once per prefix of the run.
func (v *Verifier) reachTolerance(s topology.RouterID, pfx route.Prefix) (k int, err error) {
	defer guard("analysis", v.tel, &err)
	q, _, err := v.resolvePrefix(s, pfx)
	if err != nil {
		return 0, err
	}
	return q.Tolerance(q.Reach()), nil
}

// WaypointTolerance is FailureTolerance for the property "reaches the
// prefix AND traverses waypoint".
func (v *Verifier) WaypointTolerance(srcRouter, prefix, waypoint string) (k int, err error) {
	defer guard("analysis", v.tel, &err)
	q, w, err := v.resolve(srcRouter, prefix, waypoint)
	if err != nil {
		return 0, err
	}
	return q.Tolerance(q.Waypoint(w)), nil
}

// WaypointOnlyTolerance returns the failure tolerance of the property
// "no packet for the prefix from srcRouter reaches its originators
// WITHOUT traversing waypoint": the maximum k such that no combination
// of at most k failures lets traffic bypass the waypoint. This is the
// conditional-waypointing contract of the paper's §6.5 scenario —
// deleting C's ACL leaves the plain waypoint tolerance unchanged but
// drops the bypass tolerance from infinite to 0.
func (v *Verifier) WaypointOnlyTolerance(srcRouter, prefix, waypoint string) (k int, err error) {
	defer guard("analysis", v.tel, &err)
	q, w, err := v.resolve(srcRouter, prefix, waypoint)
	if err != nil {
		return 0, err
	}
	bypass := q.Pipe.Sp.M.Diff(q.Reach(), q.Waypoint(w))
	// Bypass must never become possible: same reduction as isolation.
	return v.exploredBound(q.Prefix, q.Isolation(bypass)), nil
}

// IsolationTolerance returns the failure tolerance of the property
// "packets for prefix from srcRouter NEVER reach its originators":
// the maximum k such that no combination of at most k failures deflects
// traffic to the destination.
func (v *Verifier) IsolationTolerance(srcRouter, prefix string) (k int, err error) {
	defer guard("analysis", v.tel, &err)
	q, _, err := v.resolve(srcRouter, prefix)
	if err != nil {
		return 0, err
	}
	return v.exploredBound(q.Prefix, q.Isolation(q.Reach())), nil
}

// LoadBalancedPaths returns the number of forwarding paths that carry
// traffic from srcRouter to the prefix simultaneously when all links are
// up (the paper's Loadbalance property holds for n ≤ this count).
func (v *Verifier) LoadBalancedPaths(srcRouter, prefix string) (n int, err error) {
	defer guard("analysis", v.tel, &err)
	q, _, err := v.resolve(srcRouter, prefix)
	if err != nil {
		return 0, err
	}
	return q.LoadBalance(), nil
}

// FailureModel is a probabilistic failure model for Probability queries.
type FailureModel struct {
	linkDown float64
	nodeDown float64
	nodes    bool
}

// LinkFailures models independent link failures with the given
// probability of any link being down.
func LinkFailures(pDown float64) FailureModel {
	return FailureModel{linkDown: pDown}
}

// NodeAndLinkFailures models independent node failures layered over
// link failures: a link is effectively down when it or either endpoint
// node is down (§6.4). Probabilities under this model are lower bounds
// whose error a MaxFailures budget does not bound: one node failure
// takes all its links down at once, so the scenarios beyond the budget
// weigh more than the binomial tail of link failures that
// RequiredBudget sizes. srebench -exp fig8 shows it on its node panel:
// SRE reads 0.997837 at the budget RequiredBudget picks for 1e-4, the
// NetDice substitute 0.999791.
func NodeAndLinkFailures(pLinkDown, pNodeDown float64) FailureModel {
	return FailureModel{linkDown: pLinkDown, nodeDown: pNodeDown, nodes: true}
}

// check rejects a model whose probabilities are not in [0, 1], NaN
// included: weighted over them, a property's scenarios sum to a number
// that is no probability.
func (model FailureModel) check() error {
	if !(model.linkDown >= 0 && model.linkDown <= 1) || !(model.nodeDown >= 0 && model.nodeDown <= 1) {
		return fmt.Errorf("sre: failure probabilities %v (link), %v (node) are not in [0, 1]",
			model.linkDown, model.nodeDown)
	}
	return nil
}

// weights is the model in the form the pipeline evaluates it.
func (model FailureModel) weights(pipe *analysis.Pipeline) analysis.Weights {
	if model.nodes {
		return pipe.NodeWeights(prob.NodeModel{PLinkDown: model.linkDown, PNodeDown: model.nodeDown})
	}
	return pipe.LinkWeights(prob.LinkModel{PDown: model.linkDown})
}

// Probability returns the probability that packets for the prefix from
// srcRouter reach its originators under the failure model. When the
// verifier was built with a bounded MaxFailures budget, the result is a
// lower bound whose error is below the binomial tail P(more than
// MaxFailures failures) (§7.1) under LinkFailures; under
// NodeAndLinkFailures it is a lower bound without that error bound.
func (v *Verifier) Probability(srcRouter, prefix string, model FailureModel) (p float64, err error) {
	defer guard("analysis", v.tel, &err)
	if err := model.check(); err != nil {
		return 0, err
	}
	q, _, err := v.resolve(srcRouter, prefix)
	if err != nil {
		return 0, err
	}
	if p, ok := q.MinProbability(q.Reach(), model.weights(q.Pipe)); ok {
		return p, nil
	}
	return 0, ErrNoPFECs
}

// WaypointProbability is Probability for the waypoint property.
func (v *Verifier) WaypointProbability(srcRouter, prefix, waypoint string, model FailureModel) (p float64, err error) {
	defer guard("analysis", v.tel, &err)
	if err := model.check(); err != nil {
		return 0, err
	}
	q, w, err := v.resolve(srcRouter, prefix, waypoint)
	if err != nil {
		return 0, err
	}
	if p, ok := q.MinProbability(q.Waypoint(w), model.weights(q.Pipe)); ok {
		return p, nil
	}
	return 0, ErrNoPFECs
}

// ErrNoPFECs is returned by probability queries whose property BDD is
// empty: no (packet, failure) tuple satisfies the property at all, so
// there is no probability to report. This is distinct from a genuine
// probability of 0, which arises when tuples exist but their scenario
// sets have zero mass under the failure model.
var ErrNoPFECs = fmt.Errorf("sre: property holds for no (packet, failure) tuple")

// RequiredBudget returns the minimum failure budget k such that ignoring
// scenarios with more than k simultaneous link failures loses at most
// imprecision of probability mass, for the network's link count and the
// model's link failure probability (§7.1). Pass the result as
// Options.MaxFailures for probabilistic analyses. The bound counts link
// failures only: under NodeAndLinkFailures the error can exceed
// imprecision (see NodeAndLinkFailures). It returns an error for a model
// whose probabilities are not in [0, 1] and for a NaN or negative
// imprecision.
func RequiredBudget(net *Network, model FailureModel, imprecision float64) (int, error) {
	if err := model.check(); err != nil {
		return 0, err
	}
	if !(imprecision >= 0) {
		return 0, fmt.Errorf("sre: imprecision %v is not a non-negative number", imprecision)
	}
	return prob.KForImprecision(net.Topology.NumLinks(), model.linkDown, imprecision), nil
}

// Specs is the result of specification mining.
type Specs = analysis.Specs

// PairKey identifies a (source router, destination prefix) property.
type PairKey = analysis.PairKey

// MineSpecs mines reachability tolerances (plus isolation, waypoint and
// load-balancing specs) for every (source, prefix) pair, exploring up to
// maxFailures simultaneous failures with the paper's stratified
// route/prefix pruning. Options.Context/Timeout bound the run;
// Options.Resilient lets a prefix that overflows the node table fail
// alone instead of failing the whole mine: it is quarantined with no
// retry (halving the budget would corrupt the stratification), its
// outcome is reported in Specs.Outcomes and its undecided pairs in
// Specs.DegradedPairs.
func MineSpecs(net *Network, maxFailures int, opts Options) (specs *Specs, err error) {
	srcOpts, _, err := buildOpts(opts)
	if err != nil {
		return nil, err
	}
	srcOpts.PruneK = 0 // the miner sets the budget per stratum
	mn := &analysis.Miner{Net: net, KMax: maxFailures,
		SrcOpts: srcOpts, Resilient: opts.Resilient}
	defer guard("mine", srcOpts.Telemetry, &err)
	return mn.Mine()
}

// Difference reports one behavioural difference found by Diff.
type Difference struct {
	Src            string
	Prefix         string
	FailuresOnly   bool // invisible with all links up (DNA-invisible)
	WitnessDown    []string
	ToleranceDelta [2]int
	ProbDelta      [2]float64
}

// Diff compares two configurations over the product space of packets
// and failures (up to maxFailures), returning the (source, prefix)
// reachability differences, each with a concrete failure-scenario
// witness and before/after tolerance and probability. opts translate as
// for NewVerifier, with maxFailures in place of opts.MaxFailures, and
// both runs report into the same telemetry. Diff ignores Prefixes,
// Parallelism, Workers, Resilient and Store: each configuration runs
// once, in-process, in one symbolic space. The two networks must declare
// the same routers and links in the same order; otherwise Diff returns
// an error.
func Diff(before, after *Network, maxFailures int, model FailureModel, opts Options) (out []Difference, err error) {
	if err := sameTopology(before.Topology, after.Topology); err != nil {
		return nil, err
	}
	if err := model.check(); err != nil {
		return nil, err
	}
	opts.Prefixes = nil // ignored, so a malformed one must not fail the diff
	runOpts, _, err := buildOpts(opts)
	if err != nil {
		return nil, err
	}
	runOpts.PruneK = maxFailures
	defer guard("diff", runOpts.Telemetry, &err)
	pb, err := analysis.Run(before, runOpts)
	if err != nil {
		return nil, err
	}
	defer pb.Release()
	pa, err := analysis.Run(after, runOpts)
	if err != nil {
		return nil, err
	}
	defer pa.Release()
	w := model.weights(pa) // the moved before PFECs live in pa's space too
	raw, err := analysis.DiffReachability(pb, pa, &w)
	if err != nil {
		return nil, err
	}
	out = make([]Difference, 0, len(raw))
	for _, d := range raw {
		diff := Difference{
			Src:            after.Topology.Name(d.Src),
			Prefix:         d.Prefix.String(),
			FailuresOnly:   !d.ChangedUnderNoFailures(pa),
			ToleranceDelta: [2]int{d.ToleranceBefore, d.ToleranceAfter},
			ProbDelta:      [2]float64{d.ProbBefore, d.ProbAfter},
		}
		for _, l := range d.WitnessDownLinks {
			link := after.Topology.Link(l)
			diff.WitnessDown = append(diff.WitnessDown,
				after.Topology.Name(link.A)+"~"+after.Topology.Name(link.B))
		}
		out = append(out, diff)
	}
	return out, nil
}

// sameTopology reports the first difference between the routers and
// links two networks declare, in declaration order.
func sameTopology(before, after *topology.Topology) error {
	if before.NumRouters() != after.NumRouters() || before.NumLinks() != after.NumLinks() {
		return fmt.Errorf("sre: diff: topologies differ (%d/%d routers, %d/%d links before/after)",
			before.NumRouters(), after.NumRouters(), before.NumLinks(), after.NumLinks())
	}
	for r := range before.NumRouters() {
		if b, a := before.Name(topology.RouterID(r)), after.Name(topology.RouterID(r)); b != a {
			return fmt.Errorf("sre: diff: router %d is %s before, %s after", r, b, a)
		}
	}
	for i, lb := range before.Links() {
		if la := after.Link(topology.LinkID(i)); la.A != lb.A || la.B != lb.B {
			return fmt.Errorf("sre: diff: link %d joins %s~%s before, %s~%s after", i,
				before.Name(lb.A), before.Name(lb.B), after.Name(la.A), after.Name(la.B))
		}
	}
	return nil
}
