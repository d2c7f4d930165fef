// Package analysis implements the paper's forwarding property analyses
// (§6) on top of PFECs: computing property BDDs for reachability,
// waypointing, isolation, and load balancing; decoupling them into
// (packet BDD, topology BDD) tuples with Extract (Algorithm 2); and the
// three analysis types — failure tolerance (shortest path on the
// topology BDD, Theorem 1), probabilistic (weighted sums, Theorem 2,
// including node failures), and differential (XOR of topology BDDs).
package analysis

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"sre/internal/bdd"
	"sre/internal/config"
	"sre/internal/obs"
	"sre/internal/order"
	"sre/internal/prob"
	"sre/internal/resil"
	"sre/internal/route"
	"sre/internal/spf"
	"sre/internal/src"
	"sre/internal/symbol"
	"sre/internal/topology"
)

// InfiniteTolerance marks properties that hold under every failure
// combination explored.
const InfiniteTolerance = int(^uint(0) >> 1)

// Pipeline bundles the two SRE stages — symbolic route computation and
// symbolic packet forwarding — and caches the resulting PFECs for
// property analysis. Timings are recorded per stage (Figure 13 reports
// the SRC/SPF/FPA breakdown).
type Pipeline struct {
	Net *config.Network
	Sp  *symbol.Space
	// Eng is the engine that computed the routes, kept for its
	// statistics: once the pipeline is built it holds no BDD.
	Eng *src.Engine

	// PFECs, grouped by source router.
	pfecs [][]*spf.PFEC

	// prefixes is Net.AllPrefixes() and origins the routers originating
	// each of them, taken in one walk at construction (the network is
	// read-only to a run) so property queries do not re-walk every
	// router.
	prefixes []route.Prefix
	origins  map[route.Prefix]map[topology.RouterID]bool

	SRCTime time.Duration
	SPFTime time.Duration

	// Tel is the telemetry the pipeline ran with (nil when disabled),
	// taken from the engine options.
	Tel *obs.Telemetry

	// Scope, when non-nil, restricts the pipeline to packets whose
	// destination lies inside this prefix: symbolic forwarding injects
	// only scope's headers and OwnedHeaders intersects with it. Every
	// per-prefix task runs scoped to its own prefix (RunScoped), so a
	// scoped pipeline answers for its prefix alone and has no siblings.
	Scope *route.Prefix
}

// MaxRiskGroups is the number of shared-risk-group variables reserved
// in pipelines created by Run.
const MaxRiskGroups = 32

// Run executes SRC and SPF over the network and returns a pipeline ready
// for analysis. The symbolic space reserves node variables for every
// router (node-failure analyses) plus MaxRiskGroups shared-risk
// variables.
func Run(net *config.Network, opts src.Options) (*Pipeline, error) {
	return runPipeline(net, newRunSpace(net, opts), opts, nil)
}

// newRunSpace allocates the symbolic space Run (and RunScoped) builds
// pipelines over, honoring the node limit and interrupt hook of opts,
// with the link variables in the order computed for net's topology.
func newRunSpace(net *config.Network, opts src.Options) *symbol.Space {
	return symbol.NewSpace(net.Topology.NumLinks(),
		bdd.Config{NodeLimit: opts.BDDNodeLimit, Telemetry: opts.Telemetry,
			Interrupt: opts.Interrupt},
		net.Topology.NumRouters()+MaxRiskGroups,
		order.Compute(net.Topology).Perm)
}

// RunWithSpace is Run with a caller-provided symbolic space.
func RunWithSpace(net *config.Network, sp *symbol.Space, opts src.Options) (*Pipeline, error) {
	return runPipeline(net, sp, opts, nil)
}

// RunScoped is Run restricted to packets destined inside scope: SRC
// still computes routes for opts.Prefixes, but symbolic forwarding
// injects only scope's header space, bounding the size of the PFEC
// predicates. Every per-prefix task is one such run, scoped to its
// prefix.
func RunScoped(net *config.Network, opts src.Options, scope route.Prefix) (*Pipeline, error) {
	return runPipeline(net, newRunSpace(net, opts), opts, &scope)
}

func runPipeline(net *config.Network, sp *symbol.Space, opts src.Options, scope *route.Prefix) (*Pipeline, error) {
	p := &Pipeline{Net: net, Sp: sp, Tel: opts.Telemetry, Scope: scope}
	p.prefixes, p.origins = net.PrefixOrigins()

	// Flight recorder: one event per stage boundary, attributed to the
	// pipeline's prefix scope, carrying BDD node/cache deltas. All
	// snapshot work is guarded by Recording() so a disabled recorder
	// costs a nil check.
	recording := p.Tel.Recording()
	var recPfx string
	var st0 bdd.Stats
	if recording {
		recPfx = scopeLabel(opts, scope)
		st0 = sp.M.Statistics()
	}

	start := time.Now()
	p.Eng = src.NewWithSpace(net, sp, opts)
	if err := p.Eng.Run(); err != nil {
		return nil, err
	}
	p.SRCTime = time.Since(start)
	if recording {
		st1 := sp.M.Statistics()
		p.Tel.Record(start, obs.TraceEvent{
			Stage: "src", Prefix: recPfx, Wall: p.SRCTime.Nanoseconds(),
			Count: int64(p.Eng.Statistics().Activations),
			Nodes: int64(st1.LiveNodes - st0.LiveNodes),
			Cache: cacheLookupDelta(st0, st1), Outcome: "ok",
		})
		st0 = st1
	}

	// Stage boundary: a run canceled while SRC was finishing must not
	// start forwarding. The same hook is polled inside BDD operations,
	// but the boundary check makes the abort deterministic.
	if opts.Interrupt != nil {
		if ierr := opts.Interrupt(); ierr != nil {
			return nil, resil.Stage("spf", ierr)
		}
	}

	start = time.Now()
	fw, err := spf.NewForwarder(p.Eng)
	if err != nil {
		return nil, err
	}
	var scopeHdr bdd.Node
	if scope != nil {
		scopeHdr = sp.Prefix(*scope) // cached and referenced by the space
	}
	n := net.Topology.NumRouters()
	p.pfecs = make([][]*spf.PFEC, n)
	total := 0
	for r := 0; r < n; r++ {
		if opts.Interrupt != nil {
			if ierr := opts.Interrupt(); ierr != nil {
				return nil, resil.Stage("spf", ierr)
			}
		}
		var pf []*spf.PFEC
		var err error
		if scope != nil {
			pf, err = fw.ForwardHeaders(topology.RouterID(r), scopeHdr)
		} else {
			pf, err = fw.Forward(topology.RouterID(r))
		}
		if err != nil {
			return nil, err
		}
		p.pfecs[r] = pf
		total += len(pf)
		sp.M.MaybeGC(0)
		if p.Tel.Active() {
			p.emitSPFProgress(r+1, n, total, r+1 == n)
		}
	}
	p.SPFTime = time.Since(start)
	if p.Tel != nil {
		sp.M.SampleTelemetry()
	}
	if recording {
		st1 := sp.M.Statistics()
		p.Tel.Record(start, obs.TraceEvent{
			Stage: "spf", Prefix: recPfx, Wall: p.SPFTime.Nanoseconds(),
			Count: int64(total),
			Nodes: int64(st1.LiveNodes - st0.LiveNodes),
			Cache: cacheLookupDelta(st0, st1), Outcome: "ok",
		})
	}
	// The pipeline keeps only its PFECs, as a decoded one does, so that
	// queries find the same nodes live whether the pipeline was built
	// here, by a worker or read from a store. A scoped pipeline's
	// manager is its own and is collected now.
	fw.Release()
	p.Eng.Release()
	if scope != nil {
		sp.M.GC()
	}
	return p, nil
}

// scopeLabel is the prefix attribution of a pipeline's flight-recorder
// events: the explicit scope, or the single requested prefix of a
// scoped per-prefix task ("" for multi-prefix pipelines).
func scopeLabel(opts src.Options, scope *route.Prefix) string {
	if scope != nil {
		return scope.String()
	}
	if len(opts.Prefixes) == 1 {
		return opts.Prefixes[0].String()
	}
	return ""
}

// cacheLookupDelta is the op-cache lookup count (hits+misses) accrued
// between two manager snapshots.
func cacheLookupDelta(a, b bdd.Stats) int64 {
	return int64((b.CacheHits + b.CacheMiss) - (a.CacheHits + a.CacheMiss))
}

// emitSPFProgress publishes one per-router SPF progress line, e.g.
// "spf: 412/1280 routers, 18.2k PFECs, bdd 1.4M nodes (peak 2.1M),
// cache hit 93%". Callers guard with Tel.Active().
func (p *Pipeline) emitSPFProgress(done, totalRouters, pfecs int, final bool) {
	st := p.Sp.M.Statistics()
	p.Sp.M.SampleTelemetry()
	p.Tel.Emit(obs.Event{
		Stage: "spf",
		Done:  int64(done),
		Total: int64(totalRouters),
		Unit:  "routers",
		Detail: fmt.Sprintf("%s PFECs, bdd %s nodes (peak %s), cache hit %s",
			obs.HumanCount(int64(pfecs)),
			obs.HumanCount(int64(st.LiveNodes)), obs.HumanCount(int64(st.PeakNodes)),
			obs.HumanPct(float64(st.CacheHits), float64(st.CacheHits+st.CacheMiss))),
		Final: final,
	})
}

// PFECs returns the equivalence classes discovered from source router s.
func (p *Pipeline) PFECs(s topology.RouterID) []*spf.PFEC { return p.pfecs[s] }

// NumPFECs returns the total number of PFECs across all sources.
func (p *Pipeline) NumPFECs() int {
	n := 0
	for _, l := range p.pfecs {
		n += len(l)
	}
	return n
}

// ReachBDD returns the property BDD of Reach(s, dst, hdr): the
// disjunction of all PFECs from s delivered at any router of dst,
// conjoined with the header set hdr (Algorithm 2, GetPropertyBDDReach).
func (p *Pipeline) ReachBDD(s topology.RouterID, dst map[topology.RouterID]bool, hdr bdd.Node) bdd.Node {
	return p.delivered(s, dst, -1, hdr)
}

// delivered is ReachBDD kept to the PFECs whose path traverses via,
// when via is a router (Waypoint(s, dst, via, hdr)); a negative via
// keeps every delivered PFEC.
func (p *Pipeline) delivered(s topology.RouterID, dst map[topology.RouterID]bool, via topology.RouterID, hdr bdd.Node) bdd.Node {
	m := p.Sp.M
	var preds []bdd.Node
	for _, pf := range p.pfecs[s] {
		if pf.Delivered && dst[pf.Dst()] && (via < 0 || pf.Traverses(via)) {
			preds = append(preds, pf.Pred)
		}
	}
	// Balanced disjunction keeps intermediate BDDs small compared to a
	// left-to-right fold over hundreds of PFEC predicates.
	return m.And(m.OrN(preds...), hdr)
}

// OriginSet returns the routers originating pfx as a set. The set is
// the pipeline's own index, shared by every query: callers must not
// modify it.
func (p *Pipeline) OriginSet(pfx route.Prefix) map[topology.RouterID]bool {
	return p.origins[pfx]
}

// OwnedHeaders returns the header BDD of the addresses for which pfx is
// the longest originated prefix, intersected with the pipeline's scope
// when it has one (scoped pipelines only know the forwarding behaviour
// of their slice of the header space).
func (p *Pipeline) OwnedHeaders(pfx route.Prefix) bdd.Node {
	m := p.Sp.M
	hdr := p.Sp.Prefix(pfx)
	for _, other := range p.prefixes {
		if other != pfx && pfx.Covers(other) {
			hdr = m.Diff(hdr, p.Sp.Prefix(other))
		}
	}
	if p.Scope != nil {
		hdr = m.And(hdr, p.Sp.Prefix(*p.Scope))
	}
	return hdr
}

// Tuple is one (packet BDD, topology BDD) pair extracted from a property
// BDD (§6.2 step 2).
type Tuple struct {
	Pkt  bdd.Node // over header variables
	Topo bdd.Node // over link variables
}

// Extract decouples a property BDD into tuples such that the disjunction
// of Pkt∧Topo equals the property BDD (Algorithm 2's Extract). With the
// header-above-links variable order this is one split at the first link
// level: one tuple per distinct topology BDD.
func (p *Pipeline) Extract(property bdd.Node) []Tuple {
	splits := p.Sp.M.SplitBySub(property, symbol.HeaderBits)
	out := make([]Tuple, len(splits))
	for i, s := range splits {
		out[i] = Tuple{Pkt: s.Upper, Topo: s.Sub}
	}
	// By topology handle, so the per-tuple BDD work of every query runs
	// in the same order on every run.
	slices.SortFunc(out, func(a, b Tuple) int { return cmp.Compare(a.Topo, b.Topo) })
	return out
}

// ToleranceResult reports the link failure tolerance of a property for
// one packet set.
type ToleranceResult struct {
	Pkt bdd.Node
	// K is the link failure tolerance (Definition 2): the property
	// holds whenever at most K links fail. -1 means it fails even with
	// all links up; InfiniteTolerance means no failure combination
	// explored violates it.
	K int
}

// Tolerance computes the link failure tolerance of the property BDD for
// every packet set, following Theorem 1: assign weight 1 to dashed
// edges; the tolerance is the shortest-path length to the False terminal
// minus one. The universe is the header set the property was asked
// about; packets in the universe that appear in no PFEC have tolerance
// -1.
func (p *Pipeline) Tolerance(property, universe bdd.Node) []ToleranceResult {
	m := p.Sp.M
	var out []ToleranceResult
	tuples := p.Extract(property)
	for _, tup := range tuples {
		out = append(out, ToleranceResult{Pkt: tup.Pkt, K: pathTolerance(m.ShortestPathToFalse(tup.Topo))})
	}
	// The union of the extracted packet sets is exactly the header
	// projection of the property (each tuple's topology BDD is
	// satisfiable), so one quantification replaces an Or per tuple, and
	// none is needed for zero tuples or one.
	covered := bdd.False
	switch {
	case len(tuples) == 1:
		covered = tuples[0].Pkt
	case len(tuples) > 1:
		covered = p.Sp.HeaderOnly(property)
	}
	if missing := m.Diff(universe, covered); missing != bdd.False {
		out = append(out, ToleranceResult{Pkt: missing, K: -1})
	}
	return out
}

// MinTolerance computes the single failure-tolerance number of a
// property over a whole header universe: the minimum over its packet
// sets.
func (p *Pipeline) MinTolerance(property, universe bdd.Node) int {
	min := InfiniteTolerance
	for _, r := range p.Tolerance(property, universe) {
		if r.K < min {
			min = r.K
		}
	}
	return min
}

// pathTolerance turns the length of a shortest path to a terminal,
// counting dashed (link-down) edges, into a failure tolerance: one
// failure fewer than the path needs, or InfiniteTolerance when no path
// reaches the terminal.
func pathTolerance(sp int) int {
	if sp == math.MaxInt32 {
		return InfiniteTolerance
	}
	return sp - 1
}

// Weights is a failure model in the form Theorem 2 evaluates it: up[v]
// is the probability that variable v is true (its link, node or risk
// group is up). A model in which a link also goes down with something
// else (§6.4: an endpoint node, a shared-risk group) first substitutes
// the link's variable in each topology BDD.
type Weights struct {
	up []float64
	// subst lists, per substituted link, the link's variable followed by
	// the variables whose failure also takes the link down; the link's
	// variable is replaced by their conjunction.
	subst [][]int
}

// LinkWeights models independent link failures.
func (p *Pipeline) LinkWeights(model prob.LinkModel) Weights {
	return Weights{up: p.Sp.LinkProbabilities(model.PDown)}
}

// NodeWeights layers independent node failures over link failures. A
// node failure takes down all incident links, so each link variable l
// is substituted with l ∧ nA ∧ nB, where nA/nB are the endpoint node
// variables (reserved in the symbolic space). This is exact for
// independent node failures (the paper uses a Bayesian-network query
// for the same quantity).
func (p *Pipeline) NodeWeights(model prob.NodeModel) Weights {
	w := p.LinkWeights(prob.LinkModel{PDown: model.PLinkDown})
	t := p.Net.Topology
	for r := 0; r < t.NumRouters(); r++ {
		w.up[p.Sp.NodeVarIndex(topology.RouterID(r))] = 1 - model.PNodeDown
	}
	for _, l := range t.Links() {
		w.subst = append(w.subst, []int{p.Sp.LinkVarIndex(l.ID),
			p.Sp.NodeVarIndex(l.A), p.Sp.NodeVarIndex(l.B)})
	}
	return w
}

// RiskGroup is a set of links that fail together (a shared conduit,
// line card, or other common-mode risk, §6.4) with probability PDown,
// independently of individual link failures.
type RiskGroup struct {
	Links []topology.LinkID
	PDown float64
}

// RiskWeights layers shared-risk groups over independent link failures:
// each link behaves as down when it fails itself OR any group
// containing it fires. The pipeline must have been created by Run
// (which reserves up to MaxRiskGroups group variables).
func (p *Pipeline) RiskWeights(model prob.LinkModel, groups []RiskGroup) Weights {
	if len(groups) > MaxRiskGroups {
		panic(fmt.Sprintf("analysis: %d risk groups exceed the reserved %d", len(groups), MaxRiskGroups))
	}
	w := p.LinkWeights(model)
	t := p.Net.Topology
	// groupsOf[l] lists the group variables covering link l.
	groupsOf := make([][]int, t.NumLinks())
	for i, g := range groups {
		v := symbol.HeaderBits + t.NumLinks() + t.NumRouters() + i
		w.up[v] = 1 - g.PDown
		for _, l := range g.Links {
			groupsOf[l] = append(groupsOf[l], v)
		}
	}
	for l, gvars := range groupsOf {
		if len(gvars) > 0 {
			w.subst = append(w.subst, append([]int{p.Sp.LinkVarIndex(topology.LinkID(l))}, gvars...))
		}
	}
	return w
}

// ProbabilityResult reports the probability that a property holds for a
// packet set.
type ProbabilityResult struct {
	Pkt bdd.Node
	P   float64
}

// ProbabilityUnder computes the probability that the property holds for
// each packet set under the failure model w (Theorem 2). When the
// pipeline was run with route pruning at budget k, the result
// under-estimates the true probability by at most the probability of
// more than k failures.
func (p *Pipeline) ProbabilityUnder(property bdd.Node, w Weights) []ProbabilityResult {
	m := p.Sp.M
	var out []ProbabilityResult
	for _, tup := range p.Extract(property) {
		topo := tup.Topo
		for _, vars := range w.subst {
			up := make([]bdd.Node, len(vars))
			for i, v := range vars {
				up[i] = m.Var(v)
			}
			topo = m.Compose(topo, vars[0], m.AndN(up...))
		}
		out = append(out, ProbabilityResult{Pkt: tup.Pkt, P: m.Probability(topo, w.up)})
	}
	return out
}

// Probability is ProbabilityUnder independent link failures.
func (p *Pipeline) Probability(property bdd.Node, model prob.LinkModel) []ProbabilityResult {
	return p.ProbabilityUnder(property, p.LinkWeights(model))
}

// AllPairsReachable reports, for every (source, prefix) pair, whether
// the prefix stays reachable under EVERY failure combination of at most
// k links — the all-pairs workload of Figure 5. The pipeline must have
// been run with a route-pruning budget of at least k (or none).
func (p *Pipeline) AllPairsReachable(k int) map[PairKey]bool {
	budget := p.Sp.AtMostKLinkFailures(k)
	out := make(map[PairKey]bool)
	for _, pfx := range p.prefixes {
		q := p.Query(0, pfx)
		for s := range p.Net.Topology.NumRouters() {
			if q.Src = topology.RouterID(s); q.Dst[q.Src] {
				continue
			}
			out[PairKey{Src: q.Src, Prefix: pfx}] = !q.Violated(q.Reach(), budget)
		}
	}
	return out
}

// Release frees the BDD references held by the pipeline's PFECs, the
// only ones a pipeline holds.
func (p *Pipeline) Release() {
	for _, l := range p.pfecs {
		spf.ReleasePFECs(p.Sp, l)
	}
}
