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
	Eng *src.Engine
	Fw  *spf.Forwarder

	// PFECs, grouped by source router.
	pfecs [][]*spf.PFEC

	// prefixes is Net.AllPrefixes(), taken once at construction (the
	// network is read-only to a run) so property queries do not re-walk
	// every router.
	prefixes []route.Prefix

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
	p := &Pipeline{Net: net, Sp: sp, Tel: opts.Telemetry, Scope: scope, prefixes: net.AllPrefixes()}

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
	p.Fw = fw
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

// cacheLookupDelta is the op-cache lookup count (hits+misses, both
// caches) accrued between two manager snapshots.
func cacheLookupDelta(a, b bdd.Stats) int64 {
	return int64((b.CacheHits + b.CacheMiss + b.AxCacheHits + b.AxCacheMiss) -
		(a.CacheHits + a.CacheMiss + a.AxCacheHits + a.AxCacheMiss))
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
	m := p.Sp.M
	var preds []bdd.Node
	for _, pf := range p.pfecs[s] {
		if pf.Delivered && dst[pf.Dst()] {
			preds = append(preds, pf.Pred)
		}
	}
	// Balanced disjunction keeps intermediate BDDs small compared to a
	// left-to-right fold over hundreds of PFEC predicates.
	return m.And(m.OrN(preds...), hdr)
}

// WaypointBDD returns the property BDD of Waypoint(s, dst, w, hdr):
// packets that reach dst AND traverse w on the way.
func (p *Pipeline) WaypointBDD(s topology.RouterID, dst map[topology.RouterID]bool, w topology.RouterID, hdr bdd.Node) bdd.Node {
	m := p.Sp.M
	var preds []bdd.Node
	for _, pf := range p.pfecs[s] {
		if pf.Delivered && dst[pf.Dst()] && pf.Traverses(w) {
			preds = append(preds, pf.Pred)
		}
	}
	return m.And(m.OrN(preds...), hdr)
}

// ReachPrefixBDD is ReachBDD for a destination prefix: the destinations
// are the routers originating it, and the header set is the prefix
// itself minus any more-specific prefix originated elsewhere (those
// addresses forward along the longer prefix).
func (p *Pipeline) ReachPrefixBDD(s topology.RouterID, pfx route.Prefix) bdd.Node {
	return p.ReachBDD(s, p.OriginSet(pfx), p.OwnedHeaders(pfx))
}

// OriginSet returns the routers originating pfx as a set.
func (p *Pipeline) OriginSet(pfx route.Prefix) map[topology.RouterID]bool {
	dst := make(map[topology.RouterID]bool)
	for _, r := range p.Net.OriginsOf(pfx) {
		dst[r] = true
	}
	return dst
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
// header-above-links variable order this is a single traversal.
func (p *Pipeline) Extract(property bdd.Node) []Tuple {
	m := p.Sp.M
	groups := m.GroupBySub(m.SplitAtLevel(property, symbol.HeaderBits))
	out := make([]Tuple, 0, len(groups))
	for topo, pkt := range groups {
		out = append(out, Tuple{Pkt: pkt, Topo: topo})
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
	for _, tup := range p.Extract(property) {
		sp := m.ShortestPathToFalse(tup.Topo)
		k := InfiniteTolerance
		if sp != math.MaxInt32 {
			k = sp - 1
		}
		out = append(out, ToleranceResult{Pkt: tup.Pkt, K: k})
	}
	// The union of the extracted packet sets is exactly the header
	// projection of the property (each tuple's topology BDD is
	// satisfiable), so one quantification replaces an Or per tuple.
	covered := p.Sp.HeaderOnly(property)
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

// IsolationTolerance computes the failure tolerance of
// Isolation(s, d, hdr): the maximum k such that no packet of hdr reaches
// d under any combination of at most k failures. The property BDD is
// the reach BDD; isolation is violated by the first failure combination
// that makes reachability true, so the tolerance is the shortest path to
// the True terminal minus one. Packets never delivered are isolated
// under every failure count and do not lower it.
func (p *Pipeline) IsolationTolerance(reachProperty bdd.Node) int {
	m := p.Sp.M
	min := InfiniteTolerance
	for _, tup := range p.Extract(reachProperty) {
		sp := m.ShortestPathToTrue(tup.Topo)
		k := InfiniteTolerance
		if sp != math.MaxInt32 {
			k = sp - 1
		}
		if k < min {
			min = k
		}
	}
	return min
}

// Probability computes the probability that the property holds for each
// packet set under independent link failures (Theorem 2). When the
// pipeline was run with route pruning at budget k, the result
// under-estimates the true probability by at most the binomial tail
// P(more than k failures).
func (p *Pipeline) Probability(property bdd.Node, model prob.LinkModel) []ProbabilityResult {
	m := p.Sp.M
	pv := p.Sp.LinkProbabilities(model.PDown)
	var out []ProbabilityResult
	for _, tup := range p.Extract(property) {
		out = append(out, ProbabilityResult{Pkt: tup.Pkt, P: m.Probability(tup.Topo, pv)})
	}
	return out
}

// ProbabilityResult reports the probability that a property holds for a
// packet set.
type ProbabilityResult struct {
	Pkt bdd.Node
	P   float64
}

// MinProbability returns the minimum property probability across packet
// sets (1 if the property BDD is empty of packets — vacuous).
func (p *Pipeline) MinProbability(property bdd.Node, model prob.LinkModel) float64 {
	min := 1.0
	for _, r := range p.Probability(property, model) {
		if r.P < min {
			min = r.P
		}
	}
	return min
}

// ProbabilityWithNodes computes property probabilities under combined
// node and link failures. Following §6.4, a node failure takes down all
// incident links: each link variable l is substituted with
// l ∧ nA ∧ nB, where nA/nB are the endpoint node variables (reserved in
// the symbolic space); the resulting BDD is evaluated under the joint
// independent distribution. This is exact for independent node failures
// (the paper uses a Bayesian-network query for the same quantity).
func (p *Pipeline) ProbabilityWithNodes(property bdd.Node, model prob.NodeModel) []ProbabilityResult {
	m := p.Sp.M
	t := p.Net.Topology
	pv := make([]float64, m.NumVars())
	for i := range pv {
		pv[i] = 1
	}
	for _, v := range p.Sp.LinkVars() {
		pv[v] = 1 - model.PLinkDown
	}
	for r := 0; r < t.NumRouters(); r++ {
		pv[p.Sp.NodeVarIndex(topology.RouterID(r))] = 1 - model.PNodeDown
	}
	var out []ProbabilityResult
	for _, tup := range p.Extract(property) {
		topo := tup.Topo
		for _, l := range t.Links() {
			v := p.Sp.LinkVarIndex(l.ID)
			up := m.AndN(m.Var(v),
				m.Var(p.Sp.NodeVarIndex(l.A)),
				m.Var(p.Sp.NodeVarIndex(l.B)))
			topo = m.Compose(topo, v, up)
		}
		out = append(out, ProbabilityResult{Pkt: tup.Pkt, P: m.Probability(topo, pv)})
	}
	return out
}

// RiskGroup is a set of links that fail together (a shared conduit,
// line card, or other common-mode risk, §6.4) with probability PDown,
// independently of individual link failures.
type RiskGroup struct {
	Links []topology.LinkID
	PDown float64
}

// ProbabilityWithRisks computes property probabilities under
// independent link failures plus shared-risk groups: each link behaves
// as down when it fails itself OR any group containing it fires. The
// pipeline must have been created by Run (which reserves up to
// MaxRiskGroups group variables).
func (p *Pipeline) ProbabilityWithRisks(property bdd.Node, model prob.LinkModel, groups []RiskGroup) []ProbabilityResult {
	if len(groups) > MaxRiskGroups {
		panic(fmt.Sprintf("analysis: %d risk groups exceed the reserved %d", len(groups), MaxRiskGroups))
	}
	m := p.Sp.M
	t := p.Net.Topology
	riskVar := func(i int) int {
		return symbol.HeaderBits + t.NumLinks() + t.NumRouters() + i
	}
	pv := make([]float64, m.NumVars())
	for i := range pv {
		pv[i] = 1
	}
	for _, v := range p.Sp.LinkVars() {
		pv[v] = 1 - model.PDown
	}
	for i, g := range groups {
		pv[riskVar(i)] = 1 - g.PDown
	}
	// groupsOf[l] lists the group variables covering link l.
	groupsOf := make(map[topology.LinkID][]int)
	for i, g := range groups {
		for _, l := range g.Links {
			groupsOf[l] = append(groupsOf[l], riskVar(i))
		}
	}
	var out []ProbabilityResult
	for _, tup := range p.Extract(property) {
		topo := tup.Topo
		for l, gvars := range groupsOf {
			v := p.Sp.LinkVarIndex(l)
			up := m.Var(v)
			for _, gv := range gvars {
				up = m.And(up, m.Var(gv))
			}
			topo = m.Compose(topo, v, up)
		}
		out = append(out, ProbabilityResult{Pkt: tup.Pkt, P: m.Probability(topo, pv)})
	}
	return out
}

// LoadBalancePaths counts the forwarding paths that simultaneously carry
// packets of hdr from s to dst under the all-links-up scenario
// (Loadbalance(s, d, p, n) holds when the count is at least n).
func (p *Pipeline) LoadBalancePaths(s topology.RouterID, dst map[topology.RouterID]bool, hdr bdd.Node) int {
	m := p.Sp.M
	allUp := p.Sp.AllLinksUp()
	cond := m.And(hdr, allUp)
	n := 0
	for _, pf := range p.pfecs[s] {
		if pf.Delivered && dst[pf.Dst()] && m.AndSat(pf.Pred, cond) {
			n++
		}
	}
	return n
}

// AllPairsReachable reports, for every (source, prefix) pair, whether
// the prefix stays reachable under EVERY failure combination of at most
// k links — the all-pairs workload of Figure 5. The pipeline must have
// been run with a route-pruning budget of at least k (or none).
func (p *Pipeline) AllPairsReachable(k int) map[PairKey]bool {
	m := p.Sp.M
	budget := p.Sp.AtMostKLinkFailures(k)
	out := make(map[PairKey]bool)
	t := p.Net.Topology
	for _, pfx := range p.Net.AllPrefixes() {
		origins := p.OriginSet(pfx)
		hdr := p.OwnedHeaders(pfx)
		for s := 0; s < t.NumRouters(); s++ {
			srcID := topology.RouterID(s)
			if origins[srcID] {
				continue
			}
			prop := p.ReachBDD(srcID, origins, hdr)
			holds := !m.DiffSat(m.And(hdr, budget), prop)
			out[PairKey{Src: srcID, Prefix: pfx}] = holds
		}
	}
	return out
}

// PairReachable is the single-pair variant of AllPairsReachable.
func (p *Pipeline) PairReachable(src topology.RouterID, pfx route.Prefix, k int) bool {
	m := p.Sp.M
	budget := p.Sp.AtMostKLinkFailures(k)
	hdr := p.OwnedHeaders(pfx)
	prop := p.ReachBDD(src, p.OriginSet(pfx), hdr)
	return !m.DiffSat(m.And(hdr, budget), prop)
}

// Release frees the BDD references held by the pipeline's PFECs and
// forwarder. Decoded pipelines (NewDecodedPipeline) have no forwarder;
// their references live entirely in the PFEC predicates.
func (p *Pipeline) Release() {
	for _, l := range p.pfecs {
		spf.ReleasePFECs(p.Sp, l)
	}
	if p.Fw != nil {
		p.Fw.Release()
	}
}
