// Package src implements Symbolic Route Computation (§4 of the paper):
// executing the network control plane with symbolic link states to
// produce, for every router, a symbolic RIB — the set of all routes that
// can materialize under some combination of link failures, each guarded
// by a topology condition (a BDD over link variables).
//
// The engine follows Algorithm 1 of the paper: each imported route
// carries a tcIn (condition under which the route is received); ranking
// a prefix's route list derives tcRib (condition under which the route is
// installed) by negating the conditions of all higher-priority routes;
// only routes whose tcRib changed are re-advertised, avoiding the
// withdraw/re-advertise cascades of Hoyan.
//
// Two optimizations of §7 are implemented here: route pruning
// (conjoining every imported condition with the filtering BDD lf^k) and
// prefix pruning (restricting the computation to a subset of prefixes,
// driven by the stratified analysis in the analysis package).
package src

import (
	"fmt"
	"slices"
	"sort"

	"sre/internal/bdd"
	"sre/internal/config"
	"sre/internal/obs"
	"sre/internal/order"
	"sre/internal/resil"
	"sre/internal/route"
	"sre/internal/symbol"
	"sre/internal/topology"
)

// SymRoute is a symbolic route: a concrete route plus its topology
// conditions (§4.1). TcIn is the condition under which the route is
// imported; TcRib the condition under which it is the (an) installed
// best route.
type SymRoute struct {
	Route *route.Route
	TcIn  bdd.Node
	TcRib bdd.Node
}

// RIB is the symbolic RIB of one router: for each prefix, the list of
// symbolic routes sorted by decreasing preference.
type RIB struct {
	prefixes map[route.Prefix][]*SymRoute
	order    []route.Prefix // keys of prefixes, first-seen order
}

// set stores the route list of prefix p.
func (r *RIB) set(p route.Prefix, list []*SymRoute) {
	if _, ok := r.prefixes[p]; !ok {
		r.order = append(r.order, p)
	}
	r.prefixes[p] = list
}

// Routes returns the symbolic routes for prefix p, best first. The list
// may contain entries whose TcRib is False: routes that are imported
// under some failure scenarios but dominated in all of them.
func (r *RIB) Routes(p route.Prefix) []*SymRoute { return r.prefixes[p] }

// LiveRoutes returns the symbolic routes for prefix p that are installed
// under at least one failure scenario (TcRib ≠ False), best first.
func (r *RIB) LiveRoutes(p route.Prefix) []*SymRoute {
	var out []*SymRoute
	for _, sr := range r.prefixes[p] {
		if sr.TcRib != bdd.False {
			out = append(out, sr)
		}
	}
	return out
}

// Prefixes returns every prefix that ever held a route, in the order
// the router first learned them — a defined order, so that callers
// building BDDs per prefix do the same work on every run.
func (r *RIB) Prefixes() []route.Prefix { return slices.Clone(r.order) }

// NumRoutes returns the number of symbolic routes in the RIB.
func (r *RIB) NumRoutes() int {
	n := 0
	for _, l := range r.prefixes {
		n += len(l)
	}
	return n
}

// Stats counts work done by the engine; Table 2 of the paper reports
// route counts under different optimizations.
type Stats struct {
	RoutesImported int // advertisements processed (the paper's "No. Routes")
	RoutesPruned   int // imports dropped by route pruning
	RIBRoutes      int // symbolic routes resident in all RIBs at fixpoint
	Activations    int // router activations until fixpoint
	PeakBDDNodes   int
}

// Engine performs symbolic route computation over a configured network.
type Engine struct {
	Net  *config.Network
	Sp   *symbol.Space
	Opts Options

	// Bounds NewWithSpace derives from the topology: route propagation
	// (no best route follows a non-simple path) and total router
	// activations (the divergence guard).
	maxHops        int
	maxActivations int

	ribs   []*RIB
	inbox  [][]message
	queued []bool
	queue  []topology.RouterID

	filter bdd.Node // lf^k, or True when pruning is off
	// adv is what each session last sent. It exists only inside Run,
	// which allocates it before the fixpoint loop and drops it after:
	// advertise — the one function that touches it — must not be reached
	// from outside Run.
	adv map[advKey]advSet
	// advConds are the conditions of adv's entries when Run dropped it,
	// still referenced until Release.
	advConds  []bdd.Node
	prefixSet map[route.Prefix]bool // nil when unrestricted
	stats     Stats

	// loopbackOSPF holds the loopbacks of the iBGP mesh and underlay the
	// engine that computed the mesh's sessions (see ibgp.go).
	loopbackOSPF map[topology.RouterID]route.Prefix
	underlay     *Engine
	// sessions lists, per router, what it advertises over (see
	// buildSessions); it holds for the whole run.
	sessions [][]session

	// Telemetry handles (nil-safe no-ops when Opts.Telemetry is nil).
	tel         *obs.Telemetry
	telActs     *obs.Counter
	telImported *obs.Counter
	telPruned   *obs.Counter
}

type message struct {
	from topology.RouterID
	link topology.LinkID
	rt   *route.Route // as transformed by the sender's export processing
	tc   bdd.Node     // already conjoined with the session condition
}

// session is one adjacency a router advertises over: a link, or a
// virtual iBGP session (link −1) that is up under cond, the underlay's
// reachability between the peers. bgp and ospf say which protocols run
// on it.
type session struct {
	peer      topology.RouterID
	link      topology.LinkID
	cond      bdd.Node // virtual sessions only
	bgp, ospf bool
}

type advKey struct {
	link   topology.LinkID // -1 for virtual iBGP sessions
	from   topology.RouterID
	to     topology.RouterID
	prefix route.Prefix
}

// advSet is the advertisement state of one (session, prefix): the
// condition under which each logical route is advertised, in RIB order.
type advSet = route.Set[bdd.Node]

// New creates an engine over net, allocating a fresh symbolic space.
func New(net *config.Network, opts Options) *Engine {
	sp := symbol.NewSpace(net.Topology.NumLinks(), bdd.Config{}, 0, order.Compute(net.Topology).Perm)
	return NewWithSpace(net, sp, opts)
}

// LinkOrder returns the link-variable order of spaces created on the
// engine's behalf: order.Compute over net's topology. The order is not
// an option, so opts is ignored; the signature stays for bench/layers.go.
func LinkOrder(net *config.Network, opts Options) order.Order {
	return order.Compute(net.Topology)
}

// NewWithSpace creates an engine sharing an existing symbolic space
// (analysis pipelines reuse one space across SRC, SPF, and analysis so
// all BDDs are compatible). Its bounds come from the topology: routes
// travel at most one hop per router, and the run gives up as divergent
// after 10000 × (routers+1) activations.
func NewWithSpace(net *config.Network, sp *symbol.Space, opts Options) *Engine {
	n := net.Topology.NumRouters()
	e := &Engine{
		Net:            net,
		Sp:             sp,
		Opts:           opts,
		maxHops:        n,
		maxActivations: 10000 * (n + 1),
	}
	e.ribs = make([]*RIB, n)
	for i := range e.ribs {
		e.ribs[i] = &RIB{prefixes: make(map[route.Prefix][]*SymRoute)}
	}
	e.inbox = make([][]message, n)
	e.queued = make([]bool, n)
	if opts.Prefixes != nil {
		e.prefixSet = make(map[route.Prefix]bool, len(opts.Prefixes))
		for _, p := range opts.Prefixes {
			e.prefixSet[p] = true
		}
	}
	e.tel = opts.Telemetry
	e.telActs = e.tel.Counter("src.activations")
	e.telImported = e.tel.Counter("src.routes_imported")
	e.telPruned = e.tel.Counter("src.routes_pruned")
	return e
}

// RIB returns the symbolic RIB computed for router r (valid after Run).
func (e *Engine) RIB(r topology.RouterID) *RIB { return e.ribs[r] }

// TotalLiveRoutes returns the number of symbolic routes across all RIBs
// that are installed under at least one failure scenario.
func (e *Engine) TotalLiveRoutes() int {
	n := 0
	for _, rib := range e.ribs {
		for p := range rib.prefixes {
			n += len(rib.LiveRoutes(p))
		}
	}
	return n
}

// Statistics returns work counters (valid after Run).
func (e *Engine) Statistics() Stats {
	s := e.stats
	s.RIBRoutes = 0
	for _, rib := range e.ribs {
		s.RIBRoutes += rib.NumRoutes()
	}
	s.PeakBDDNodes = e.Sp.M.Statistics().PeakNodes
	return s
}

// wantPrefix reports whether prefix p participates in this computation.
func (e *Engine) wantPrefix(p route.Prefix) bool {
	return e.prefixSet == nil || e.prefixSet[p]
}

// Run executes the control plane to its fixed point, filling the
// symbolic RIBs. It returns bdd.ErrNodeLimit if the BDD table overflows
// (the paper's "BDD limit" outcome) or an error if the computation does
// not converge within the iteration bound.
func (e *Engine) Run() error {
	e.adv = make(map[advKey]advSet)
	err := e.fixpoint()
	// Only the fixpoint loop reads the advertisement state (see
	// Engine.adv), and with a copied route per entry it is about a third
	// of the engine's heap: let it go rather than have every later
	// collection mark it. Its conditions stay referenced until Release,
	// which comes after forwarding: dropping them here would change what
	// forwarding's collections free, and so its work.
	n := 0
	for _, set := range e.adv {
		n += len(set.Entries())
	}
	e.advConds = make([]bdd.Node, 0, n)
	for _, set := range e.adv {
		for _, ent := range set.Entries() {
			e.advConds = append(e.advConds, ent.Value)
		}
	}
	e.adv = nil
	if e.tel.Active() {
		e.emitProgress(true)
	}
	return err
}

// Release drops the BDD references the engine holds: the conditions of
// its RIB entries, the pruning filter, the last advertisements' and the
// virtual sessions' conditions, and the iBGP underlay's. Statistics
// stays readable; the RIBs must not be read afterwards.
func (e *Engine) Release() {
	if e.underlay != nil {
		e.underlay.Release()
	}
	m := e.Sp.M
	for _, rib := range e.ribs {
		for _, list := range rib.prefixes {
			for _, sr := range list {
				m.Deref(sr.TcIn)
				m.Deref(sr.TcRib)
			}
		}
	}
	m.Deref(e.filter)
	for _, c := range e.advConds {
		m.Deref(c)
	}
	for _, ss := range e.sessions {
		for _, s := range ss {
			m.Deref(s.cond) // False, and no reference, on a link
		}
	}
}

// emitProgress publishes a src progress event. Callers guard with
// tel.Active() so the detail string is only built when someone listens.
func (e *Engine) emitProgress(final bool) {
	st := e.Sp.M.Statistics()
	e.Sp.M.SampleTelemetry()
	e.tel.Emit(obs.Event{
		Stage: "src",
		Done:  int64(e.stats.Activations),
		Unit:  "activations",
		Detail: fmt.Sprintf("%s routes, bdd %s nodes (peak %s), cache hit %s",
			obs.HumanCount(int64(e.stats.RoutesImported)),
			obs.HumanCount(int64(st.LiveNodes)), obs.HumanCount(int64(st.PeakNodes)),
			obs.HumanPct(float64(st.CacheHits), float64(st.CacheHits+st.CacheMiss))),
		Final: final,
	})
}

// oscillatingRouters names the routers still being activated when the
// iteration bound fired: the router just popped plus the queued ones,
// capped to keep the error message readable.
func (e *Engine) oscillatingRouters(r topology.RouterID) []string {
	const max = 8
	names := []string{e.Net.Topology.Name(r)}
	for _, q := range e.queue {
		if len(names) >= max {
			names = append(names, fmt.Sprintf("... %d more", len(e.queue)-max+1))
			break
		}
		names = append(names, e.Net.Topology.Name(q))
	}
	return names
}

// fixpoint builds the failure filter and runs the activation queue to
// its fixed point. A node-table overflow or an interruption raised
// inside a BDD operation unwinds to here and returns as the error.
func (e *Engine) fixpoint() (err error) {
	defer resil.Catch("src", &err)
	m := e.Sp.M
	// Building the lf^k filter allocates nodes like everything below:
	// under a small limit it is the first thing to overflow.
	e.filter = bdd.True
	if e.Opts.PruneK >= 0 {
		e.filter = m.Ref(e.Sp.AtMostKLinkFailures(e.Opts.PruneK))
	}
	var mesh map[topology.RouterID]bool
	var virtual map[topology.RouterID][]session
	if e.Opts.IBGPFullMesh {
		var serr error
		if mesh, virtual, serr = e.setupVirtualSessions(); serr != nil {
			return resil.Stage("src", serr)
		}
	}
	e.sessions = e.buildSessions(mesh, virtual)
	e.originate()
	for len(e.queue) > 0 {
		r := e.queue[0]
		e.queue = e.queue[1:]
		e.queued[r] = false
		e.stats.Activations++
		e.telActs.Inc()
		if e.stats.Activations > e.maxActivations {
			return &resil.StageError{Stage: "src", Routers: e.oscillatingRouters(r),
				Err: fmt.Errorf("%w after %d activations", resil.ErrNoConvergence, e.maxActivations)}
		}
		if e.Opts.Interrupt != nil {
			if ierr := e.Opts.Interrupt(); ierr != nil {
				return resil.Stage("src", ierr)
			}
		}
		e.updateRIB(r)
		if e.stats.Activations%128 == 0 && e.tel.Active() {
			e.emitProgress(false)
		}
		m.MaybeGC(0)
	}
	return nil
}

// originate seeds the RIBs with locally declared routes (§4.2
// "Importing Routes": initially each router imports all routes declared
// in the configurations, with tc = True).
func (e *Engine) originate() {
	t := e.Net.Topology
	for i := 0; i < t.NumRouters(); i++ {
		id := topology.RouterID(i)
		rc := e.Net.Router(id)
		for _, p := range rc.Originated() {
			if !e.wantPrefix(p) {
				continue
			}
			r := route.NewLocal(p, route.Connected, int(id))
			e.insertLocal(id, r, bdd.True)
		}
		if pfx, ok := e.loopbackOSPF[id]; ok {
			// Loopbacks back the iBGP mesh; they bypass any prefix
			// restriction (sessions must exist regardless).
			e.insertLocal(id, route.NewLocal(pfx, route.Connected, int(id)), bdd.True)
		}
		for _, s := range rc.Static {
			if !e.wantPrefix(s.Prefix) {
				continue
			}
			nbr := t.MustRouter(s.NextHop)
			lid, ok := t.LinkBetween(id, nbr)
			if !ok {
				continue // validated earlier; defensive
			}
			r := route.NewLocal(s.Prefix, route.Static, int(id))
			r.NextHop = int(nbr)
			r.EgressLink = int(lid)
			tc := e.Sp.M.And(e.Sp.LinkVar(lid), e.filter)
			if tc != bdd.False {
				e.insertLocal(id, r, tc)
			}
		}
		e.markChanged(id)
	}
}

// insertLocal installs an originated route with the given condition.
func (e *Engine) insertLocal(r topology.RouterID, rt *route.Route, tc bdd.Node) {
	m := e.Sp.M
	sr := &SymRoute{Route: rt, TcIn: m.Ref(tc), TcRib: bdd.False}
	rib := e.ribs[r]
	rib.set(rt.Prefix, insertSorted(rib.prefixes[rt.Prefix], sr))
	e.recomputeTcRib(r, rt.Prefix)
}

// markChanged schedules router r for export of all its prefixes by
// queueing a self-activation with no messages: updateRIB exports every
// prefix whose advertisement state is out of date.
func (e *Engine) markChanged(r topology.RouterID) {
	for _, p := range e.ribs[r].order {
		e.exportPrefix(r, p)
	}
}

// enqueue schedules router r for processing.
func (e *Engine) enqueue(r topology.RouterID) {
	if !e.queued[r] {
		e.queued[r] = true
		e.queue = append(e.queue, r)
	}
}

// updateRIB implements Algorithm 1: merge pending imported routes into
// the per-prefix lists, re-derive tcRib values, and re-advertise routes
// whose tcRib changed.
func (e *Engine) updateRIB(r topology.RouterID) {
	msgs := e.inbox[r]
	if len(msgs) == 0 {
		return
	}
	m := e.Sp.M
	rib := e.ribs[r]
	// Everything below builds BDDs and sends messages per prefix, so the
	// prefixes are kept in first-touched order, never ranged from a map.
	var changed []route.Prefix
	isChanged := make(map[route.Prefix]bool)
	touch := func(p route.Prefix) {
		if !isChanged[p] {
			isChanged[p] = true
			changed = append(changed, p)
		}
	}
	for _, msg := range msgs {
		e.stats.RoutesImported++
		e.telImported.Inc()
		rt, tc, ok := e.importTransform(r, msg)
		if !ok {
			m.Deref(msg.tc)
			continue
		}
		list := rib.prefixes[rt.Prefix]
		idx := -1
		for i, sr := range list {
			if route.SameRoute(sr.Route, &rt) {
				idx = i
				break
			}
		}
		if idx >= 0 {
			// Refresh the non-identity field (hops) in place: only the
			// RIB holds its routes while Run runs.
			*list[idx].Route = rt
			old := list[idx].TcIn
			if old != tc {
				list[idx].TcIn = m.Ref(tc)
				m.Deref(old)
				touch(rt.Prefix)
			}
		} else if tc != bdd.False {
			kept := rt // the one heap copy, for a new identity
			sr := &SymRoute{Route: &kept, TcIn: m.Ref(tc), TcRib: bdd.False}
			rib.set(rt.Prefix, insertSorted(list, sr))
			touch(rt.Prefix)
		}
		m.Deref(msg.tc)
	}
	// Re-rank changed prefixes first; aggregates are derived from the
	// freshly installed conditions of their contributors.
	var ribChanged []route.Prefix
	for _, p := range changed {
		if e.recomputeTcRib(r, p) {
			ribChanged = append(ribChanged, p)
		}
	}
	rc := e.Net.Router(r)
	if rc.BGP != nil && len(rc.BGP.Aggregates) > 0 {
		for _, agg := range rc.BGP.Aggregates {
			if !e.wantPrefix(agg) {
				continue
			}
			trigger := slices.ContainsFunc(ribChanged, func(p route.Prefix) bool {
				return agg.Covers(p) && agg != p
			})
			if trigger && e.updateAggregate(r, agg) && e.recomputeTcRib(r, agg) &&
				!slices.Contains(ribChanged, agg) {
				ribChanged = append(ribChanged, agg)
			}
		}
	}
	for _, p := range ribChanged {
		e.exportPrefix(r, p)
	}
	// No session has r as its peer, so nothing was sent to r while it
	// ran: it keeps the inbox's backing array for its next activation,
	// cleared so that it holds no route.
	clear(msgs)
	e.inbox[r] = msgs[:0]
}

// importTransform applies receiver-side processing to an advertisement:
// protocol classification, loop checks, import policy, cost
// accumulation, hop bounding, and route pruning. ok is false when the
// route is rejected. The route is a value: the caller copies it to the
// heap only when the RIB has no route of its identity yet.
func (e *Engine) importTransform(r topology.RouterID, msg message) (rt route.Route, tc bdd.Node, ok bool) {
	rc := e.Net.Router(r)
	rt = *msg.rt
	rt.NextHop = int(msg.from)
	rt.EgressLink = int(msg.link)
	rt.Hops++
	if rt.Hops > e.maxHops {
		return rt, bdd.False, false
	}
	fromName := e.Net.Topology.Name(msg.from)
	switch rt.Protocol {
	case route.EBGP, route.IBGP:
		if rc.BGP == nil {
			return rt, bdd.False, false
		}
		peerASN := e.Net.Router(msg.from).BGP.ASN
		if peerASN == rc.BGP.ASN {
			rt.Protocol = route.IBGP
		} else {
			rt.Protocol = route.EBGP
			if rt.ContainsAS(rc.BGP.ASN) {
				return rt, bdd.False, false // AS-path loop
			}
		}
		if name, ok := rc.BGP.ImportPolicy[fromName]; ok {
			out, permit := rc.RouteMaps[name].Apply(&rt, rc.BGP.ASN)
			if !permit {
				return rt, bdd.False, false
			}
			rt = *out
		}
	case route.OSPF:
		if rc.OSPF == nil {
			return rt, bdd.False, false
		}
		rt.Cost += rc.InterfaceOf(msg.link).OSPFCost
	default:
		return rt, bdd.False, false
	}
	tc = e.Sp.M.And(msg.tc, e.filter)
	if tc == bdd.False && msg.tc != bdd.False {
		e.stats.RoutesPruned++
		e.telPruned.Inc()
	}
	return rt, tc, true
}

// recomputeTcRib re-derives the tcRib of every route of prefix p at
// router r following equation (1): a route is installed when it is
// imported and no strictly higher-priority route is installed. Routes in
// the same priority tier (ECMP candidates) do not mask each other unless
// NoECMP is set. It reports whether any tcRib changed, and drops list
// entries that can never be imported (tcIn = False).
func (e *Engine) recomputeTcRib(r topology.RouterID, p route.Prefix) bool {
	m := e.Sp.M
	list := e.ribs[r].prefixes[p]
	if len(list) == 0 {
		return false
	}
	anyChanged := false
	matched := bdd.False
	i := 0
	for i < len(list) {
		j := i + 1
		if !e.Opts.NoECMP {
			for j < len(list) && route.Compare(list[i].Route, list[j].Route) == 0 {
				j++
			}
		}
		tierIn := bdd.False
		for k := i; k < j; k++ {
			sr := list[k]
			tcRib := m.Diff(sr.TcIn, matched)
			if tcRib != sr.TcRib {
				m.Ref(tcRib)
				if sr.TcRib != bdd.False {
					m.Deref(sr.TcRib)
				}
				sr.TcRib = tcRib
				anyChanged = true
			}
			tierIn = m.Or(tierIn, sr.TcIn)
		}
		matched = m.Or(matched, tierIn)
		i = j
	}
	// Drop entries that are withdrawn and uninstallable.
	kept := list[:0]
	for _, sr := range list {
		if sr.TcIn == bdd.False && sr.TcRib == bdd.False {
			continue
		}
		kept = append(kept, sr)
	}
	e.ribs[r].prefixes[p] = kept
	return anyChanged
}

// updateAggregate recomputes the BGP aggregate route for prefix agg at
// router r: its condition is the disjunction of the installed conditions
// of all more-specific contributing routes (§4 "Supporting route
// aggregation"). It reports whether the aggregate's condition changed.
func (e *Engine) updateAggregate(r topology.RouterID, agg route.Prefix) bool {
	m := e.Sp.M
	tc := bdd.False
	rib := e.ribs[r]
	for _, p := range rib.order {
		if !agg.Covers(p) || p == agg {
			continue
		}
		for _, sr := range rib.prefixes[p] {
			if sr.Route.Aggregate {
				continue
			}
			switch sr.Route.Protocol {
			case route.EBGP, route.IBGP, route.Connected:
				tc = m.Or(tc, sr.TcRib)
			}
		}
	}
	list := rib.prefixes[agg]
	for _, sr := range list {
		if sr.Route.Aggregate {
			if sr.TcIn == tc {
				return false
			}
			m.Deref(sr.TcIn)
			sr.TcIn = m.Ref(tc)
			return true
		}
	}
	if tc == bdd.False {
		return false
	}
	rt := route.NewLocal(agg, route.EBGP, int(r))
	rt.Aggregate = true
	sr := &SymRoute{Route: rt, TcIn: m.Ref(tc), TcRib: bdd.False}
	rib.set(agg, insertSorted(list, sr))
	return true
}

// insertSorted inserts sr into list keeping (Compare, Tiebreak) order.
// The insertion point is found by binary search — routers accumulate
// hundreds of symbolic routes per prefix on dense fabrics, and the
// linear scan made RIB maintenance quadratic in that count. Equal
// routes keep their insertion order (the predicate is strict), matching
// the previous linear scan exactly.
func insertSorted(list []*SymRoute, sr *SymRoute) []*SymRoute {
	pos := sort.Search(len(list), func(i int) bool {
		c := route.Compare(sr.Route, list[i].Route)
		return c < 0 || (c == 0 && route.Tiebreak(sr.Route, list[i].Route) < 0)
	})
	list = append(list, nil)
	copy(list[pos+1:], list[pos:])
	list[pos] = sr
	return list
}

// buildSessions lists each router's sessions: one per link that is
// passive at neither end, in link order, then its virtual iBGP sessions.
// A link runs BGP when both ends do, except between two same-AS members
// of the mesh, whose BGP goes over their virtual session; it runs OSPF
// when both ends do. A link that runs neither keeps its session: its
// exports are empty, but building them creates the link's variable,
// and the nodes made after it are numbered from there.
func (e *Engine) buildSessions(mesh map[topology.RouterID]bool, virtual map[topology.RouterID][]session) [][]session {
	t := e.Net.Topology
	out := make([][]session, t.NumRouters())
	for i := range out {
		r := topology.RouterID(i)
		rc := e.Net.Router(r)
		for _, lid := range t.Router(r).Links {
			nbr := t.Link(lid).Other(r)
			nc := e.Net.Router(nbr)
			if rc.InterfaceOf(lid).Passive || nc.InterfaceOf(lid).Passive {
				continue
			}
			bgp := rc.BGP != nil && nc.BGP != nil &&
				!(mesh[r] && mesh[nbr] && rc.BGP.ASN == nc.BGP.ASN)
			out[i] = append(out[i], session{peer: nbr, link: lid, bgp: bgp,
				ospf: rc.OSPF != nil && nc.OSPF != nil})
		}
		out[i] = append(out[i], virtual[r]...)
	}
	return out
}

// exportPrefix recomputes the advertisements of prefix p from router r
// over each of its sessions and enqueues the differences (updates and
// withdrawals) into the peers' inboxes.
func (e *Engine) exportPrefix(r topology.RouterID, p route.Prefix) {
	for i := range e.sessions[r] {
		s := &e.sessions[r][i]
		e.advertise(advKey{link: s.link, from: r, to: s.peer, prefix: p}, e.exports(r, s, p))
	}
}

// advertise diffs fresh, the advertisement set a session now carries
// for a prefix, against what was last sent on it, and enqueues the
// differences at the receiver: new and re-conditioned routes in fresh's
// (RIB) order, then withdrawals — re-advertisements with condition
// False — in the previous set's order. key.link is -1 on a virtual iBGP
// session (the receiver resolves the next hop through the IGP).
func (e *Engine) advertise(key advKey, fresh advSet) {
	m := e.Sp.M
	prev := e.adv[key]
	changed := false
	for _, cur := range fresh.Entries() {
		if old := prev.Get(cur.Route); old != nil && old.Value == cur.Value {
			continue
		}
		e.send(key.to, key.from, key.link, cur.Route, cur.Value)
		changed = true
	}
	for _, old := range prev.Entries() {
		if fresh.Get(old.Route) == nil {
			e.send(key.to, key.from, key.link, old.Route, bdd.False)
			changed = true
		}
	}
	if !changed {
		return
	}
	for _, old := range prev.Entries() {
		m.Deref(old.Value)
	}
	for _, cur := range fresh.Entries() {
		m.Ref(cur.Value)
	}
	e.adv[key] = fresh
}

// addAdvertisement records that rt is advertised under tc: routes with
// the same identity share one entry whose condition is the disjunction.
// rt is the caller's candidate: out keeps a copy of it only when its
// identity is new.
func (e *Engine) addAdvertisement(out *advSet, rt *route.Route, tc bdd.Node) {
	if tc == bdd.False {
		return
	}
	if cur, added := out.AddCopy(rt, tc); !added {
		cur.Value = e.Sp.M.Or(cur.Value, tc)
	}
}

// exports builds the advertisement set for prefix p from r over
// session s: every installed route eligible for the session, transformed
// by export processing, grouped by logical identity with conditions
// OR-ed, and conjoined with the session's condition — the link variable,
// or a virtual session's underlay reachability.
func (e *Engine) exports(r topology.RouterID, s *session, p route.Prefix) advSet {
	m := e.Sp.M
	rc, nc := e.Net.Router(r), e.Net.Router(s.peer)
	var out advSet
	up := s.cond
	if s.link >= 0 {
		// Asked for here, not kept in the session: a variable's nodes
		// are made on first use, and making them all up front would
		// renumber every node after them.
		up = e.Sp.LinkVar(s.link)
	}
	// BGP aggregates suppress their contributing more-specifics.
	bgp := s.bgp && !slices.ContainsFunc(rc.BGP.Aggregates, func(agg route.Prefix) bool {
		return agg.Covers(p) && agg != p
	})
	list := e.ribs[r].prefixes[p]
	if bgp || s.ospf {
		// Size the set once: an entry at most per installed route and
		// protocol.
		n := 0
		for _, sr := range list {
			if sr.TcRib != bdd.False {
				n++
			}
		}
		if bgp && s.ospf {
			n *= 2
		}
		out.Grow(n)
	}
	for _, sr := range list {
		if sr.TcRib == bdd.False {
			continue
		}
		rt := sr.Route
		if bgp {
			var eligible bool
			switch rt.Protocol {
			case route.EBGP:
				eligible = true
			case route.IBGP:
				// Standard iBGP: routes learned over iBGP are not
				// re-advertised to iBGP peers (no route reflection).
				eligible = nc.BGP.ASN != rc.BGP.ASN
			case route.Connected:
				eligible = slices.Contains(rc.BGP.Networks, p)
			}
			if eligible || rt.Aggregate {
				cand := *rt
				cand.Aggregate = false
				adv := &cand
				if s.link < 0 {
					// iBGP over a virtual session keeps local-pref,
					// prepends nothing and applies no export map.
					adv.Protocol = route.IBGP
				} else {
					adv = e.bgpOverLink(rc, nc, s.peer, adv)
				}
				if adv != nil {
					adv.NextHop = int(r)
					adv.EgressLink = int(s.link)
					e.addAdvertisement(&out, adv, m.And(sr.TcRib, up))
				}
			}
		}
		if s.ospf {
			eligible := rt.Protocol == route.OSPF
			if rt.Protocol == route.Connected {
				eligible = slices.Contains(rc.OSPF.Networks, p)
				if pfx, ok := e.loopbackOSPF[r]; ok && pfx == p {
					eligible = true // loopbacks back the iBGP mesh
				}
			}
			if eligible {
				adv := *rt
				adv.Protocol = route.OSPF
				adv.NextHop = int(r)
				adv.EgressLink = int(s.link)
				e.addAdvertisement(&out, &adv, m.And(sr.TcRib, up))
			}
		}
	}
	return out
}

// bgpOverLink applies to adv the export map of rc towards peer and the
// rewrite of a BGP advertisement sent over a link: local-pref reset
// across ASes and rc's AS prepended. It returns nil when the map denies
// the route.
func (e *Engine) bgpOverLink(rc, nc *config.Router, peer topology.RouterID, adv *route.Route) *route.Route {
	if name, ok := rc.BGP.ExportPolicy[e.Net.Topology.Name(peer)]; ok {
		transformed, permit := rc.RouteMaps[name].Apply(adv, rc.BGP.ASN)
		if !permit {
			return nil
		}
		adv = transformed
	}
	if nc.BGP.ASN != rc.BGP.ASN {
		adv.LocalPref = 100 // local-pref is not transitive over eBGP
	}
	adv.ASPath = append([]uint32{rc.BGP.ASN}, adv.ASPath...)
	adv.Protocol = route.EBGP // classified precisely at import
	return adv
}

// send enqueues an advertisement into nbr's inbox.
func (e *Engine) send(nbr, from topology.RouterID, lid topology.LinkID, rt *route.Route, tc bdd.Node) {
	e.Sp.M.Ref(tc)
	e.inbox[nbr] = append(e.inbox[nbr], message{from: from, link: lid, rt: rt, tc: tc})
	e.enqueue(nbr)
}
