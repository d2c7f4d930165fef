// Package bdd implements reduced ordered binary decision diagrams (ROBDDs)
// in the style of Bryant's classic algorithm, with a hash-consed unique
// table, an operation cache sized to the node table, reference-counted
// garbage collection, and the graph algorithms that Symbolic Router Execution
// performs directly on BDDs: shortest dashed-edge paths (failure
// tolerance), weighted path sums (failure probabilities), cardinality
// constraints ("at most k links down"), and packet/topology decomposition.
//
// The package replaces the JDD library used by the paper's Java
// implementation. Like JDD, the manager enforces a configurable node-table
// limit; exceeding it is reported as ErrNodeLimit, which the evaluation
// harness surfaces as the "BDD limit" entries of Table 2 and Figure 11.
package bdd

import (
	"fmt"
	"math"
	"time"

	"sre/internal/obs"
	"sre/internal/resil"
)

// Node is a handle to a BDD node owned by a Manager. The terminals are
// False (0) and True (1). Node handles remain valid until the node becomes
// unreferenced and a garbage collection runs.
type Node int32

// Terminal nodes. Every Manager uses the same two handles.
const (
	False Node = 0
	True  Node = 1
)

// terminalLevel is the level assigned to the two terminal nodes; it is
// larger than any variable level.
const terminalLevel = math.MaxInt32

// ErrNodeLimit is thrown (resil.Throw) out of Manager calls that
// allocate when the node table would exceed the configured limit. It
// emulates the node-table cap of the JDD library discussed in §8.5 of the
// paper.
var ErrNodeLimit = resil.ErrNodeLimit

// Config controls Manager construction.
type Config struct {
	// Vars is the number of boolean variables. Variable i has level i:
	// lower levels are nearer the root.
	Vars int
	// NodeLimit caps the number of allocated nodes (live + garbage).
	// Zero means DefaultNodeLimit.
	NodeLimit int
	// DisableGC turns off automatic garbage collection. Explicit calls
	// to GC still work.
	DisableGC bool
	// Telemetry, when non-nil, receives manager counters (GC runs and
	// freed nodes, node-limit hits, cache hit/miss deltas) and
	// occupancy gauges, sampled at every collection and at explicit
	// SampleTelemetry calls. Counters accumulate across managers
	// sharing one registry (the miner creates one manager per stratum).
	Telemetry *obs.Telemetry
	// Interrupt, when non-nil, is polled every few thousand node
	// allocations and apply steps; a non-nil return aborts the
	// in-flight operation by unwinding to the nearest public entry
	// point, which reports the error (wrapping it like ErrNodeLimit).
	// This is how cancellation and deadlines reach the innermost loops
	// of symbolic execution without a per-operation time syscall.
	Interrupt func() error
}

// DefaultNodeLimit is the node limit of a Config that sets none:
// 64M nodes ≈ 1.3 GB of tables.
const DefaultNodeLimit = 64 << 20

// initialNodes is the node-table capacity a manager starts with; the
// table grows on demand up to the node limit.
const initialNodes = 1 << 12

// Manager owns a collection of shared BDD nodes over a fixed set of
// ordered boolean variables.
type Manager struct {
	// Node storage, indexed by Node. Entry i is a decision node with
	// variable level lvl[i], else-child lo[i] ("dashed" edge, variable
	// false) and then-child hi[i] ("solid" edge, variable true).
	lvl  []int32
	lo   []int32
	hi   []int32
	next []int32 // unique-table hash chain
	ref  []int32 // external reference count; -1 marks a free slot

	hash     []int32 // unique-table bucket heads (power-of-two length)
	freeList int32   // head of the free-slot chain, -1 if empty
	freeCnt  int     // number of free slots
	nodes    int     // allocated slots (live + garbage, excluding free)

	vars   int
	limit  int
	autoGC bool
	gcAt   int // allocated node count at which MaybeGC next looks (see gc.go)

	// Operation cache shared by every memoized operation: 2-way
	// set-associative, 2*(setMask+1) entries. Set s occupies entries 2s
	// (MRU way) and 2s+1 (LRU way). Entries survive GC; the sweep
	// invalidates only entries whose operands or result died (see
	// sweepCache). The cache grows with the node table at safe points
	// (see growCache).
	cache   []cacheEntry
	setMask uint32
	stats   Stats

	// Generation-stamped scratch memo tables for the per-node analyses
	// and Write (allocation-free after warmup; see scratch.go).
	f64memo memo[float64] // SatCount, Probability
	i32memo memo[int32]   // shortest paths, NodeCount, Write's positions
	witMemo memo[witStep] // MinFalseWitness
	probP   []float64     // Probability's per-call vector, borrowed during recursion

	// Cooperative interruption: interrupt is Config.Interrupt, intrN
	// counts operations since the last poll (see pollInterrupt).
	interrupt func() error
	intrN     uint32

	// Telemetry handles, all nil when telemetry is disabled (every
	// obs method is a no-op on a nil handle, so call sites stay
	// unconditional on cold paths).
	tel          *obs.Telemetry
	telGCRuns    *obs.Counter
	telGCFreed   *obs.Counter
	telLimitHits *obs.Counter
	telCacheHit  *obs.Counter
	telCacheMiss *obs.Counter
	telRetained  *obs.Counter
	telInvalid   *obs.Counter
	telGrows     *obs.Counter
	telPeak      *obs.Gauge
	// Last sampled cumulative values, so counter deltas stay monotone.
	sampledHits, sampledMiss uint64
	sampledRet, sampledInv   uint64
}

type cacheEntry struct {
	op      int32
	f, g, h Node
	res     Node
}

// Stats reports manager counters, used by the scalability experiments
// (Figure 11 reports peak node counts as a memory proxy).
type Stats struct {
	// LiveNodes is the number of allocated node slots minus the free
	// list: live nodes plus garbage not yet collected. GC reduces it;
	// it never exceeds PeakNodes.
	LiveNodes int
	// FreeNodes is the current length of the free list (collected
	// slots awaiting reuse).
	FreeNodes  int
	PeakNodes  int // maximum allocated slots ever
	GCRuns     int
	CacheHits  uint64
	CacheMiss  uint64
	UniqueHits uint64
	// AxCacheHits and AxCacheMiss are always 0: the kernel has one
	// operation cache. The fields stay only because bench/layers.go:615–616
	// reads them.
	AxCacheHits uint64
	AxCacheMiss uint64
	// CacheRetained/CacheInvalidated count operation-cache entries kept
	// and dropped across all GC sweeps (retained is how much warmth
	// survives collections).
	CacheRetained    uint64
	CacheInvalidated uint64
	// HitsAtLastGC/MissAtLastGC snapshot the cache counters at the most
	// recent collection, so hit rates before and after GC are separable.
	HitsAtLastGC uint64
	MissAtLastGC uint64
	// CacheGrows counts the ×4 growth steps of the operation cache
	// (see growCache).
	CacheGrows int
	// Reorders is always 0: the variable order is fixed. The field stays
	// only because bench/layers.go:612 reads it.
	Reorders int
}

// CacheHitRatio returns hits/(hits+misses) of the operation cache, or 0
// before any operation ran.
func (s Stats) CacheHitRatio() float64 {
	return ratio(s.CacheHits, s.CacheMiss)
}

// PostGCCacheHitRatio returns the operation-cache hit ratio since the
// most recent collection — the figure that shows whether cache warmth
// survives GC.
func (s Stats) PostGCCacheHitRatio() float64 {
	return ratio(s.CacheHits-s.HitsAtLastGC, s.CacheMiss-s.MissAtLastGC)
}

func ratio(hits, miss uint64) float64 {
	if hits+miss == 0 {
		return 0
	}
	return float64(hits) / float64(hits+miss)
}

// New creates a Manager with the given configuration.
func New(cfg Config) *Manager { return newSized(cfg, cacheStart, initialNodes) }

// newSized is New with the starting cache sets (a power of two) and
// node-table capacity (at least 2, for the terminals) given; the
// package's tests start small through it to cross growth steps early.
func newSized(cfg Config, sets, nodes int) *Manager {
	if cfg.Vars < 0 {
		panic("bdd: negative variable count")
	}
	if cfg.NodeLimit == 0 {
		cfg.NodeLimit = DefaultNodeLimit
	}
	m := &Manager{
		vars:      cfg.Vars,
		limit:     cfg.NodeLimit,
		autoGC:    !cfg.DisableGC,
		gcAt:      gcFloor,
		freeList:  -1,
		interrupt: cfg.Interrupt,
	}
	m.allocCache(sets)
	if cfg.Telemetry != nil {
		m.tel = cfg.Telemetry
		m.telGCRuns = m.tel.Counter("bdd.gc_runs")
		m.telGCFreed = m.tel.Counter("bdd.gc_freed_nodes")
		m.telLimitHits = m.tel.Counter("bdd.node_limit_hits")
		m.telCacheHit = m.tel.Counter("bdd.cache_hits")
		m.telCacheMiss = m.tel.Counter("bdd.cache_misses")
		m.telRetained = m.tel.Counter("bdd.opcache_retained")
		m.telInvalid = m.tel.Counter("bdd.opcache_invalidated")
		m.telGrows = m.tel.Counter("bdd.opcache_grows")
		m.telPeak = m.tel.Gauge("bdd.peak_nodes")
	}
	m.lvl = make([]int32, 2, nodes)
	m.lo = make([]int32, 2, nodes)
	m.hi = make([]int32, 2, nodes)
	m.next = make([]int32, 2, nodes)
	m.ref = make([]int32, 2, nodes)
	// Terminals occupy slots 0 and 1 and are permanently referenced.
	m.lvl[0], m.lvl[1] = terminalLevel, terminalLevel
	m.lo[0], m.lo[1] = 0, 1
	m.hi[0], m.hi[1] = 0, 1
	m.ref[0], m.ref[1] = 1, 1
	m.nodes = 2
	m.hash = make([]int32, hashSizeFor(nodes))
	for i := range m.hash {
		m.hash[i] = -1
	}
	m.next[0], m.next[1] = -1, -1
	return m
}

func hashSizeFor(nodes int) int {
	s := 256
	for s < nodes {
		s <<= 1
	}
	return s
}

// NumVars returns the number of variables of the manager.
func (m *Manager) NumVars() int { return m.vars }

// Size returns the number of allocated (live plus not-yet-collected)
// nodes, including the two terminals.
func (m *Manager) Size() int { return m.nodes }

// Statistics returns a snapshot of manager counters.
func (m *Manager) Statistics() Stats {
	s := m.stats
	// Allocated slots minus the free list — NOT m.nodes, whose
	// incremental bookkeeping can drift from the table (e.g. when GC
	// resurrects a free-listed slot reachable from a re-referenced
	// root).
	s.LiveNodes = len(m.lvl) - m.freeCnt
	s.FreeNodes = m.freeCnt
	return s
}

// SampleTelemetry publishes current occupancy and cache counters to the
// configured telemetry registry; a no-op without telemetry. Engines
// call it at safe points (between top-level steps) so a live progress
// sink sees BDD pressure as it builds.
func (m *Manager) SampleTelemetry() {
	if m.tel == nil {
		return
	}
	m.telPeak.Max(float64(m.stats.PeakNodes))
	// Counters must stay monotone across managers sharing the
	// registry, so publish deltas since the last sample.
	m.telCacheHit.Add(int64(m.stats.CacheHits - m.sampledHits))
	m.telCacheMiss.Add(int64(m.stats.CacheMiss - m.sampledMiss))
	m.telRetained.Add(int64(m.stats.CacheRetained - m.sampledRet))
	m.telInvalid.Add(int64(m.stats.CacheInvalidated - m.sampledInv))
	m.sampledHits, m.sampledMiss = m.stats.CacheHits, m.stats.CacheMiss
	m.sampledRet, m.sampledInv = m.stats.CacheRetained, m.stats.CacheInvalidated
}

// Var returns the BDD for variable v (a single decision node testing v).
func (m *Manager) Var(v int) Node {
	if v < 0 || v >= m.vars {
		panic(fmt.Sprintf("bdd: variable %d out of range [0,%d)", v, m.vars))
	}
	return m.mk(int32(v), False, True)
}

// NVar returns the BDD for the negation of variable v.
func (m *Manager) NVar(v int) Node {
	if v < 0 || v >= m.vars {
		panic(fmt.Sprintf("bdd: variable %d out of range [0,%d)", v, m.vars))
	}
	return m.mk(int32(v), True, False)
}

// Ref increments the external reference count of n, protecting it (and
// its descendants) from garbage collection. It returns n for chaining.
func (m *Manager) Ref(n Node) Node {
	if n > True {
		m.ref[n]++
	}
	return n
}

// Deref decrements the external reference count of n.
func (m *Manager) Deref(n Node) {
	if n > True {
		if m.ref[n] <= 0 {
			panic("bdd: Deref of unreferenced node")
		}
		m.ref[n]--
	}
}

// hashNode mixes a (level, lo, hi) triple into a bucket index.
func (m *Manager) hashNode(lvl, lo, hi int32) int32 {
	h := uint32(lvl)*0x9e3779b9 + uint32(lo)*0x85ebca6b + uint32(hi)*0xc2b2ae35
	h ^= h >> 15
	return int32(h & uint32(len(m.hash)-1))
}

// interruptEvery is how many polled operations elapse between calls to
// the Interrupt hook. The hook (resil.SharedChecker.Fn) consults the
// context and clock on every call, so this is where polling amortizes:
// the common path through pollInterrupt is one nil check, one
// increment, and one compare — negligible against a unique-table probe.
const interruptEvery = 4096

// pollInterrupt aborts the in-flight operation when the run has been
// canceled or has exceeded its deadline. The error is thrown
// (resil.Throw) exactly like a node-table overflow, so every boundary
// handles it.
func (m *Manager) pollInterrupt() {
	if m.interrupt == nil {
		return
	}
	m.intrN++
	if m.intrN < interruptEvery {
		return
	}
	m.intrN = 0
	if err := m.interrupt(); err != nil {
		resil.Throw(err)
	}
}

// mk returns the canonical node (lvl, lo, hi), applying the ROBDD
// reduction rules.
func (m *Manager) mk(lvl int32, lo, hi Node) Node {
	if lo == hi {
		return lo
	}
	m.pollInterrupt()
	b := m.hashNode(lvl, int32(lo), int32(hi))
	for i := m.hash[b]; i >= 0; i = m.next[i] {
		if m.lvl[i] == lvl && m.lo[i] == int32(lo) && m.hi[i] == int32(hi) {
			m.stats.UniqueHits++
			return Node(i)
		}
	}
	// Allocate: reuse a freed slot if available, else extend the table.
	// The new slot's index is the table extent — NOT m.nodes, which
	// counts live slots and lags behind after collections.
	var id int32
	if m.freeList >= 0 {
		id = m.freeList
		m.freeList = m.next[id]
		m.freeCnt--
		m.lvl[id], m.lo[id], m.hi[id], m.ref[id] = lvl, int32(lo), int32(hi), 0
		m.nodes++
	} else {
		if len(m.lvl) >= m.limit {
			// Garbage collection cannot run here: intermediate nodes of
			// in-flight operations live only on the Go stack and would be
			// swept. Clients collect at safe points via MaybeGC.
			m.telLimitHits.Inc()
			if m.tel.Active() {
				m.tel.Emit(obs.Event{Stage: "bdd", Final: true,
					Detail: fmt.Sprintf("node table limit exceeded (%s nodes)", obs.HumanCount(int64(m.limit)))})
			}
			if m.tel.Recording() {
				m.tel.Record(time.Time{}, obs.TraceEvent{Stage: "bdd.overflow",
					Nodes: int64(m.limit), Outcome: "overflow"})
			}
			resil.Throw(ErrNodeLimit)
		}
		id = int32(len(m.lvl))
		m.lvl = append(m.lvl, lvl)
		m.lo = append(m.lo, int32(lo))
		m.hi = append(m.hi, int32(hi))
		m.next = append(m.next, -1)
		m.ref = append(m.ref, 0)
		m.nodes++
	}
	if m.nodes > m.stats.PeakNodes {
		m.stats.PeakNodes = m.nodes
	}
	m.next[id] = m.hash[b]
	m.hash[b] = id
	if m.nodes > len(m.hash)*2 {
		m.rehash() // re-links every live node, including id
	}
	return Node(id)
}

func (m *Manager) rehash() {
	m.hash = make([]int32, hashSizeFor(m.nodes*2))
	for i := range m.hash {
		m.hash[i] = -1
	}
	for i := int32(2); i < int32(len(m.lvl)); i++ {
		if m.ref[i] < 0 { // free slot
			continue
		}
		b := m.hashNode(m.lvl[i], m.lo[i], m.hi[i])
		m.next[i] = m.hash[b]
		m.hash[b] = i
	}
	// Free slots lost their chain; rebuild it.
	m.freeList = -1
	m.freeCnt = 0
	for i := int32(len(m.lvl)) - 1; i >= 2; i-- {
		if m.ref[i] < 0 {
			m.next[i] = m.freeList
			m.freeList = i
			m.freeCnt++
		}
	}
}
