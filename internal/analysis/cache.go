package analysis

// Persistent result cache: a content-addressed store of per-prefix
// verification results. The paper's prefix decomposition (§7.2) makes a
// prefix task a pure function of (the config slice its task domain can
// observe, the topology, the result-shaping options), so a result
// computed once — in-process or by a worker subprocess — can be
// replayed byte-identically by any later run with the same key. A
// record (CacheRecord) is the wire forms (WireOutcome + WirePipeline,
// whose PFEC table and BDD blob are compact varint byte strings) plus
// an optional telemetry shard, wrapped in JSON; internal/store adds
// framing, checksums, and crash-safe publication underneath, and a fleet
// worker sends the same record back to its coordinator.
//
// Soundness rests entirely on the key: anything that can change the
// outcome, the PFEC set, or a downstream property answer must be
// hashed. CacheKey covers the result-shaping options (their one
// canonical encoding, src.Options.Encode, so a new option is keyed by
// being declared), the computed link-variable order, the ladder
// switches, the decomposition inputs (prefix + closed task domain) and
// the sliced configuration (config.Format of a clone trimmed to what the
// scoped run can observe — which includes the topology section), all
// under a format version that changes whenever the record layout or the
// meaning of any hashed field does.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"sre/internal/bdd"
	"sre/internal/config"
	"sre/internal/obs"
	"sre/internal/order"
	"sre/internal/resil"
	"sre/internal/route"
	"sre/internal/src"
	"sre/internal/store"
)

// cacheFormatVersion stamps both the key preimage and the record body.
// Bump it whenever the record layout, the wire forms, or the semantics
// of any keyed option change: old records then simply miss.
// v3: the options part of the preimage is src.Options.Encode.
// v4: the options bytes lost a field and serialized BDDs are BDD3 (the
// variable order is fixed, so blobs carry no order stamp).
// v5: a record holds exactly one pipeline (the ladder rung that made
// two is gone; readers take the one without a fan-in).
// v6: the options bytes lost the variable order, the hop bound and the
// activation cap; the computed link permutation is hashed instead.
// v7: serialized BDDs are varint BDD4 and a pipeline's PFECs travel as
// one packed varint table instead of JSON objects.
// v8: the options bytes lost "abstract", and the ladder lost its
// abstract rung.
const cacheFormatVersion = 8

// CacheKey derives the content address of one prefix task's result.
// Two runs compute the same key exactly when the task is guaranteed to
// produce the same result; unrelated config edits (another prefix's
// networks, a router the domain cannot observe... ) leave keys of
// untouched prefixes stable, so warm caches survive incremental edits.
func CacheKey(net *config.Network, opts src.Options, pfx route.Prefix, ladder bool, lad LadderOptions) string {
	enc, err := opts.Encode()
	if err != nil {
		panic(err) // an unencodable field type: a bug in src.Options, not an input
	}
	domain := taskDomain(net, pfx)
	h := sha256.New()
	fmt.Fprintf(h, "sre-cache v%d\nopts=%s\n", cacheFormatVersion, enc)
	// The link order shapes every serialized BDD: a change to how it is
	// computed must be a clean miss, not a record decoded under the
	// wrong layout.
	fmt.Fprintf(h, "perm=%v\n", order.Compute(net.Topology).Perm)
	fmt.Fprintf(h, "ladder=%t halving=%t\n", ladder, !lad.DisableBudgetHalving)
	fmt.Fprintf(h, "prefix=%s\ndomain=", pfx)
	for _, p := range domain {
		fmt.Fprintf(h, " %s", p)
	}
	io.WriteString(h, "\n")
	io.WriteString(h, config.Format(sliceNetwork(net, domain)))
	return hex.EncodeToString(h.Sum(nil))
}

// sliceNetwork clones net keeping only the configuration a scoped run
// over domain can observe: originated networks in the domain, and
// aggregates/statics overlapping it. Policy (route-maps, interface
// costs, ACLs) and the topology are kept whole — ACL entries and costs
// for unrelated prefixes are cheap to hash and can still intersect the
// task's header space.
func sliceNetwork(net *config.Network, domain []route.Prefix) *config.Network {
	inDomain := func(p route.Prefix) bool {
		for _, d := range domain {
			if p == d {
				return true
			}
		}
		return false
	}
	overlaps := func(p route.Prefix) bool {
		for _, d := range domain {
			if p.Overlaps(d) {
				return true
			}
		}
		return false
	}
	keep := func(ps []route.Prefix, pred func(route.Prefix) bool) []route.Prefix {
		out := ps[:0]
		for _, p := range ps {
			if pred(p) {
				out = append(out, p)
			}
		}
		return out
	}
	cp := net.Clone()
	for _, r := range cp.Routers {
		if r.BGP != nil {
			r.BGP.Networks = keep(r.BGP.Networks, inDomain)
			r.BGP.Aggregates = keep(r.BGP.Aggregates, overlaps)
		}
		if r.OSPF != nil {
			r.OSPF.Networks = keep(r.OSPF.Networks, inDomain)
		}
		statics := r.Static[:0]
		for _, s := range r.Static {
			if overlaps(s.Prefix) {
				statics = append(statics, s)
			}
		}
		r.Static = statics
	}
	return cp
}

// CacheRecord is the JSON payload of one store record: a finished
// prefix task in wire form. Telemetry carries the snapshot of the
// producing worker's per-task registry (nil for in-process producers)
// so a warm coordinator run can still merge plausible counters.
type CacheRecord struct {
	Version   int            `json:"version"`
	Prefix    string         `json:"prefix"`
	Outcome   WireOutcome    `json:"outcome"`
	Pipes     []WirePipeline `json:"pipes,omitempty"`
	Telemetry *obs.Report    `json:"telemetry,omitempty"`
}

// ResultCache binds the analysis layer to a persistent store. The zero
// value and nil are inert; all methods are safe for concurrent use
// (the store serializes writers).
type ResultCache struct {
	S *store.Store
}

// Lookup consults the store for key and, on a hit, rebuilds the
// prefix's pipelines and outcome. Misses and every flavour of bad
// record return hit=false with a nil error — corruption is the store's
// problem (Get quarantines torn frames; Lookup quarantines frames whose
// payload is unusable) and the caller just recomputes. The only non-nil
// error is a cooperative interruption raised while re-consing BDDs,
// which must abort the run like any other interruption. A node-limit
// overflow during decode is a plain miss (this run's limit is smaller
// than the producer's), leaving the record for roomier readers. Each
// hit records one "decode" flight-recorder event: its wall time covers
// the JSON and pipeline decode, Count is the payload size in bytes and
// Nodes the BDD nodes the decode created.
func (c *ResultCache) Lookup(net *config.Network, opts src.Options, key string, pfx route.Prefix, tel *obs.Telemetry) ([]*Pipeline, PrefixOutcome, bool, error) {
	if c == nil || c.S == nil || key == "" {
		return nil, PrefixOutcome{}, false, nil
	}
	payload, ok := c.S.Get(key)
	if !ok {
		return nil, PrefixOutcome{}, false, nil
	}
	recording := tel.Recording()
	var t0 time.Time
	if recording {
		t0 = time.Now()
	}
	var rec CacheRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		c.S.Quarantine(key, "bad json")
		return nil, PrefixOutcome{}, false, nil
	}
	if rec.Version != cacheFormatVersion || rec.Prefix != pfx.String() {
		c.S.Quarantine(key, "record mismatch")
		return nil, PrefixOutcome{}, false, nil
	}
	pipes, derr := DecodePipelines(net, opts, rec.Pipes, tel)
	if derr != nil {
		if resil.Interruption(derr) {
			return nil, PrefixOutcome{}, false, derr
		}
		if errors.Is(derr, bdd.ErrNodeLimit) {
			return nil, PrefixOutcome{}, false, nil
		}
		c.S.Quarantine(key, "undecodable pipelines")
		return nil, PrefixOutcome{}, false, nil
	}
	if recording {
		var nodes int64
		for _, p := range pipes {
			// Each pipeline decodes into a fresh manager, which starts
			// with only the two terminals.
			nodes += int64(p.Sp.M.Statistics().LiveNodes - 2)
		}
		tel.Record(t0, obs.TraceEvent{Stage: "decode", Prefix: rec.Prefix,
			Wall: time.Since(t0).Nanoseconds(), Count: int64(len(payload)),
			Nodes: nodes, Outcome: "ok"})
	}
	tel.Merge(rec.Telemetry.Import())
	return pipes, OutcomeFromWire(pfx, rec.Outcome), true, nil
}

// NewCacheRecord puts a finished prefix task in wire form: the one
// encoding of a result, whether it goes into the store or back down a
// fleet worker's pipe.
func NewCacheRecord(net *config.Network, pfx route.Prefix, pipes []*Pipeline, out PrefixOutcome, shard *obs.Report) (CacheRecord, error) {
	wps, err := EncodePipelines(pipes, net)
	if err != nil {
		return CacheRecord{}, err
	}
	return CacheRecord{
		Version:   cacheFormatVersion,
		Prefix:    pfx.String(),
		Outcome:   OutcomeToWire(out),
		Pipes:     wps,
		Telemetry: shard,
	}, nil
}

// Publish stores a finished in-process prefix task under key (see
// Put); the record carries no telemetry shard.
func (c *ResultCache) Publish(net *config.Network, key string, pfx route.Prefix, pipes []*Pipeline, out PrefixOutcome) {
	if c == nil || c.S == nil || key == "" {
		return // nothing to encode for
	}
	if rec, err := NewCacheRecord(net, pfx, pipes, out, nil); err == nil {
		c.Put(key, rec)
	}
}

// Put stores an encoded record under key. Failed prefixes (Err set),
// empty results, and worker-crash fallbacks are never stored: a cache
// must only replay results any fault-free run would compute.
// Publication failures are deliberately silent — the store counts them
// in its metrics, and a result that could not be persisted is still a
// correct result.
func (c *ResultCache) Put(key string, rec CacheRecord) {
	if c == nil || c.S == nil || key == "" || len(rec.Pipes) == 0 || !storable(rec.Outcome.Err != nil, rec.Outcome.Rungs) {
		return
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return
	}
	_ = c.S.Put(key, payload)
}

// storable reports whether an outcome may be stored: it did not fail,
// and it was not computed on a worker-crash fallback.
func storable(failed bool, rungs []string) bool {
	return !failed && !slices.Contains(rungs, RungWorkerCrash)
}
