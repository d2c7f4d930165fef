package src

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"

	"sre/internal/obs"
	"sre/internal/route"
)

// Options configures a symbolic route computation. It is also the one
// definition of the options that shape a result: every field is part of
// the canonical encoding (Encode) — which the fleet's init frame ships
// to worker subprocesses and analysis.CacheKey hashes — unless its tag
// is `json:"-"`, which marks it process-local, with the reason in its
// comment. A new field is therefore shipped and keyed by being declared.
// What the topology decides is not an option: the link-variable order
// (order.Compute), the hop bound and the activation cap (NewWithSpace).
type Options struct {
	// PruneK enables route pruning (§7.1) when ≥ 0: imported topology
	// conditions are conjoined with the filtering BDD lf^PruneK and
	// routes whose condition becomes False are dropped. Negative
	// disables pruning (the full failure space is explored).
	PruneK int `json:"prune_k"`
	// NoECMP disables multi-path route selection; by default routes of
	// equal preference form one priority tier and are all installed.
	NoECMP bool `json:"no_ecmp"`
	// Prefixes restricts the computation to the given destination
	// prefixes (prefix pruning, §7.2). Nil means every prefix
	// originated in the network. Process-local: a prefix task replaces
	// it with its task domain, which the task frame's prefix determines
	// and the cache key hashes in its own right.
	Prefixes []route.Prefix `json:"-"`
	// IBGPFullMesh enables iBGP full-mesh sessions among routers that
	// share an AS and run OSPF: sessions become virtual links whose
	// conditions are the OSPF reachability conditions between the
	// peers (§4, "Supporting multiple protocols").
	IBGPFullMesh bool `json:"ibgp_full_mesh"`
	// Telemetry, when non-nil, receives src.* counters and progress
	// events during Run. Nil disables all instrumentation at near-zero
	// cost. Process-local: an observer of the run, not an input to it;
	// workers run a fresh registry per task and ship its export back.
	Telemetry *obs.Telemetry `json:"-"`
	// Interrupt, when non-nil, is polled once per router activation
	// (and threaded into the BDD manager of spaces built on the
	// engine's behalf); a non-nil return aborts the run with that
	// error, tagged with the interrupted stage. Wire
	// resil.SharedChecker.Fn here for cancellation and deadlines.
	// Process-local: a hook into this process; an interrupted run has
	// no result to key, and workers are killed, not signaled.
	Interrupt func() error `json:"-"`
	// BDDNodeLimit caps the node table of BDD spaces created on the
	// engine's behalf (analysis.Run and the miner; engines given an
	// explicit space ignore it). Zero means the bdd package default.
	BDDNodeLimit int `json:"bdd_node_limit"`
	// Parallelism is the worker count of the multi-prefix drivers built
	// on top of the engine (analysis.Executor and the spec miner),
	// which run per-prefix pipelines concurrently — each worker with
	// its own engine and BDD manager. 0 means runtime.GOMAXPROCS(0);
	// 1 runs them one at a time. A single engine is always
	// single-threaded and ignores the field. Process-local: results do
	// not depend on the worker count, and a worker subprocess runs one
	// task at a time.
	Parallelism int `json:"-"`
}

// Encode returns the canonical encoding of o: a JSON object of every
// field not marked process-local, in declaration order, zero values
// included — equal bytes exactly when the result-shaping options are
// equal. A field whose value cannot cross a process boundary (a func,
// pointer, map, interface, ...) and is not marked process-local is an
// error, never a silent omission.
func (o Options) Encode() ([]byte, error) { return encodeCanonical(o) }

// encodeCanonical is Encode over any struct type, so the tests can show
// it refusing fields Options must never grow unmarked.
func encodeCanonical(v any) ([]byte, error) {
	t := reflect.TypeOf(v)
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Tag.Get("json") == "-" {
			continue
		}
		// Bool, the sized and unsized integers and floats, and String:
		// the kinds encoding/json writes one way only.
		k := f.Type.Kind()
		scalar := k == reflect.Bool || k == reflect.String || (k >= reflect.Int && k <= reflect.Float64 && k != reflect.Uintptr)
		if !scalar || !f.IsExported() {
			return nil, fmt.Errorf("src: %s.%s (%s) has no canonical encoding: make it an exported scalar or mark it process-local", t.Name(), f.Name, f.Type)
		}
	}
	return json.Marshal(v)
}

// DecodeOptions is the inverse of Encode. Process-local fields come back
// zero; a field the encoding names that Options does not have is an
// error (the two ends disagree about what shapes a result).
func DecodeOptions(data []byte) (Options, error) {
	var o Options
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&o); err != nil {
		return Options{}, fmt.Errorf("src: decoding options: %w", err)
	}
	return o, nil
}
