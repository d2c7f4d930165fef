package analysis

// Wire forms for pipelines, outcomes, and errors — shared by the
// multi-process coordinator (internal/coord frames them onto worker
// pipes) and the persistent result store (internal/analysis/cache.go
// uses them as the record payload). A producer flattens each pipeline
// into two byte strings — a packed varint table of PFEC paths and flags
// (see WirePipeline) and one "BDD4" bdd.Write blob with every predicate
// as a root, in (source router, PFEC index) order — and the consumer
// rebuilds them as query-only decoded pipelines in a fresh
// symbolic space with the identical variable layout (NewRunSpace) —
// or, for a differential analysis, in the other pipeline's space.
// Decoded roots are Ref'd before the pipeline is handed out:
// bdd.Manager.Read hash-conses without referencing, and the references
// must survive later GC safe points, mirroring how spf.Forward
// references every PFEC predicate.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"sre/internal/bdd"
	"sre/internal/config"
	"sre/internal/obs"
	"sre/internal/resil"
	"sre/internal/route"
	"sre/internal/spf"
	"sre/internal/src"
	"sre/internal/symbol"
	"sre/internal/topology"
)

// WirePipeline is one serialized pipeline: the packed PFEC table plus a
// single bdd.Write blob holding every predicate, roots in (source
// router, PFEC index) order.
//
// The PFEC table is a run of unsigned varints. For each source router
// in ID order it holds the router's PFEC count; each PFEC is then
// len(path)<<2 | looped<<1 | delivered, followed by its hops as router
// IDs. The i-th PFEC of the table owns the blob's i-th root.
type WirePipeline struct {
	Scope    string `json:"scope,omitempty"`
	SRCNanos int64  `json:"src_ns"`
	SPFNanos int64  `json:"spf_ns"`
	PFECs    []byte `json:"pfecs"`
	BDD      []byte `json:"bdd"`
}

// WireOutcome is PrefixOutcome in transportable form. WorkerCrashes
// never crosses the wire: the coordinator owns attempt accounting.
type WireOutcome struct {
	Err             *WireError `json:"err,omitempty"`
	Quarantined     bool       `json:"quarantined,omitempty"`
	Degraded        bool       `json:"degraded,omitempty"`
	Rungs           []string   `json:"rungs,omitempty"`
	EffectivePruneK int        `json:"effective_prune_k"`
}

// EncodePipelines serializes a prefix task's pipelines for transport or
// storage.
func EncodePipelines(pipes []*Pipeline, net *config.Network) ([]WirePipeline, error) {
	out := make([]WirePipeline, 0, len(pipes))
	n := net.Topology.NumRouters()
	for _, p := range pipes {
		wp := WirePipeline{
			SRCNanos: p.SRCTime.Nanoseconds(),
			SPFNanos: p.SPFTime.Nanoseconds(),
		}
		if p.Scope != nil {
			wp.Scope = p.Scope.String()
		}
		var roots []bdd.Node
		var table []byte
		for r := 0; r < n; r++ {
			pfecs := p.PFECs(topology.RouterID(r))
			table = binary.AppendUvarint(table, uint64(len(pfecs)))
			for _, pf := range pfecs {
				head := uint64(len(pf.Path)) << 2
				if pf.Looped {
					head |= 2
				}
				if pf.Delivered {
					head |= 1
				}
				table = binary.AppendUvarint(table, head)
				for _, h := range pf.Path {
					table = binary.AppendUvarint(table, uint64(h))
				}
				roots = append(roots, pf.Pred)
			}
		}
		wp.PFECs = table
		var buf bytes.Buffer
		if err := p.Sp.M.Write(&buf, roots...); err != nil {
			return nil, fmt.Errorf("analysis: encode pipeline: %w", err)
		}
		wp.BDD = buf.Bytes()
		out = append(out, wp)
	}
	return out, nil
}

// DecodePipelines rebuilds a task's pipelines from the wire form. Each
// pipeline gets its own symbolic space shaped exactly like the
// producer's (same variable layout, node limit, interrupt hook, and
// telemetry from opts), so downstream property queries behave
// identically to pipelines built in-process. Any fault — a malformed
// blob, mismatched counts, a node-limit overflow while re-consing —
// surfaces as an error, never a panic: a corrupt result is a retryable
// worker failure (coord) or a quarantinable record (store).
func DecodePipelines(net *config.Network, opts src.Options, wps []WirePipeline, tel *obs.Telemetry) (pipes []*Pipeline, err error) {
	for _, wp := range wps {
		p, err := decodePipeline(net, newRunSpace(net, opts), wp, tel)
		if err != nil {
			for _, p := range pipes {
				p.Release()
			}
			return nil, err
		}
		pipes = append(pipes, p)
	}
	return pipes, nil
}

// decodePipeline rebuilds one wire pipeline as a query-only pipeline
// over net in sp, whose variable layout must be the producer's. The
// decoded roots are Ref'd only once the whole record has checked out,
// so a rejected record leaves sp's reference counts as they were.
func decodePipeline(net *config.Network, sp *symbol.Space, wp WirePipeline, tel *obs.Telemetry) (p *Pipeline, err error) {
	// A node-table overflow while re-consing, or an interruption from
	// the space's hook, returns as the error.
	defer resil.Catch("decode", &err)
	n := net.Topology.NumRouters()
	var scope *route.Prefix
	if wp.Scope != "" {
		s, perr := route.ParsePrefix(wp.Scope)
		if perr != nil {
			return nil, fmt.Errorf("analysis: decode pipeline scope: %w", perr)
		}
		scope = &s
	}
	roots, rerr := sp.M.Read(bytes.NewReader(wp.BDD))
	if rerr != nil {
		return nil, fmt.Errorf("analysis: decode pipeline BDDs: %w", rerr)
	}
	// Every PFEC owns one root and every hop takes at least one byte,
	// so both slabs are bounded by what actually arrived.
	slab := make([]spf.PFEC, len(roots))
	hops := make([]topology.RouterID, 0, len(wp.PFECs))
	t := pfecTable{b: wp.PFECs}
	pfecs := make([][]*spf.PFEC, n)
	next := 0
	for r := 0; r < n; r++ {
		count := t.next()
		if t.err != nil {
			return nil, t.err
		}
		if count > uint64(len(roots)-next) {
			return nil, fmt.Errorf("analysis: decode pipeline: router %d has %d PFECs, %d predicates left", r, count, len(roots)-next)
		}
		list := make([]*spf.PFEC, count)
		for i := range list {
			head := t.next()
			if t.err != nil {
				return nil, t.err
			}
			size := head >> 2
			if size == 0 {
				return nil, fmt.Errorf("analysis: decode pipeline: empty PFEC path")
			}
			if size > uint64(len(t.b)) {
				return nil, fmt.Errorf("analysis: decode pipeline: %d-hop path, %d bytes left", size, len(t.b))
			}
			start := len(hops)
			for j := uint64(0); j < size; j++ {
				h := t.next()
				if t.err != nil {
					return nil, t.err
				}
				if h >= uint64(n) {
					return nil, fmt.Errorf("analysis: decode pipeline: router %d out of range", h)
				}
				hops = append(hops, topology.RouterID(h))
			}
			pf := &slab[next]
			*pf = spf.PFEC{Path: hops[start:len(hops):len(hops)], Pred: roots[next],
				Delivered: head&1 != 0, Looped: head&2 != 0}
			list[i] = pf
			next++
		}
		pfecs[r] = list
	}
	if len(t.b) != 0 {
		return nil, fmt.Errorf("analysis: decode pipeline: %d trailing bytes after the PFEC table", len(t.b))
	}
	if next != len(roots) {
		return nil, fmt.Errorf("analysis: decode pipeline: %d predicates for %d PFECs", len(roots), next)
	}
	for _, root := range roots {
		sp.M.Ref(root)
	}
	return NewDecodedPipeline(net, sp, scope, pfecs,
		time.Duration(wp.SRCNanos), time.Duration(wp.SPFNanos), tel), nil
}

// pfecTable walks a packed PFEC table. The first error sticks: later
// reads return 0 and the caller checks err once per field it needs.
type pfecTable struct {
	b   []byte
	err error
}

func (t *pfecTable) next() uint64 {
	if t.err != nil {
		return 0
	}
	v, k := binary.Uvarint(t.b)
	if k <= 0 {
		t.err = errors.New("analysis: decode pipeline: torn or overlong varint in the PFEC table")
		return 0
	}
	t.b = t.b[k:]
	return v
}

// OutcomeToWire / OutcomeFromWire translate PrefixOutcome.
func OutcomeToWire(out PrefixOutcome) WireOutcome {
	return WireOutcome{
		Err:             ErrorToWire(out.Err),
		Quarantined:     out.Quarantined,
		Degraded:        out.Degraded,
		Rungs:           out.Rungs,
		EffectivePruneK: out.EffectivePruneK,
	}
}

// OutcomeFromWire rebuilds a PrefixOutcome for pfx.
func OutcomeFromWire(pfx route.Prefix, wo WireOutcome) PrefixOutcome {
	return PrefixOutcome{
		Prefix:          pfx,
		Err:             wo.Err.ToError(),
		Quarantined:     wo.Quarantined,
		Degraded:        wo.Degraded,
		Rungs:           wo.Rungs,
		EffectivePruneK: wo.EffectivePruneK,
	}
}

// Error kinds crossing the wire. Reconstructed errors satisfy errors.Is
// against the matching sentinel, so exit-code mapping and ladder logic
// behave identically on both sides of a pipe or a store record.
const (
	ErrKindCanceled   = "canceled"
	ErrKindDeadline   = "deadline"
	ErrKindNoConverge = "noconverge"
	ErrKindInternal   = "internal"
	ErrKindNodeLimit  = "nodelimit"
	ErrKindOther      = "other"
)

// WireError is an error flattened for transport: its sentinel kind, the
// pipeline stage it interrupted, and the rendered message.
type WireError struct {
	Kind  string `json:"kind"`
	Stage string `json:"stage,omitempty"`
	Msg   string `json:"msg"`
}

// ErrorToWire flattens err (nil stays nil).
func ErrorToWire(err error) *WireError {
	if err == nil {
		return nil
	}
	kind := ErrKindOther
	switch {
	case errors.Is(err, resil.ErrCanceled):
		kind = ErrKindCanceled
	case errors.Is(err, resil.ErrDeadline):
		kind = ErrKindDeadline
	case errors.Is(err, resil.ErrNoConvergence):
		kind = ErrKindNoConverge
	case errors.Is(err, resil.ErrInternal):
		kind = ErrKindInternal
	case errors.Is(err, bdd.ErrNodeLimit):
		kind = ErrKindNodeLimit
	}
	return &WireError{Kind: kind, Stage: resil.StageOf(err), Msg: err.Error()}
}

// remoteError is a reconstructed error: the original message with the
// sentinel restored underneath so errors.Is keeps working.
type remoteError struct {
	msg  string
	base error
}

func (e *remoteError) Error() string { return e.msg }
func (e *remoteError) Unwrap() error { return e.base }

// ToError reconstructs the error (nil stays nil).
func (we *WireError) ToError() error {
	if we == nil {
		return nil
	}
	var base error
	switch we.Kind {
	case ErrKindCanceled:
		base = resil.ErrCanceled
	case ErrKindDeadline:
		base = resil.ErrDeadline
	case ErrKindNoConverge:
		base = resil.ErrNoConvergence
	case ErrKindInternal:
		base = resil.ErrInternal
	case ErrKindNodeLimit:
		base = bdd.ErrNodeLimit
	}
	err := error(&remoteError{msg: we.Msg, base: base})
	if we.Stage != "" {
		err = &resil.StageError{Stage: we.Stage, Err: err}
	}
	return err
}
