package analysis

// Hooks for multi-process verification (internal/coord): a worker
// subprocess runs one prefix through exactly the chain an in-process
// run would — RunPrefixTask — and ships the resulting pipelines over a
// pipe; the coordinator rebuilds them as decoded pipelines (query-only:
// no engine) and hands them to the Executor it dispatches for, which
// assembles the Partitioned like any other run's.

import (
	"time"

	"sre/internal/config"
	"sre/internal/obs"
	"sre/internal/route"
	"sre/internal/spf"
	"sre/internal/src"
	"sre/internal/symbol"
)

// RunPrefixTask is Executor.RunTask without a cache: the unit of work
// `sre worker` subprocesses run once per task frame. It returns the
// prefix's pipelines (nil when the ladder was exhausted) and outcome; a
// non-nil error means the attempt aborted (cancellation, deadline,
// non-recoverable failure) and any partial pipelines were released.
func RunPrefixTask(net *config.Network, opts src.Options, pfx route.Prefix, ladder bool, lad LadderOptions) ([]*Pipeline, PrefixOutcome, error) {
	x := Executor{Net: net, Opts: opts, Ladder: ladder, Lad: lad}
	return x.RunTask(pfx)
}

// NewRunSpace allocates the symbolic space Run and RunScoped build
// pipelines over — exported so a coordinator can decode a worker's
// serialized BDDs into a space with the identical variable layout.
func NewRunSpace(net *config.Network, opts src.Options) *symbol.Space {
	return newRunSpace(net, opts)
}

// NewDecodedPipeline assembles a query-only Pipeline from parts decoded
// off the wire: the PFEC predicates must already be referenced in sp's
// manager (decoded roots are Ref'd by the codec). The pipeline has no
// engine — every pair query (Query and its reductions) needs only Net,
// Sp, the PFECs, and Scope — and, like a pipeline built in-process,
// holds no reference but the PFECs'.
func NewDecodedPipeline(net *config.Network, sp *symbol.Space, scope *route.Prefix, pfecs [][]*spf.PFEC, srcTime, spfTime time.Duration, tel *obs.Telemetry) *Pipeline {
	p := &Pipeline{Net: net, Sp: sp, Tel: tel, Scope: scope, pfecs: pfecs, SRCTime: srcTime, SPFTime: spfTime}
	p.prefixes, p.origins = net.PrefixOrigins()
	return p
}
