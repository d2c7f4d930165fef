package sre

import (
	"sre/internal/analysis"
	"sre/internal/store"
)

// Store is a crash-safe, content-addressed on-disk cache of per-prefix
// verification results. Open one with OpenStore, pass it via
// Options.Store, and runs — in-process, parallel, or multi-process —
// consult it before computing each prefix and publish what they
// compute. The prefix decomposition (§7.2) keys each record by
// everything that can influence its result (the config slice the prefix
// can observe, the topology, the verification options), so a warm cache
// replays results identical to a cold run at any parallelism or worker
// count.
//
// The store is safe against crashes and corruption by construction:
// records are checksummed, published via temp-file + atomic rename
// under an owner lock (with stale-lock takeover), and verified on every
// read — a torn, bit-flipped, or truncated record is quarantined and
// transparently recomputed, never trusted. Multiple processes may share
// one directory; readers never block.
type Store struct {
	s *store.Store
}

// StoreOptions configures OpenStore. A record's payload is bounded at
// 1 GiB (a larger declared length is corruption and is rejected on
// read), and a writer steals an owner lock older than 5 minutes (locks
// of provably dead processes are taken over immediately).
type StoreOptions struct {
	// Telemetry, when non-nil, receives the store's counters
	// (store.hits, store.misses, store.puts, store.put_errors,
	// store.quarantined) and quarantine flight-recorder events.
	Telemetry *Telemetry
}

// StoreMetrics counts a store's cache traffic and corruption handling;
// Quarantined > 0 means corrupt records were detected, set aside, and
// recomputed.
type StoreMetrics = store.Metrics

// OpenStore opens (creating if needed) a result store rooted at dir.
func OpenStore(dir string, opts StoreOptions) (*Store, error) {
	s, err := store.Open(dir, store.Options{Telemetry: opts.Telemetry})
	if err != nil {
		return nil, err
	}
	return &Store{s: s}, nil
}

// Dir returns the store's root directory.
func (st *Store) Dir() string { return st.s.Dir() }

// Close releases the store handle. Records already published stay on
// disk; the store holds no long-lived file locks between operations.
func (st *Store) Close() error { return st.s.Close() }

// Metrics returns the store's traffic counters for this process.
func (st *Store) Metrics() StoreMetrics { return st.s.Metrics() }

// StoreStats describes what is on disk under a store directory.
type StoreStats = store.Stats

// Stats scans the store directory and reports record and quarantine
// occupancy.
func (st *Store) Stats() (StoreStats, error) { return st.s.Stats() }

// StoreFsckReport is the result of a full store verification pass.
type StoreFsckReport = store.FsckReport

// StoreFsckFailure details one record quarantined by Verify: its key,
// the file it lived at, and the validation error.
type StoreFsckFailure = store.FsckFailure

// Verify re-reads and re-checksums every record (a full fsck),
// quarantining any that fail and reaping stale temp files.
func (st *Store) Verify() (StoreFsckReport, error) { return st.s.Verify() }

// StoreGCOptions bounds a garbage-collection pass.
type StoreGCOptions = store.GCOptions

// StoreGCReport is the result of a garbage-collection pass.
type StoreGCReport = store.GCReport

// GC evicts records past the age and size budgets (oldest first) and
// sweeps quarantined files older than the age budget.
func (st *Store) GC(opts StoreGCOptions) (StoreGCReport, error) { return st.s.GC(opts) }

// cache adapts the store to the analysis layer (nil-safe).
func (st *Store) cache() *analysis.ResultCache {
	if st == nil {
		return nil
	}
	return &analysis.ResultCache{S: st.s}
}
