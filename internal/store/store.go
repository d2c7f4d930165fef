// Package store is a crash-safe, content-addressed on-disk cache of
// per-prefix verification results. Keys are hex digests computed by the
// caller (internal/analysis hashes the prefix's config slice, topology
// and options); payloads are opaque bytes (the caller stores
// analysis.CacheRecord JSON, and internal/coord sends the same records
// over its worker pipes). The robustness contract is the design
// center:
//
//   - records are written to a temp file and atomically renamed, so a
//     reader never observes a partial record under a valid key;
//   - every record is framed with a length prefix and a crc64 checksum
//     trailer and verified on read — a corrupt, truncated, or
//     version-mismatched record is quarantined (moved aside, counted,
//     surfaced as a `store.quarantine` flight-recorder event) and
//     reported as a miss, so the caller transparently recomputes;
//   - mutating operations take an owner lock file with stale-lock
//     takeover (dead-pid or age based), making concurrent writers safe;
//     readers never take the lock and are always safe against writers
//     thanks to the atomic rename.
//
// A damaged cache can therefore degrade performance but never
// correctness or availability.
package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"sre/internal/obs"
)

// Layout inside the store directory.
const (
	objectsDir    = "objects"
	quarantineDir = "quarantine"
	lockFile      = "LOCK"
	tmpPrefix     = ".tmp-"
	recordExt     = ".rec"
)

// DefaultLockTTL is the stale-lock takeover age: a lock file older than
// this whose owner cannot be confirmed alive is broken and taken over,
// and an orphan temp file older than this is reaped.
const DefaultLockTTL = 5 * time.Minute

// Options configures a Store.
type Options struct {
	// Telemetry receives store.* counters and the store.quarantine
	// flight-recorder event; nil disables both at zero cost.
	Telemetry *obs.Telemetry
	// Fault injects deterministic disk faults for testing: called with
	// the zero-based index of each Put, its return selects the fault
	// (see the Fault* constants; "" = none). Nil injects nothing.
	Fault FaultFunc
}

// Metrics are the store's operation counters since Open.
type Metrics struct {
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Puts        int64 `json:"puts"`
	PutErrors   int64 `json:"put_errors"`
	Quarantined int64 `json:"quarantined"`
}

// Store is an open result cache. Safe for concurrent use by multiple
// goroutines and, for the on-disk state, multiple processes.
type Store struct {
	dir  string
	opts Options
	tel  *obs.Telemetry

	mu      sync.Mutex
	puts    int // Put index, drives fault injection
	tmpSeq  int
	metrics Metrics
}

// Open opens (creating if needed) the store rooted at dir.
func Open(dir string, opts Options) (*Store, error) {
	for _, sub := range []string{objectsDir, quarantineDir} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: open %s: %w", dir, err)
		}
	}
	return &Store{dir: dir, opts: opts, tel: opts.Telemetry}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Close releases the store handle. The on-disk state needs no
// finalization — every mutation is already durable or rolled back.
func (s *Store) Close() error { return nil }

// Metrics returns a snapshot of the operation counters.
func (s *Store) Metrics() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.metrics
}

// validKey reports whether key is a well-formed content address (hex,
// long enough to fan out). Rejecting anything else keeps hostile keys
// from escaping the objects directory.
func validKey(key string) bool {
	if len(key) < 8 || len(key) > 128 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
}

func (s *Store) objectPath(key string) string {
	return filepath.Join(s.dir, objectsDir, key[:2], key+recordExt)
}

// Get returns the payload stored under key, or ok=false on a miss. A
// record that fails verification (empty, truncated, bit-flipped,
// version skew, oversized, trailing bytes) is quarantined and reported
// as a miss — the caller recomputes and the cache heals itself.
func (s *Store) Get(key string) ([]byte, bool) {
	if !validKey(key) {
		return nil, false
	}
	payload, err := readFileRecord(s.objectPath(key))
	if err != nil {
		var unopened *fs.PathError
		if !errors.As(err, &unopened) {
			s.Quarantine(key, err.Error())
		}
		s.count(func(m *Metrics) { m.Misses++ }, "store.misses")
		return nil, false
	}
	s.count(func(m *Metrics) { m.Hits++ }, "store.hits")
	return payload, true
}

// Put stores payload under key, atomically: the framed record is
// written (and fsynced) to a temp file in the same directory, then
// renamed into place. Concurrent writers of the same key are benign —
// content addressing means they write identical records and rename is
// atomic — but the owner lock still serializes them so a half-written
// temp file is never observable as racy directory churn. Put is
// best-effort from the caller's point of view: an error means the
// result was not cached, never that the run failed.
func (s *Store) Put(key string, payload []byte) error {
	if !validKey(key) {
		return fmt.Errorf("store: invalid key %q", key)
	}
	if int64(len(payload)) > DefaultMaxRecordBytes {
		s.count(func(m *Metrics) { m.PutErrors++ }, "store.put_errors")
		return &SizeError{Declared: int64(len(payload)), Max: DefaultMaxRecordBytes}
	}
	s.mu.Lock()
	fault := ""
	if s.opts.Fault != nil {
		fault = s.opts.Fault(s.puts)
	}
	s.puts++
	s.tmpSeq++
	tmpName := fmt.Sprintf("%s%d-%d", tmpPrefix, os.Getpid(), s.tmpSeq)
	s.mu.Unlock()

	err := s.withLock(func() error {
		return s.putLocked(key, payload, tmpName, fault)
	})
	if err != nil {
		s.count(func(m *Metrics) { m.PutErrors++ }, "store.put_errors")
		return err
	}
	s.count(func(m *Metrics) { m.Puts++ }, "store.puts")
	return nil
}

func (s *Store) putLocked(key string, payload []byte, tmpName, fault string) error {
	rec := EncodeRecord(payload)
	switch fault {
	case FaultTorn:
		// A persisted torn write: the record survives a crash cut off
		// mid-payload. Rename it into place so the next reader sees it.
		rec = rec[:recordHeaderLen+len(payload)/2]
	case FaultFlip:
		rec = append([]byte(nil), rec...)
		rec[recordHeaderLen+len(payload)/2] ^= 0x40
	case FaultENOSPC:
		return fmt.Errorf("store: injected fault: %w", errNoSpace)
	}
	objDir := filepath.Join(s.dir, objectsDir, key[:2])
	if err := os.MkdirAll(objDir, 0o755); err != nil {
		return err
	}
	tmp := filepath.Join(objDir, tmpName)
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(rec)
	if serr := f.Sync(); werr == nil {
		werr = serr
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return werr
	}
	switch fault {
	case FaultKillWrite:
		// SIGKILL between temp-write and rename: the crash-mid-write
		// scenario. The orphan temp file must never surface as a hit.
		killSelf()
	case FaultRename:
		// A failed rename leaves the fsynced temp file orphaned; GC and
		// Verify clean such orphans up.
		return fmt.Errorf("store: injected fault: rename %s: permission denied", tmpName)
	}
	if err := os.Rename(tmp, s.objectPath(key)); err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(objDir)
	return nil
}

// CountPutError counts a record its producer could not build as a
// failed Put: nothing was written, and nothing needs to be.
func (s *Store) CountPutError() {
	s.count(func(m *Metrics) { m.PutErrors++ }, "store.put_errors")
}

// Quarantine moves the record under key aside into the quarantine
// directory (tagged with a nanosecond suffix so repeated offenders
// never collide), counts it, and records a store.quarantine flight
// event. Used internally on verification failures and by callers whose
// payload-level decode failed (a checksum-valid record whose contents
// are semantically unusable).
func (s *Store) Quarantine(key, reason string) {
	if !validKey(key) {
		return
	}
	dst := filepath.Join(s.dir, quarantineDir,
		fmt.Sprintf("%s-%d%s", key, time.Now().UnixNano(), recordExt))
	err := s.withLock(func() error {
		return os.Rename(s.objectPath(key), dst)
	})
	if err != nil {
		// The record may already be gone (a concurrent reader got there
		// first); removal is the fallback so a corrupt record never
		// serves twice.
		os.Remove(s.objectPath(key))
	}
	s.count(func(m *Metrics) { m.Quarantined++ }, "store.quarantined")
	if s.tel.Recording() {
		s.tel.Record(time.Time{}, obs.TraceEvent{
			Stage: "store.quarantine", Prefix: key[:8], Outcome: reason})
	}
}

func (s *Store) count(f func(*Metrics), counter string) {
	s.mu.Lock()
	f(&s.metrics)
	s.mu.Unlock()
	s.tel.Counter(counter).Inc()
}

// syncDir fsyncs a directory so a just-renamed entry survives power
// loss; best-effort (not all platforms support it).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

// lockInfo is the JSON body of the owner lock file.
type lockInfo struct {
	PID  int       `json:"pid"`
	Time time.Time `json:"time"`
}

// withLock runs f holding the store's owner lock. Acquisition retries
// briefly, then attempts stale-lock takeover: a lock whose owner PID is
// dead, or older than DefaultLockTTL, is broken. In-process contention
// is serialized by a mutex first so the on-disk protocol only
// arbitrates between processes.
func (s *Store) withLock(f func() error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	path := filepath.Join(s.dir, lockFile)
	deadline := time.Now().Add(2 * time.Second)
	for {
		lf, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if err == nil {
			body, _ := json.Marshal(lockInfo{PID: os.Getpid(), Time: time.Now()})
			_, _ = lf.Write(body)
			_ = lf.Close()
			ferr := f()
			_ = os.Remove(path)
			return ferr
		}
		if !os.IsExist(err) {
			return fmt.Errorf("store: acquiring lock: %w", err)
		}
		if s.lockStale(path) {
			_ = os.Remove(path)
			continue
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("store: lock %s held by another writer", path)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// lockStale reports whether the lock file at path can be broken: its
// recorded owner is provably dead, or it is older than DefaultLockTTL
// (crashed owner on a platform where liveness cannot be probed, or an
// unreadable lock body).
func (s *Store) lockStale(path string) bool {
	fi, err := os.Stat(path)
	if err != nil {
		return false // vanished: the holder released it, retry Open
	}
	if data, rerr := os.ReadFile(path); rerr == nil {
		var li lockInfo
		if json.Unmarshal(data, &li) == nil && li.PID > 0 {
			if alive, known := pidAlive(li.PID); known {
				if li.PID == os.Getpid() {
					// Our own PID with the in-process mutex held means a
					// previous run of this process died holding it (PID
					// reuse) — stale either way.
					return true
				}
				return !alive
			}
		}
	}
	return time.Since(fi.ModTime()) > DefaultLockTTL
}

// readFileRecord reads and verifies the record in the file at path,
// returning its payload in a buffer sized from the file's length. Only
// a failed open or stat is a *fs.PathError; every other failure is the
// file's own (Get and fsck quarantine it).
func readFileRecord(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	payload, err := readRecord(f, DefaultMaxRecordBytes, info.Size())
	if err == io.EOF {
		return nil, &CorruptError{Reason: "empty file"}
	}
	if err != nil {
		return nil, err
	}
	// Trailing garbage after a valid frame is corruption too: the file
	// is not exactly one record.
	var one [1]byte
	if n, _ := f.Read(one[:]); n != 0 {
		return nil, &CorruptError{Reason: "trailing bytes after record"}
	}
	return payload, nil
}
