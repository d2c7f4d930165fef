package store

// Maintenance: Stats (cheap inventory), Verify (full fsck that
// re-checksums every record and quarantines what fails), and GC
// (size/age budgets plus orphan-temp cleanup). All three walk only the
// store's own directories and never touch foreign files.

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Stats is a cheap inventory of the store (no record is opened).
type Stats struct {
	Records          int   `json:"records"`
	Bytes            int64 `json:"bytes"`
	QuarantinedFiles int   `json:"quarantined_files"`
	QuarantinedBytes int64 `json:"quarantined_bytes"`
	TempFiles        int   `json:"temp_files"`
}

// FsckReport summarizes one Verify pass.
type FsckReport struct {
	Checked     int `json:"checked"`
	OK          int `json:"ok"`
	Quarantined int `json:"quarantined"`
	TempsReaped int `json:"temps_reaped"`
	// Failures details each quarantined record: one entry per failure,
	// in path order.
	Failures []FsckFailure `json:"failures,omitempty"`
}

// FsckFailure is one record a Verify pass quarantined.
type FsckFailure struct {
	// Key is the record's content-address key (its filename stem).
	Key string `json:"key"`
	// Path is the record file the failure was found at (its location
	// before quarantine moved it).
	Path string `json:"path"`
	// Reason is the validation error: a checksum mismatch, a size-cap
	// violation, or a structural decode failure.
	Reason string `json:"reason"`
}

// GCOptions bounds a GC pass. Zero values leave that axis unbounded.
type GCOptions struct {
	// MaxBytes evicts oldest-first until the objects tree fits.
	MaxBytes int64
	// MaxAge evicts records (and quarantined files) older than this.
	MaxAge time.Duration
}

// GCReport summarizes one GC pass.
type GCReport struct {
	Evicted         int   `json:"evicted"`
	EvictedBytes    int64 `json:"evicted_bytes"`
	TempsReaped     int   `json:"temps_reaped"`
	QuarantineSwept int   `json:"quarantine_swept"`
	Remaining       int   `json:"remaining"`
	RemainingBytes  int64 `json:"remaining_bytes"`
}

type entry struct {
	path string
	size int64
	mod  time.Time
}

// walkObjects lists record files and orphan temp files under objects/.
func (s *Store) walkObjects() (recs, temps []entry, err error) {
	root := filepath.Join(s.dir, objectsDir)
	err = filepath.Walk(root, func(path string, fi os.FileInfo, werr error) error {
		if werr != nil || fi.IsDir() {
			return nil // a vanished file mid-walk is not an error
		}
		e := entry{path: path, size: fi.Size(), mod: fi.ModTime()}
		switch {
		case strings.HasPrefix(fi.Name(), tmpPrefix):
			temps = append(temps, e)
		case strings.HasSuffix(fi.Name(), recordExt):
			recs = append(recs, e)
		}
		return nil
	})
	sort.Slice(recs, func(i, j int) bool { return recs[i].path < recs[j].path })
	return recs, temps, err
}

// Stats inventories the store.
func (s *Store) Stats() (Stats, error) {
	var st Stats
	recs, temps, err := s.walkObjects()
	if err != nil {
		return st, err
	}
	st.Records = len(recs)
	st.TempFiles = len(temps)
	for _, e := range recs {
		st.Bytes += e.size
	}
	qdir := filepath.Join(s.dir, quarantineDir)
	if ents, qerr := os.ReadDir(qdir); qerr == nil {
		for _, de := range ents {
			if fi, ferr := de.Info(); ferr == nil && !fi.IsDir() {
				st.QuarantinedFiles++
				st.QuarantinedBytes += fi.Size()
			}
		}
	}
	return st, nil
}

// Verify is a full fsck: every record is re-read and re-checksummed;
// failures are quarantined exactly as a Get would, and orphan temp
// files older than the lock TTL (a crashed writer's leftovers, never a
// write in flight) are reaped.
func (s *Store) Verify() (FsckReport, error) {
	var rep FsckReport
	recs, temps, err := s.walkObjects()
	if err != nil {
		return rep, err
	}
	for _, e := range recs {
		rep.Checked++
		if _, rerr := readFileRecord(e.path); rerr != nil {
			key := strings.TrimSuffix(filepath.Base(e.path), recordExt)
			s.Quarantine(key, rerr.Error())
			rep.Quarantined++
			rep.Failures = append(rep.Failures,
				FsckFailure{Key: key, Path: e.path, Reason: rerr.Error()})
			continue
		}
		rep.OK++
	}
	for _, e := range temps {
		if time.Since(e.mod) > DefaultLockTTL {
			if os.Remove(e.path) == nil {
				rep.TempsReaped++
			}
		}
	}
	return rep, nil
}

// GC applies the size/age budgets: expired records first, then
// oldest-first eviction until the objects tree fits MaxBytes. Orphan
// temps past the lock TTL and quarantined files past MaxAge are swept
// in the same pass.
func (s *Store) GC(opts GCOptions) (GCReport, error) {
	var rep GCReport
	err := s.withLock(func() error {
		recs, temps, werr := s.walkObjects()
		if werr != nil {
			return werr
		}
		var total int64
		for _, e := range recs {
			total += e.size
		}
		evict := func(e entry) {
			if os.Remove(e.path) == nil {
				rep.Evicted++
				rep.EvictedBytes += e.size
				total -= e.size
			}
		}
		live := recs[:0]
		for _, e := range recs {
			if opts.MaxAge > 0 && time.Since(e.mod) > opts.MaxAge {
				evict(e)
				continue
			}
			live = append(live, e)
		}
		if opts.MaxBytes > 0 && total > opts.MaxBytes {
			sort.Slice(live, func(i, j int) bool { return live[i].mod.Before(live[j].mod) })
			for _, e := range live {
				if total <= opts.MaxBytes {
					break
				}
				evict(e)
			}
		}
		for _, e := range temps {
			if time.Since(e.mod) > DefaultLockTTL {
				if os.Remove(e.path) == nil {
					rep.TempsReaped++
				}
			}
		}
		if opts.MaxAge > 0 {
			qdir := filepath.Join(s.dir, quarantineDir)
			if ents, qerr := os.ReadDir(qdir); qerr == nil {
				for _, de := range ents {
					fi, ferr := de.Info()
					if ferr != nil || fi.IsDir() {
						continue
					}
					if time.Since(fi.ModTime()) > opts.MaxAge {
						if os.Remove(filepath.Join(qdir, de.Name())) == nil {
							rep.QuarantineSwept++
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		return rep, err
	}
	st, serr := s.Stats()
	if serr == nil {
		rep.Remaining, rep.RemainingBytes = st.Records, st.Bytes
	}
	return rep, nil
}
