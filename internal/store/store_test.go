package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sre/internal/obs"
)

const testKey = "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"

func openTest(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := openTest(t, Options{})
	payload := []byte(`{"hello":"world"}`)
	if err := s.Put(testKey, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(testKey)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; want payload back", got, ok)
	}
	if _, ok := s.Get(strings.Repeat("ee", 32)); ok {
		t.Fatal("unwritten key should miss")
	}
	m := s.Metrics()
	if m.Hits != 1 || m.Misses != 1 || m.Puts != 1 || m.Quarantined != 0 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestInvalidKeysRejected(t *testing.T) {
	s := openTest(t, Options{})
	for _, key := range []string{"", "short", "../../../../etc/passwd", strings.Repeat("Z", 64), testKey + "\x00"} {
		if err := s.Put(key, []byte("x")); err == nil {
			t.Errorf("Put(%q) should fail", key)
		}
		if _, ok := s.Get(key); ok {
			t.Errorf("Get(%q) should miss", key)
		}
	}
}

// corruptors damage an on-disk record in every way the reader must
// survive; each must turn the record into a quarantined miss.
var corruptors = map[string]func(t *testing.T, path string){
	"truncated": func(t *testing.T, path string) {
		data := readAll(t, path)
		writeAll(t, path, data[:len(data)/2])
	},
	"bit-flip": func(t *testing.T, path string) {
		data := readAll(t, path)
		data[len(data)/2] ^= 0x01
		writeAll(t, path, data)
	},
	"bad-magic": func(t *testing.T, path string) {
		data := readAll(t, path)
		copy(data, "NOPE")
		writeAll(t, path, data)
	},
	"version-skew": func(t *testing.T, path string) {
		data := readAll(t, path)
		data[4] = 0xFF // version field
		writeAll(t, path, data)
	},
	"length-bomb": func(t *testing.T, path string) {
		data := readAll(t, path)
		for i := 8; i < 16; i++ {
			data[i] = 0xFF // declared length 2^64-1
		}
		writeAll(t, path, data)
	},
	"empty-file": func(t *testing.T, path string) {
		writeAll(t, path, nil)
	},
	"trailing-garbage": func(t *testing.T, path string) {
		data := readAll(t, path)
		writeAll(t, path, append(data, 0xAB))
	},
}

func TestCorruptRecordQuarantined(t *testing.T) {
	for name, corrupt := range corruptors {
		t.Run(name, func(t *testing.T) {
			tel := obs.New()
			rec := obs.NewRecorder(0)
			tel.SetRecorder(rec)
			s := openTest(t, Options{Telemetry: tel})
			if err := s.Put(testKey, []byte("payload-payload-payload")); err != nil {
				t.Fatal(err)
			}
			path := s.objectPath(testKey)
			corrupt(t, path)
			if _, ok := s.Get(testKey); ok {
				t.Fatal("corrupt record served as a hit")
			}
			if m := s.Metrics(); m.Quarantined != 1 || m.Misses != 1 {
				t.Fatalf("metrics = %+v, want 1 quarantined + 1 miss", m)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatal("corrupt record still in objects tree")
			}
			q, err := os.ReadDir(filepath.Join(s.dir, quarantineDir))
			if err != nil || len(q) != 1 {
				t.Fatalf("quarantine dir has %d entries, want 1 (err %v)", len(q), err)
			}
			// The record heals: a re-put serves again.
			if err := s.Put(testKey, []byte("recomputed")); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get(testKey); !ok || string(got) != "recomputed" {
				t.Fatalf("re-put Get = %q, %v", got, ok)
			}
			events := rec.Events()
			found := false
			for _, e := range events {
				if e.Stage == "store.quarantine" {
					found = true
					// The reason is a typed store error, never a bare io.EOF.
					if !strings.HasPrefix(e.Outcome, "store: ") {
						t.Errorf("quarantine reason %q is not a store error", e.Outcome)
					}
				}
			}
			if !found {
				t.Fatal("no store.quarantine flight event recorded")
			}
		})
	}
}

// TestMaxRecordBytesTypedError: a record declaring more payload than
// the reader's bound is a typed *SizeError, and a stored record past
// DefaultMaxRecordBytes is quarantined, never allocated.
func TestMaxRecordBytesTypedError(t *testing.T) {
	rec := EncodeRecord(bytes.Repeat([]byte("x"), 65))
	var se *SizeError
	if _, err := ReadRecord(bytes.NewReader(rec), 64); !errors.As(err, &se) || se.Declared != 65 || se.Max != 64 {
		t.Fatalf("ReadRecord past its bound = %v, want *SizeError{Declared:65, Max:64}", err)
	}
	if _, err := ReadRecord(bytes.NewReader(rec), 65); err != nil {
		t.Fatalf("ReadRecord at its bound = %v", err)
	}

	s := openTest(t, Options{})
	if err := s.Put(testKey, []byte("x")); err != nil {
		t.Fatal(err)
	}
	path := s.objectPath(testKey)
	data := readAll(t, path)
	binary.LittleEndian.PutUint64(data[8:16], DefaultMaxRecordBytes+1)
	writeAll(t, path, data)
	if _, err := readFileRecord(path); !errors.As(err, &se) || se.Max != DefaultMaxRecordBytes {
		t.Fatalf("oversized stored record = %v, want *SizeError{Max:DefaultMaxRecordBytes}", err)
	}
	if _, ok := s.Get(testKey); ok {
		t.Fatal("oversized record served")
	}
	if m := s.Metrics(); m.Quarantined != 1 {
		t.Fatalf("metrics = %+v, want 1 quarantined", m)
	}
}

// TestDeclaredLengthPastFileIsCorrupt: a stored record sizes its buffer
// from the file, so a declared payload longer than the file holds —
// though within DefaultMaxRecordBytes — is corrupt before anything is
// allocated for it, and the record is quarantined.
func TestDeclaredLengthPastFileIsCorrupt(t *testing.T) {
	s := openTest(t, Options{})
	if err := s.Put(testKey, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	path := s.objectPath(testKey)
	data := readAll(t, path)
	binary.LittleEndian.PutUint64(data[8:16], 8) // one byte more than the file holds
	writeAll(t, path, data)
	var ce *CorruptError
	if _, err := readFileRecord(path); !errors.As(err, &ce) {
		t.Fatalf("declared length past the file = %v, want *CorruptError", err)
	}
	if _, ok := s.Get(testKey); ok {
		t.Fatal("record with a declared length past its file served")
	}
	if m := s.Metrics(); m.Quarantined != 1 {
		t.Fatalf("metrics = %+v, want 1 quarantined", m)
	}
}

func TestDiskFaults(t *testing.T) {
	t.Run("torn-and-flip", func(t *testing.T) {
		faults := map[int]string{0: FaultTorn, 1: FaultFlip}
		s := openTest(t, Options{Fault: func(i int) string { return faults[i] }})
		tornKey := strings.Repeat("aa", 32)
		flipKey := strings.Repeat("bb", 32)
		cleanKey := strings.Repeat("cc", 32)
		for _, k := range []string{tornKey, flipKey, cleanKey} {
			if err := s.Put(k, []byte("some payload bytes that are long enough to tear")); err != nil {
				t.Fatalf("Put(%s) = %v", k[:4], err)
			}
		}
		if _, ok := s.Get(tornKey); ok {
			t.Fatal("torn record served")
		}
		if _, ok := s.Get(flipKey); ok {
			t.Fatal("bit-flipped record served")
		}
		if _, ok := s.Get(cleanKey); !ok {
			t.Fatal("clean record missed")
		}
		if m := s.Metrics(); m.Quarantined != 2 {
			t.Fatalf("metrics = %+v, want 2 quarantined", m)
		}
	})
	t.Run("enospc-and-rename", func(t *testing.T) {
		faults := map[int]string{0: FaultENOSPC, 1: FaultRename}
		s := openTest(t, Options{Fault: func(i int) string { return faults[i] }})
		if err := s.Put(testKey, []byte("x")); err == nil {
			t.Fatal("ENOSPC Put should fail")
		}
		if err := s.Put(testKey, []byte("x")); err == nil {
			t.Fatal("failed-rename Put should fail")
		}
		if _, ok := s.Get(testKey); ok {
			t.Fatal("nothing should have landed")
		}
		if m := s.Metrics(); m.PutErrors != 2 {
			t.Fatalf("metrics = %+v, want 2 put errors", m)
		}
		// The failed rename left an fsynced orphan temp; fsck reaps it
		// once it is older than the lock TTL.
		_, temps, err := s.walkObjects()
		if err != nil || len(temps) != 1 {
			t.Fatalf("temps = %+v (err %v), want 1 temp file", temps, err)
		}
		if rep, err := s.Verify(); err != nil || rep.TempsReaped != 0 {
			t.Fatalf("fsck = %+v (err %v), reaped a fresh temp", rep, err)
		}
		old := time.Now().Add(-DefaultLockTTL - time.Minute)
		if err := os.Chtimes(temps[0].path, old, old); err != nil {
			t.Fatal(err)
		}
		rep, err := s.Verify()
		if err != nil || rep.TempsReaped != 1 {
			t.Fatalf("fsck = %+v (err %v), want 1 temp reaped", rep, err)
		}
	})
}

func TestStaleLockTakeover(t *testing.T) {
	s := openTest(t, Options{})
	lock := filepath.Join(s.dir, lockFile)

	// A lock held by a provably dead PID is broken immediately.
	body, _ := json.Marshal(lockInfo{PID: 1 << 30, Time: time.Now()})
	if err := os.WriteFile(lock, body, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testKey, []byte("x")); err != nil {
		t.Fatalf("Put under dead-pid lock = %v", err)
	}

	// A garbage lock file falls back to the age check: young blocks,
	// older than DefaultLockTTL is taken over.
	if err := os.WriteFile(lock, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := s.Put(testKey, []byte("y")); err == nil {
		t.Fatal("Put under fresh unreadable lock should time out")
	} else if time.Since(start) < time.Second {
		t.Fatalf("lock timeout returned too fast: %v", time.Since(start))
	}
	old := time.Now().Add(-DefaultLockTTL - time.Minute)
	if err := os.Chtimes(lock, old, old); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testKey, []byte("z")); err != nil {
		t.Fatalf("Put under stale lock = %v", err)
	}
	if got, ok := s.Get(testKey); !ok || string(got) != "z" {
		t.Fatalf("Get = %q, %v", got, ok)
	}
}

func TestConcurrentPutsSameKey(t *testing.T) {
	s := openTest(t, Options{})
	payload := bytes.Repeat([]byte("deterministic"), 100)
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() { done <- s.Put(testKey, payload) }()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	got, ok := s.Get(testKey)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatal("concurrent puts corrupted the record")
	}
}

func TestGCBudgets(t *testing.T) {
	s := openTest(t, Options{})
	keys := []string{strings.Repeat("aa", 32), strings.Repeat("bb", 32), strings.Repeat("cc", 32)}
	for i, k := range keys {
		if err := s.Put(k, bytes.Repeat([]byte("x"), 100)); err != nil {
			t.Fatal(err)
		}
		// Stagger mtimes so oldest-first eviction is deterministic.
		mod := time.Now().Add(time.Duration(i-len(keys)) * time.Hour)
		if err := os.Chtimes(s.objectPath(k), mod, mod); err != nil {
			t.Fatal(err)
		}
	}
	st, _ := s.Stats()
	perRecord := st.Bytes / 3
	rep, err := s.GC(GCOptions{MaxBytes: 2 * perRecord})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Evicted != 1 || rep.Remaining != 2 {
		t.Fatalf("size GC = %+v, want 1 evicted / 2 remaining", rep)
	}
	if _, ok := s.Get(keys[0]); ok {
		t.Fatal("oldest record should have been evicted")
	}
	if _, ok := s.Get(keys[2]); !ok {
		t.Fatal("newest record should survive")
	}
	rep, err = s.GC(GCOptions{MaxAge: 90 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Evicted != 1 || rep.Remaining != 1 {
		t.Fatalf("age GC = %+v, want 1 evicted / 1 remaining", rep)
	}
}

func TestVerifyCleanStore(t *testing.T) {
	s := openTest(t, Options{})
	for _, k := range []string{strings.Repeat("aa", 32), strings.Repeat("bb", 32)} {
		if err := s.Put(k, []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := s.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checked != 2 || rep.OK != 2 || rep.Quarantined != 0 {
		t.Fatalf("fsck = %+v", rep)
	}
}

func readAll(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func writeAll(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}
