package coord

// The wire decoder shares the config parser's totality contract: any
// byte stream either decodes into frames or returns an error — never a
// panic, never an unbounded allocation. The coordinator feeds it
// subprocess stdout, which a crashing worker can truncate at any byte
// and a corrupting one can fill with garbage.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"sre/internal/analysis"
	"sre/internal/store"
)

// frameBytes encodes a frame into its wire form for seeding.
func frameBytes(t testFatalf, f *frame) []byte {
	var buf bytes.Buffer
	if err := (&frameWriter{w: &buf}).write(f); err != nil {
		t.Fatalf("encoding seed frame: %v", err)
	}
	return buf.Bytes()
}

type testFatalf interface{ Fatalf(string, ...any) }

// resultFrame is a result frame for task 3 — the digit the checksum
// test flips.
func resultFrame() *frame {
	return &frame{Type: frameResult, Result: &taskResult{Seq: 3,
		CacheRecord: analysis.CacheRecord{Prefix: "10.0.0.0/8"}}}
}

// FuzzDecodeFrame fuzzes readFrame with torn records, oversized length
// headers, and payloads that are not frames. The decoder must be total
// (error, never panic), and any frame it does accept must re-encode.
func FuzzDecodeFrame(f *testing.F) {
	// Well-formed frames of every type.
	f.Add(frameBytes(f, &frame{Type: frameHello, Hello: &helloMsg{PID: 42}}))
	f.Add(frameBytes(f, &frame{Type: frameHeartbeat}))
	f.Add(frameBytes(f, &frame{Type: frameShutdown}))
	f.Add(frameBytes(f, &frame{Type: frameTask, Task: &taskMsg{Seq: 1, Attempt: 2, Prefix: "10.0.0.0/8"}}))
	f.Add(frameBytes(f, &frame{Type: frameError, Err: &analysis.WireError{Kind: analysis.ErrKindInternal, Stage: "spf", Msg: "boom"}}))
	f.Add(frameBytes(f, resultFrame()))
	// Two frames back to back: stream decoding.
	f.Add(append(frameBytes(f, &frame{Type: frameHeartbeat}), frameBytes(f, &frame{Type: frameShutdown})...))
	// A torn record: the stream ends inside the header.
	f.Add(frameBytes(f, &frame{Type: frameHeartbeat})[:5])
	// The corrupt fault's bytes: a sound record around a non-frame.
	f.Add(store.EncodeRecord(corruptPayload))
	// Records declaring a payload at and over the cap, with nothing
	// behind them.
	for _, n := range []uint64{store.DefaultMaxRecordBytes, store.DefaultMaxRecordBytes + 1} {
		hdr := frameBytes(f, &frame{Type: frameHeartbeat})[:16]
		binary.LittleEndian.PutUint64(hdr[8:], n)
		f.Add(hdr)
	}
	// A result frame with one payload bit flipped: the checksum rejects
	// it whatever the flip did to the JSON.
	flipped := frameBytes(f, resultFrame())
	flipped[len(flipped)/2] ^= 0x04
	f.Add(flipped)
	// Empty input, bare junk.
	f.Add([]byte{})
	f.Add([]byte("not a frame at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			fr, err := readFrame(r)
			if err != nil {
				if fr != nil {
					t.Fatalf("readFrame returned both a frame and error %v", err)
				}
				return
			}
			if fr.Type == "" {
				t.Fatal("readFrame accepted a frame without a type")
			}
			// An accepted frame must survive re-encoding and re-decoding.
			var buf bytes.Buffer
			if err := (&frameWriter{w: &buf}).write(fr); err != nil {
				t.Fatalf("re-encoding accepted frame: %v", err)
			}
			if _, err := readFrame(&buf); err != nil {
				t.Fatalf("re-decoding re-encoded frame: %v", err)
			}
		}
	})
}

// TestReadFrameTornStream pins the torn-frame error class: a stream
// that ends at a frame boundary is io.EOF (a worker's clean exit), and
// one cut anywhere inside a frame is a typed store error, so the
// coordinator attributes it as a crash, not a protocol bug.
func TestReadFrameTornStream(t *testing.T) {
	whole := frameBytes(t, &frame{Type: frameTask, Task: &taskMsg{Seq: 7, Prefix: "10.0.0.0/8"}})
	for cut := 0; cut < len(whole); cut++ {
		_, err := readFrame(bytes.NewReader(whole[:cut]))
		var corrupt *store.CorruptError
		switch {
		case cut == 0:
			if err != io.EOF {
				t.Fatalf("cut at 0: err = %v, want io.EOF", err)
			}
		case !errors.As(err, &corrupt):
			t.Fatalf("cut at %d: err = %v, want a *store.CorruptError", cut, err)
		}
	}
	if f, err := readFrame(bytes.NewReader(whole)); err != nil || f.Task == nil || f.Task.Seq != 7 {
		t.Fatalf("whole frame: f=%+v err=%v", f, err)
	}
}

// TestFrameChecksumCatchesValidJSON flips one bit that turns a result
// frame for task 3 into a perfectly valid one for task 7: only a
// checksum over the frame can tell, and the frame must be rejected
// rather than credited to the wrong task.
func TestFrameChecksumCatchesValidJSON(t *testing.T) {
	data := frameBytes(t, resultFrame())
	at := bytes.Index(data, []byte(`"seq":3`))
	if at < 0 {
		t.Fatalf("no seq field in %q", data)
	}
	data[at+len(`"seq":`)] ^= 0x04 // '3' -> '7'
	if f, err := readFrame(bytes.NewReader(data)); err == nil {
		t.Fatalf("bit-flipped frame accepted as task %d", f.Result.Seq)
	}
}
