package coord

// The wire decoder shares the config parser's totality contract: any
// byte stream either decodes into frames or returns an error — never a
// panic, never an unbounded allocation. The coordinator feeds it
// subprocess stdout, which a crashing worker can truncate at any byte
// and a corrupting one can fill with garbage.

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"sre/internal/analysis"
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

// FuzzDecodeFrame fuzzes readFrame with torn frames, oversized length
// headers, and invalid JSON. The decoder must be total (error, never
// panic), and any frame it does accept must re-encode.
func FuzzDecodeFrame(f *testing.F) {
	// Well-formed frames of every type.
	f.Add(frameBytes(f, &frame{Type: frameHello, Hello: &helloMsg{PID: 42}}))
	f.Add(frameBytes(f, &frame{Type: frameHeartbeat}))
	f.Add(frameBytes(f, &frame{Type: frameShutdown}))
	f.Add(frameBytes(f, &frame{Type: frameTask, Task: &taskMsg{Seq: 1, Attempt: 2, Prefix: "10.0.0.0/8"}}))
	f.Add(frameBytes(f, &frame{Type: frameError, Err: &analysis.WireError{Kind: analysis.ErrKindInternal, Stage: "spf", Msg: "boom"}}))
	f.Add(frameBytes(f, &frame{Type: frameResult, Result: &taskResult{Seq: 3, Prefix: "10.0.0.0/8"}}))
	// Two frames back to back: stream decoding.
	f.Add(append(frameBytes(f, &frame{Type: frameHeartbeat}), frameBytes(f, &frame{Type: frameShutdown})...))
	// A torn frame: header promises more than the stream holds.
	f.Add(frameBytes(f, &frame{Type: frameHeartbeat})[:5])
	// The corrupt fault's signature garbage.
	f.Add([]byte{37, 0, 0, 0, '{', '"', 't', 'y', 'p', 'e', '"', ':', '}'})
	// Oversized length header with no payload behind it.
	huge := make([]byte, 4)
	binary.LittleEndian.PutUint32(huge, 1<<30)
	f.Add(huge)
	// Length over the cap.
	over := make([]byte, 4)
	binary.LittleEndian.PutUint32(over, 1<<31)
	f.Add(over)
	// Zero length, empty input, bare junk.
	f.Add([]byte{0, 0, 0, 0})
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

// TestReadFrameTornStream pins the torn-frame error class: a frame cut
// anywhere must yield io.ErrUnexpectedEOF (or io.EOF at a frame
// boundary), so the coordinator attributes it as a crash, not a
// protocol bug.
func TestReadFrameTornStream(t *testing.T) {
	whole := frameBytes(t, &frame{Type: frameTask, Task: &taskMsg{Seq: 7, Prefix: "10.0.0.0/8"}})
	for cut := 0; cut < len(whole); cut++ {
		_, err := readFrame(bytes.NewReader(whole[:cut]))
		switch {
		case cut == 0:
			if err != io.EOF {
				t.Fatalf("cut at 0: err = %v, want io.EOF", err)
			}
		default:
			if err != io.ErrUnexpectedEOF {
				t.Fatalf("cut at %d: err = %v, want io.ErrUnexpectedEOF", cut, err)
			}
		}
	}
	if f, err := readFrame(bytes.NewReader(whole)); err != nil || f.Task == nil || f.Task.Seq != 7 {
		t.Fatalf("whole frame: f=%+v err=%v", f, err)
	}
}
