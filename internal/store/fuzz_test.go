package store

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// FuzzReadRecord pins the record decoder's robustness contract: total
// over arbitrary byte streams (typed errors, io.EOF only for an empty
// stream, never panics), bounded allocation regardless of the declared
// length, and exact round-trip of whatever it accepts.
func FuzzReadRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeRecord(nil))
	f.Add(EncodeRecord([]byte("payload")))
	f.Add(EncodeRecord(bytes.Repeat([]byte{0xAB}, 4096)))
	// A length bomb: valid header declaring far more than is present.
	bomb := EncodeRecord([]byte("tiny"))
	for i := 8; i < 16; i++ {
		bomb[i] = 0xFF
	}
	f.Add(bomb)
	f.Add([]byte("SRC1 but then garbage follows the magic bytes"))

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := ReadRecord(bytes.NewReader(data), 1<<20)
		if err == io.EOF {
			if len(data) != 0 {
				t.Fatalf("io.EOF after %d bytes: a torn record must be a CorruptError", len(data))
			}
			return
		}
		if err != nil {
			var ce *CorruptError
			var se *SizeError
			if !errors.As(err, &ce) && !errors.As(err, &se) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		// Accepted records re-encode to a prefix of the input (the frame
		// is self-delimiting; the fuzzer may append trailing bytes).
		re := EncodeRecord(payload)
		if !bytes.HasPrefix(data, re) {
			t.Fatalf("accepted record does not round-trip: %d payload bytes", len(payload))
		}
	})
}
