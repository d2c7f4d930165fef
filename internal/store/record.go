package store

// Record framing: every object in the store — and every frame on a
// fleet worker's pipes (internal/coord) — is one self-verifying
// record —
//
//	magic "SRC1" (4) | version u16 LE (2) | flags u16 LE (2) |
//	payload length u64 LE (8) | payload | crc64-ECMA(header+payload) (8)
//
// The checksum trailer covers the header too, so a bit flip anywhere in
// the file — length field included — fails verification rather than
// misdirecting the read. The decoder is total over arbitrary byte
// streams: truncation, version skew, oversized declared lengths, and
// checksum mismatches all return typed errors, never panics, and the
// payload is read incrementally so a corrupt length prefix cannot
// balloon memory (FuzzReadRecord pins this).

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"io"
)

// recordVersion is bumped whenever the frame layout or the payload
// schema changes incompatibly; readers quarantine records from other
// versions.
const recordVersion = 1

// recordHeaderLen and recordTrailerLen are the fixed framing overhead
// around a payload.
const (
	recordHeaderLen  = 16
	recordTrailerLen = 8
)

// DefaultMaxRecordBytes bounds a record's declared payload length in a
// store and on a worker's pipe. Serialized pipelines for one prefix
// are megabytes at the extreme; a declared length beyond this is a
// corrupt record, not a big result.
const DefaultMaxRecordBytes = 1 << 30

var recordMagic = [4]byte{'S', 'R', 'C', '1'}

var crcTable = crc64.MakeTable(crc64.ECMA)

// SizeError reports a record whose declared payload length exceeds the
// reader's maximum. It is corruption from the store's point of view
// (records it wrote always fit), but typed separately so callers can
// tell the two apart.
type SizeError struct {
	Declared int64
	Max      int64
}

func (e *SizeError) Error() string {
	return fmt.Sprintf("store: record declares %d payload bytes, max %d", e.Declared, e.Max)
}

// CorruptError reports a record that failed structural verification:
// bad magic, version skew, truncation, or a checksum mismatch.
type CorruptError struct {
	Reason string
}

func (e *CorruptError) Error() string { return "store: corrupt record: " + e.Reason }

// EncodeRecord frames a payload as a store record.
func EncodeRecord(payload []byte) []byte {
	out := make([]byte, 0, recordHeaderLen+len(payload)+recordTrailerLen)
	out = append(out, recordMagic[:]...)
	out = binary.LittleEndian.AppendUint16(out, recordVersion)
	out = binary.LittleEndian.AppendUint16(out, 0) // flags, reserved
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	out = append(out, payload...)
	sum := crc64.Checksum(out, crcTable)
	return binary.LittleEndian.AppendUint64(out, sum)
}

// ReadRecord decodes one record from r, enforcing max as the payload
// length bound (0 means DefaultMaxRecordBytes). The payload is read
// incrementally — never pre-allocated at the declared length — and the
// whole frame, header included, must pass the checksum trailer. A
// stream that ends before its first byte returns io.EOF: the clean end
// of a stream of records (a worker's pipe), which a file-backed caller
// treats as an empty, corrupt record.
func ReadRecord(r io.Reader, max int64) ([]byte, error) {
	return readRecord(r, max, -1)
}

// readRecord is ReadRecord over a stream of known length size, or of
// unknown length when size is negative. With a known length the frame
// is read into one buffer sized for it, and a declared payload that
// cannot fit in size bytes is corrupt.
func readRecord(r io.Reader, max, size int64) ([]byte, error) {
	if max <= 0 {
		max = DefaultMaxRecordBytes
	}
	var hdr [recordHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, &CorruptError{Reason: "truncated header"}
	}
	if !bytes.Equal(hdr[:4], recordMagic[:]) {
		return nil, &CorruptError{Reason: "bad magic"}
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != recordVersion {
		return nil, &CorruptError{Reason: fmt.Sprintf("version %d, want %d", v, recordVersion)}
	}
	n := binary.LittleEndian.Uint64(hdr[8:16])
	if n > uint64(max) {
		return nil, &SizeError{Declared: int64(n), Max: max}
	}
	var buf bytes.Buffer
	if size >= 0 {
		if int64(n) > size-recordHeaderLen-recordTrailerLen {
			return nil, &CorruptError{Reason: fmt.Sprintf("declares %d payload bytes in a %d-byte file", n, size)}
		}
		// ReadFrom asks for bytes.MinRead free bytes before every read.
		buf.Grow(recordHeaderLen + int(n) + bytes.MinRead)
	}
	buf.Write(hdr[:])
	if _, err := io.CopyN(&buf, r, int64(n)); err != nil {
		return nil, &CorruptError{Reason: "truncated payload"}
	}
	var trailer [recordTrailerLen]byte
	if _, err := io.ReadFull(r, trailer[:]); err != nil {
		return nil, &CorruptError{Reason: "truncated checksum"}
	}
	want := binary.LittleEndian.Uint64(trailer[:])
	if got := crc64.Checksum(buf.Bytes(), crcTable); got != want {
		return nil, &CorruptError{Reason: "checksum mismatch"}
	}
	return buf.Bytes()[recordHeaderLen:], nil
}
