package store

import (
	"fmt"
	"testing"
)

// BenchmarkStorePutGet writes and reads 54 KB records, the size of a
// FatTree(6) BGP k=1 prefix's record. Put frames the payload, writes it
// to a temporary file, fsyncs it and renames it into place (over 64
// keys in turn, so the directory stays small); Get reads one record
// back and checks its frame.
func BenchmarkStorePutGet(b *testing.B) {
	payload := make([]byte, 54<<10)
	for i := range payload {
		payload[i] = byte(i * 131)
	}
	s, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	key := func(i int) string { return fmt.Sprintf("%064x", i%64) }
	b.Run("Put", func(b *testing.B) {
		b.SetBytes(int64(len(payload)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := s.Put(key(i), payload); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Get", func(b *testing.B) {
		if err := s.Put(key(0), payload); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(payload)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := s.Get(key(0)); !ok {
				b.Fatal("miss")
			}
		}
	})
}
