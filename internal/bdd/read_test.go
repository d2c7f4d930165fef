package bdd

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// validStream serializes a chain function over every variable.
func validStream(t testing.TB, vars int) []byte {
	t.Helper()
	m := New(Config{Vars: vars})
	f := True
	for v := 0; v < vars; v++ {
		f = m.And(f, m.Var(v))
	}
	var buf bytes.Buffer
	if err := m.Write(&buf, m.Ref(f)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReadFailsClosedOnTornStream(t *testing.T) {
	data := validStream(t, 8)
	m := New(Config{Vars: 8})
	for cut := 0; cut < len(data); cut++ {
		if _, err := m.Read(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("torn stream of %d/%d bytes decoded without error", cut, len(data))
		}
	}
}

// stream assembles a serialized form by hand: header, (var, lo ref,
// hi ref) records, root indices, every number a varint.
func stream(magic string, varCount uint32, records [][3]uint32, roots ...uint32) []byte {
	words := []uint32{varCount, uint32(len(records)), uint32(len(roots))}
	for _, r := range records {
		words = append(words, r[:]...)
	}
	words = append(words, roots...)
	out := []byte(magic)
	for _, w := range words {
		out = binary.AppendUvarint(out, uint64(w))
	}
	return out
}

func TestReadRejectsMalformed(t *testing.T) {
	// x1 at index 2, x0 ∧ x1 at index 3 (its hi ref 2 is the node one
	// place back).
	good := [][3]uint32{{1, 0, 1}, {0, 0, 2}}
	m := New(Config{Vars: 4})
	if roots, err := m.Read(bytes.NewReader(stream("BDD4", 4, good, 3))); err != nil || roots[0] != m.And(m.Var(0), m.Var(1)) {
		t.Fatalf("hand-built stream must decode: %v, %v", roots, err)
	}
	// The same function in the retired fixed-width layout.
	bdd3 := []byte("BDD3")
	for _, w := range []uint32{4, 2, 1, 1, 0, 1, 0, 0, 2, 3} {
		bdd3 = binary.LittleEndian.AppendUint32(bdd3, w)
	}
	// A root index of 2³² + 3: truncated to 32 bits it would name a
	// real node, so only the overflow check refuses it.
	overflow := binary.AppendUvarint(stream("BDD4", 4, good), 1<<32+3)
	overflow[len("BDD4")+2] = 1 // the root count
	// A root varint whose continuation bit promises a byte that never
	// comes.
	cut := stream("BDD4", 4, good, 3)
	cut[len(cut)-1] |= 0x80
	cases := []struct {
		name string
		data []byte
	}{
		// Refs only point back, so the old forward and self children
		// are refs reaching past the start of the stream.
		{"forward child", stream("BDD4", 4, [][3]uint32{{1, 0, 3}, {0, 0, 2}}, 3)},
		{"self child", stream("BDD4", 4, [][3]uint32{{1, 0, 2}}, 2)},
		{"lo == hi", stream("BDD4", 4, [][3]uint32{{1, 1, 1}}, 2)},
		{"variable out of range", stream("BDD4", 4, [][3]uint32{{4, 0, 1}}, 2)},
		{"child at parent's level", stream("BDD4", 4, [][3]uint32{{1, 0, 1}, {1, 0, 2}}, 3)},
		{"child above parent", stream("BDD4", 4, [][3]uint32{{1, 0, 1}, {2, 2, 1}}, 3)},
		{"root out of range", stream("BDD4", 4, good, 4)},
		{"node count past the stream", append(stream("BDD4", 4, nil)[:5], 0xfe, 0xff, 0xff, 0xff, 0x0f, 0)},
		{"retired BDD2 header", stream("BDD2", 4, good, 3)},
		{"retired BDD3 header", bdd3},
		{"varint overflowing 32 bits", overflow},
		{"child ref before node 2", stream("BDD4", 4, [][3]uint32{{1, 0, 1}, {0, 0, 3}}, 3)},
		{"varint cut mid-byte", cut},
	}
	for _, c := range cases {
		if roots, err := New(Config{Vars: 4}).Read(bytes.NewReader(c.data)); err == nil {
			t.Errorf("%s: decoded %v without error", c.name, roots)
		}
	}
}

func FuzzReadBDD(f *testing.F) {
	for _, vars := range []int{4, 8} {
		m := New(Config{Vars: vars})
		r := rand.New(rand.NewSource(int64(vars)))
		var roots []Node
		for i := 0; i < 3; i++ {
			n, _ := buildRandom(m, r, 4)
			roots = append(roots, m.Ref(n))
		}
		var buf bytes.Buffer
		if err := m.Write(&buf, roots...); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add(validStream(f, 8))
	f.Add([]byte("BDD4"))
	f.Add([]byte("BDD2"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m := New(Config{Vars: 8, NodeLimit: 1 << 16})
		roots, err := m.Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever decoded must be structurally valid nodes.
		for _, n := range roots {
			if n < 0 || int(n) >= len(m.tab) {
				t.Fatalf("decoded root %d out of range", n)
			}
			m.NodeCount(n)
		}
	})
}
