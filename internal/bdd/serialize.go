package bdd

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// BDD serialization: save and reload function graphs independent of the
// manager they were built in. Useful for caching symbolic execution
// results (PFEC predicates, port predicates) across verifier runs on
// unchanged configurations.
//
// The variable order is fixed (variable i sits at level i), so a record
// stores the variable its node tests and a reader rebuilds each node by
// hash-consing it at that level. Writer and reader must therefore lay
// their variables out identically; callers that can vary the layout key
// it beside the blob (analysis.CacheKey hashes the resolved link order).
//
// Format (every number an unsigned LEB128 varint that fits in 32 bits):
//
//	magic "BDD4" | varCount | nodeCount | rootCount
//	nodeCount × (var, lo ref, hi ref)   — children first
//	rootCount × root index
//
// A child ref is 0 for False, 1 for True, and k ≥ 2 for the serialized
// node k−1 places back, so most refs of a children-first walk fit in
// one byte. A ref can only name a node already decoded: a forward or
// self child cannot be written, and a ref that reaches before the first
// node is refused. Root indices are absolute: 0 and 1 are the
// terminals, serialized nodes start at 2. "BDD3" (fixed 32-bit words),
// "BDD2" and anything else is refused by its magic.

var magic = [4]byte{'B', 'D', 'D', '4'}

// Write serializes the given roots (and their shared subgraphs) to w in
// one call.
func (m *Manager) Write(w io.Writer, roots ...Node) error {
	// Collect reachable nodes in topological (children-first) order; the
	// memo maps each to its position. Write creates no nodes, so the
	// memo cannot be outgrown mid-walk.
	m.i32memo.begin(m)
	var order []Node
	for _, r := range roots {
		order = m.writeOrder(r, order)
	}
	ref := func(c Node, i int) uint64 {
		if c <= True {
			return uint64(c)
		}
		pos, _ := m.i32memo.get(c)
		return uint64(i-int(pos)) + 1
	}
	buf := make([]byte, 0, len(magic)+3*binary.MaxVarintLen32+4*len(order)+2*len(roots))
	buf = append(buf, magic[:]...)
	buf = binary.AppendUvarint(buf, uint64(m.vars))
	buf = binary.AppendUvarint(buf, uint64(len(order)))
	buf = binary.AppendUvarint(buf, uint64(len(roots)))
	for i, n := range order {
		r := &m.tab[n]
		buf = binary.AppendUvarint(buf, uint64(r.lvl))
		buf = binary.AppendUvarint(buf, ref(Node(r.lo), i))
		buf = binary.AppendUvarint(buf, ref(Node(r.hi), i))
	}
	for _, r := range roots {
		idx := uint64(r)
		if r > True {
			pos, _ := m.i32memo.get(r)
			idx = uint64(pos) + 2
		}
		buf = binary.AppendUvarint(buf, idx)
	}
	_, err := w.Write(buf)
	return err
}

// writeOrder appends n's unvisited subgraph to order, children first,
// recording each node's position in the current i32memo generation.
func (m *Manager) writeOrder(n Node, order []Node) []Node {
	if n <= True {
		return order
	}
	if _, seen := m.i32memo.get(n); seen {
		return order
	}
	order = m.writeOrder(Node(m.tab[n].lo), order)
	order = m.writeOrder(Node(m.tab[n].hi), order)
	m.i32memo.put(n, int32(len(order)))
	return append(order, n)
}

// streamReader decodes the varints of one stream. The first error
// sticks: later reads return 0 and the caller checks err once per
// record.
type streamReader struct {
	br  io.ByteReader
	err error
}

// next reads one varint that must fit in 32 bits.
func (s *streamReader) next() uint32 {
	if s.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(s.br)
	switch {
	case err == io.EOF:
		s.err = io.ErrUnexpectedEOF
	case err != nil:
		s.err = err
	case v > math.MaxUint32:
		s.err = fmt.Errorf("bdd: varint %d overflows 32 bits", v)
	}
	return uint32(v)
}

// Read deserializes roots previously written with Write into this
// manager (hash-consing against existing nodes). The manager must have
// at least as many variables as the writer had. Every structural
// invariant — child refs landing on decoded nodes, variable range,
// reducedness, child levels strictly below their parent, 32-bit varints
// — is validated, so corrupt streams fail instead of decoding garbage.
// Read consumes r byte by byte when it is an io.ByteReader (a
// bytes.Reader or bytes.Buffer) and through a bufio.Reader otherwise.
// It ends at a safe point: the operation cache grows to the decoded
// table (see growCache).
func (m *Manager) Read(r io.Reader) ([]Node, error) {
	br, ok := r.(io.ByteReader)
	if !ok {
		br = bufio.NewReader(r)
	}
	var got [4]byte
	for i := range got {
		b, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		got[i] = b
	}
	if got != magic {
		return nil, fmt.Errorf("bdd: bad magic %q", got)
	}
	s := streamReader{br: br}
	varCount, nodeCount, rootCount := s.next(), s.next(), s.next()
	if s.err != nil {
		return nil, s.err
	}
	if int(varCount) > m.vars {
		return nil, fmt.Errorf("bdd: stream has %d variables, manager only %d", varCount, m.vars)
	}
	// The counts are untrusted: grow with the records actually read
	// instead of allocating what the header claims.
	nodes := append(make([]Node, 0, min(uint64(nodeCount)+2, 1<<16)), False, True)
	// child resolves a ref of node i to its index in nodes (-1 when it
	// reaches before the first serialized node).
	child := func(ref, i uint32) int {
		if ref <= 1 {
			return int(ref)
		}
		if ref-1 > i {
			return -1
		}
		return len(nodes) - int(ref-1)
	}
	for i := uint32(0); i < nodeCount; i++ {
		vr, loRef, hiRef := s.next(), s.next(), s.next()
		if s.err != nil {
			return nil, s.err
		}
		lo, hi := child(loRef, i), child(hiRef, i)
		if lo < 0 || hi < 0 {
			return nil, fmt.Errorf("bdd: node %d has a child ref reaching before node 2", i)
		}
		if vr >= varCount {
			return nil, fmt.Errorf("bdd: node %d has variable %d out of range", i, vr)
		}
		if lo == hi {
			return nil, fmt.Errorf("bdd: node %d is unreduced (lo == hi)", i)
		}
		// Children sit at strictly greater levels (reduced ordered BDD);
		// terminals carry terminalLevel.
		if m.tab[nodes[lo]].lvl <= int32(vr) || m.tab[nodes[hi]].lvl <= int32(vr) {
			return nil, fmt.Errorf("bdd: node %d violates the variable ordering", i)
		}
		nodes = append(nodes, m.mk(int32(vr), nodes[lo], nodes[hi]))
	}
	roots := make([]Node, 0, min(rootCount, 1<<16))
	for i := uint32(0); i < rootCount; i++ {
		idx := s.next()
		if s.err != nil {
			return nil, s.err
		}
		if int(idx) >= len(nodes) {
			return nil, fmt.Errorf("bdd: root index %d out of range", idx)
		}
		roots = append(roots, nodes[idx])
	}
	// The end of a decode is a safe point: size the cache to the
	// decoded table now, so queries on it never grow it.
	m.growCache()
	return roots, nil
}
