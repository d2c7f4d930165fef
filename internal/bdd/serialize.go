package bdd

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
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
// Format (little endian):
//
//	magic "BDD3" | uint32 varCount | uint32 nodeCount | uint32 rootCount
//	nodeCount × (uint32 var, uint32 lo, uint32 hi)   — children first
//	rootCount × uint32                               — root indices
//
// Node indices 0 and 1 are the False/True terminals; serialized nodes
// start at index 2. "BDD2" (the retired order-stamped format) and
// anything else is refused by its magic.

var magic = [4]byte{'B', 'D', 'D', '3'}

// Write serializes the given roots (and their shared subgraphs) to w.
func (m *Manager) Write(w io.Writer, roots ...Node) error {
	bw := bufio.NewWriter(w)
	// Collect reachable nodes in topological (children-first) order.
	index := map[Node]uint32{False: 0, True: 1}
	var order []Node
	var visit func(Node)
	visit = func(n Node) {
		if _, ok := index[n]; ok {
			return
		}
		visit(Node(m.lo[n]))
		visit(Node(m.hi[n]))
		index[n] = uint32(len(order) + 2)
		order = append(order, n)
	}
	for _, r := range roots {
		visit(r)
	}
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	hdr := []uint32{uint32(m.vars), uint32(len(order)), uint32(len(roots))}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for _, n := range order {
		rec := []uint32{uint32(m.lvl[n]), index[Node(m.lo[n])], index[Node(m.hi[n])]}
		for _, v := range rec {
			if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
				return err
			}
		}
	}
	for _, r := range roots {
		if err := binary.Write(bw, binary.LittleEndian, index[r]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read deserializes roots previously written with Write into this
// manager (hash-consing against existing nodes). The manager must have
// at least as many variables as the writer had. Every structural
// invariant — child back-references, variable range, reducedness, child
// levels strictly below their parent — is validated, so corrupt streams
// fail instead of decoding garbage. Read ends at a safe point: the
// operation caches grow to the decoded table (see growCaches).
func (m *Manager) Read(r io.Reader) ([]Node, error) {
	br := bufio.NewReader(r)
	var got [4]byte
	if _, err := io.ReadFull(br, got[:]); err != nil {
		return nil, err
	}
	if got != magic {
		return nil, fmt.Errorf("bdd: bad magic %q", got)
	}
	var varCount, nodeCount, rootCount uint32
	for _, p := range []*uint32{&varCount, &nodeCount, &rootCount} {
		if err := binary.Read(br, binary.LittleEndian, p); err != nil {
			return nil, err
		}
	}
	if int(varCount) > m.vars {
		return nil, fmt.Errorf("bdd: stream has %d variables, manager only %d", varCount, m.vars)
	}
	// The counts are untrusted: grow with the records actually read
	// instead of allocating what the header claims.
	nodes := append(make([]Node, 0, min(uint64(nodeCount)+2, 1<<16)), False, True)
	for i := uint32(0); i < nodeCount; i++ {
		var vr, lo, hi uint32
		for _, p := range []*uint32{&vr, &lo, &hi} {
			if err := binary.Read(br, binary.LittleEndian, p); err != nil {
				return nil, err
			}
		}
		if int(lo) >= len(nodes) || int(hi) >= len(nodes) {
			return nil, fmt.Errorf("bdd: node %d references forward child", i)
		}
		if vr >= varCount {
			return nil, fmt.Errorf("bdd: node %d has variable %d out of range", i, vr)
		}
		if lo == hi {
			return nil, fmt.Errorf("bdd: node %d is unreduced (lo == hi)", i)
		}
		// Children sit at strictly greater levels (reduced ordered BDD);
		// terminals carry terminalLevel.
		if m.lvl[nodes[lo]] <= int32(vr) || m.lvl[nodes[hi]] <= int32(vr) {
			return nil, fmt.Errorf("bdd: node %d violates the variable ordering", i)
		}
		nodes = append(nodes, m.mk(int32(vr), nodes[lo], nodes[hi]))
	}
	roots := make([]Node, 0, min(rootCount, 1<<16))
	for i := uint32(0); i < rootCount; i++ {
		var idx uint32
		if err := binary.Read(br, binary.LittleEndian, &idx); err != nil {
			return nil, err
		}
		if int(idx) >= len(nodes) {
			return nil, fmt.Errorf("bdd: root index %d out of range", idx)
		}
		roots = append(roots, nodes[idx])
	}
	// The end of a decode is a safe point: size the caches to the
	// decoded table now, so queries on it never grow them.
	m.growCaches()
	return roots, nil
}
