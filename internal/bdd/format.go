package bdd

import (
	"fmt"
	"strings"
)

// Format renders f as a boolean expression in disjunctive path form, using
// name to label variables (nil means "x<level>"). Intended for debugging
// and documentation; large BDDs render as a node summary instead.
func (m *Manager) Format(f Node, name func(v int) string) string {
	switch f {
	case False:
		return "false"
	case True:
		return "true"
	}
	if name == nil {
		name = func(v int) string { return fmt.Sprintf("x%d", v) }
	}
	if m.NodeCount(f) > 64 {
		return fmt.Sprintf("<bdd %d nodes>", m.NodeCount(f))
	}
	var terms []string
	m.AllSat(f, func(a map[int]bool) bool {
		vars := make([]int, 0, len(a))
		for v := range a {
			vars = append(vars, v)
		}
		sortInts(vars)
		lits := make([]string, 0, len(vars))
		for _, v := range vars {
			if a[v] {
				lits = append(lits, name(v))
			} else {
				lits = append(lits, "!"+name(v))
			}
		}
		if len(lits) == 0 {
			lits = append(lits, "true")
		}
		terms = append(terms, strings.Join(lits, "&"))
		return len(terms) <= 32
	})
	if len(terms) > 32 {
		return fmt.Sprintf("<bdd %d nodes>", m.NodeCount(f))
	}
	return strings.Join(terms, " | ")
}

// Dot renders f in Graphviz dot syntax: solid edges are then-branches,
// dashed edges are else-branches, mirroring Figure 1(c) of the paper.
func (m *Manager) Dot(f Node, name func(v int) string) string {
	if name == nil {
		name = func(v int) string { return fmt.Sprintf("x%d", v) }
	}
	var b strings.Builder
	b.WriteString("digraph bdd {\n")
	b.WriteString("  node0 [label=\"0\", shape=box];\n")
	b.WriteString("  node1 [label=\"1\", shape=box];\n")
	seen := map[Node]bool{False: true, True: true}
	var rec func(Node)
	rec = func(n Node) {
		if seen[n] {
			return
		}
		seen[n] = true
		fmt.Fprintf(&b, "  node%d [label=%q];\n", n, name(int(m.lvl[n])))
		fmt.Fprintf(&b, "  node%d -> node%d [style=dashed];\n", n, m.lo[n])
		fmt.Fprintf(&b, "  node%d -> node%d;\n", n, m.hi[n])
		rec(Node(m.lo[n]))
		rec(Node(m.hi[n]))
	}
	rec(f)
	b.WriteString("}\n")
	return b.String()
}
