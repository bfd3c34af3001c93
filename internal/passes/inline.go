package passes

import (
	"sort"
	"strconv"

	"gsim/internal/ir"
)

// inlineNodes dissolves combinational nodes into their readers when the
// paper's cost model says duplication is cheaper than keeping the node:
// inline when cost(f)·#refs ≤ cost(f) + cost_node (§III-B). Expressions
// larger than maxCost are never duplicated.
//
// Decisions are made in topological order with fully resolved expressions,
// so an inlined node's expression already reflects earlier inlining (its
// true post-substitution cost).
func inlineNodes(g *ir.Graph, costNode, maxCost int) int {
	order, err := g.TopoOrder()
	if err != nil {
		return 0
	}
	keep := keepAlive(g)

	// Reference occurrence counts (not distinct readers — every occurrence
	// re-evaluates the inlined expression).
	refs := make([]int, len(g.Nodes))
	for _, n := range g.Nodes {
		if n == nil {
			continue
		}
		n.EachExpr(func(slot **ir.Expr) {
			(*slot).Walk(func(e *ir.Expr) {
				if e.Op == ir.OpRef {
					refs[e.Node.ID]++
				}
			})
		})
	}

	// inlined[id] is an inlined node's resolved expression and cost[id] its
	// Cost. Once a node is inlined, refs[id] counts the substitutions still
	// to come: each takes a copy except the last, which takes the tree
	// itself, so a chain of inlined nodes is never copied once per level.
	inlined := make([]*ir.Expr, len(g.Nodes))
	cost := make([]int, len(g.Nodes))
	// resolve substitutes inlined nodes into the tree at pe and returns the
	// resolved tree's Cost.
	var resolve func(pe **ir.Expr) int
	resolve = func(pe **ir.Expr) int {
		e := *pe
		if e.Op == ir.OpRef {
			id := e.Node.ID
			repl := inlined[id]
			if repl == nil {
				return 0
			}
			if refs[id]--; refs[id] != 0 {
				repl = repl.Clone()
			}
			*pe = repl // already fully resolved
			return cost[id]
		}
		c := e.Op.Cost()
		for i := range e.Args {
			c += resolve(&e.Args[i])
		}
		return c
	}

	count := 0
	for _, id := range order {
		n := g.Nodes[id]
		if n == nil {
			continue
		}
		// Resolve references to already-inlined nodes first so this node's
		// cost reflects the substitutions.
		var c int
		n.EachExpr(func(slot **ir.Expr) { c = resolve(slot) })
		if keep[n.ID] || n.Kind != ir.KindComb {
			continue
		}
		k := refs[n.ID]
		if k == 0 {
			continue // dead; DCE's business
		}
		if c > maxCost {
			continue
		}
		// The paper's trade-off: keeping the node costs c + cost_node;
		// inlining costs c per reference.
		if c*k <= c+costNode {
			inlined[n.ID], cost[n.ID] = n.Expr, c
			g.Nodes[n.ID] = nil
			count++
		}
	}
	// Every reference to a combinational node is an ordering edge, so each
	// reader of an inlined node came after it in the walk and is resolved.
	return count
}

// subtrees lists every subtree of one expression tree in post-order with
// its structural hash (ir.Expr.Hash), Cost and size in nodes. Computing all
// of them in one bottom-up walk keeps a per-subtree lookup linear in the
// tree; the buffers are reused from tree to tree.
type subtrees struct {
	exprs []*ir.Expr
	hash  []uint64
	cost  []int
	size  []int
}

func (s *subtrees) build(root *ir.Expr) {
	s.exprs, s.hash, s.cost, s.size = s.exprs[:0], s.hash[:0], s.cost[:0], s.size[:0]
	s.visit(root)
}

// visit appends e's subtree and returns e's index.
func (s *subtrees) visit(e *ir.Expr) int {
	start := len(s.exprs)
	var args [3]uint64 // no operator takes more than three arguments
	c := e.Op.Cost()
	for i, a := range e.Args {
		j := s.visit(a)
		args[i] = s.hash[j]
		c += s.cost[j]
	}
	s.exprs = append(s.exprs, e)
	s.hash = append(s.hash, e.HashNode(args[:len(e.Args)]))
	s.cost = append(s.cost, c)
	s.size = append(s.size, len(s.exprs)-start)
	return len(s.exprs) - 1
}

// args returns the indices of the arguments of the subtree at index p;
// only the first len(s.exprs[p].Args) entries are set.
func (s *subtrees) args(p int) (idx [3]int) {
	q := p - 1
	for i := len(s.exprs[p].Args) - 1; i >= 0; i-- {
		idx[i] = q
		q -= s.size[q]
	}
	return idx
}

// extractCommon is the opposite direction: common subexpressions whose
// repeated evaluation costs more than a dedicated node are extracted into
// one (§III-B node extraction). Uses structural value numbering; chosen
// subexpressions become new combinational nodes and every occurrence is
// replaced by a reference.
func extractCommon(g *ir.Graph, costNode int) int {
	type vnInfo struct {
		expr  *ir.Expr // representative
		hash  uint64
		count int
		cost  int
	}
	var infos []vnInfo
	table := map[uint64]int{} // hash -> index in infos
	var st subtrees

	// Count structurally identical non-trivial subexpressions.
	for _, n := range g.Nodes {
		if n == nil {
			continue
		}
		n.EachExpr(func(slot **ir.Expr) {
			st.build(*slot)
			for i, e := range st.exprs {
				if e.Op == ir.OpRef || e.Op == ir.OpConst {
					continue
				}
				h := st.hash[i]
				j, ok := table[h]
				if !ok {
					table[h] = len(infos)
					infos = append(infos, vnInfo{expr: e, hash: h, count: 1, cost: st.cost[i]})
				} else if ir.StructEq(infos[j].expr, e) {
					infos[j].count++
				}
			}
		})
	}

	// Candidates worth extracting: cost·k > cost + cost_node.
	type candidate struct {
		*vnInfo
		key string // canonical rendering
	}
	var chosen []candidate
	for i := range infos {
		if info := &infos[i]; info.count >= 2 && info.cost*info.count > info.cost+costNode {
			chosen = append(chosen, candidate{vnInfo: info})
		}
	}
	if len(chosen) == 0 {
		return 0
	}
	// Materialize larger expressions first so smaller chosen subexpressions
	// can still be referenced inside them. Ties break on the canonical
	// rendering, never on map-iteration order: extraction order names the
	// _cse nodes and therefore fixes the compiled program's layout, which
	// must be bit-identical across builds and processes (design hashing,
	// snapshot compatibility, the compiled-design cache all depend on it).
	// Expr.Hash cannot serve here — maphash seeds differ per process.
	for i := range chosen {
		c := &chosen[i]
		c.key = strconv.Itoa(c.expr.Width) + ":" + c.expr.String()
	}
	sort.Slice(chosen, func(i, j int) bool {
		if chosen[i].cost != chosen[j].cost {
			return chosen[i].cost > chosen[j].cost
		}
		return chosen[i].key < chosen[j].key
	})

	// Table keys are distinct, so every chosen expression gets its own node.
	newNode := make(map[uint64]*ir.Node, len(chosen))
	for i, info := range chosen {
		newNode[info.hash] = g.AddNode(&ir.Node{
			Name:  nodeName("_cse", "", i),
			Kind:  ir.KindComb,
			Width: info.expr.Width,
			Expr:  info.expr.Clone(),
		})
	}
	// replace rewrites the subtree at index p (stored at pe) pre-order:
	// the outermost occurrence of a chosen expression becomes a reference.
	// A subtree is hashed before anything below it is rewritten.
	var replace func(pe **ir.Expr, p int, self *ir.Node)
	replace = func(pe **ir.Expr, p int, self *ir.Node) {
		e := *pe
		if e.Op == ir.OpRef || e.Op == ir.OpConst {
			return
		}
		if nn, ok := newNode[st.hash[p]]; ok && nn != self && ir.StructEq(nn.Expr, e) {
			*pe = ir.Ref(nn)
			return
		}
		idx := st.args(p)
		for i := range e.Args {
			replace(&e.Args[i], idx[i], self)
		}
	}
	// Rewrite every node, including the new CSE nodes (nesting), skipping
	// each node's own defining expression root.
	for _, n := range g.Nodes {
		if n == nil {
			continue
		}
		self := n
		n.EachExpr(func(slot **ir.Expr) {
			st.build(*slot)
			root := len(st.exprs) - 1
			// Do not replace the root of a CSE node with a ref to itself.
			if nn, ok := newNode[st.hash[root]]; ok && nn == self {
				idx := st.args(root)
				for i := range (*slot).Args {
					replace(&(*slot).Args[i], idx[i], self)
				}
				return
			}
			replace(slot, root, self)
		})
	}
	return len(chosen)
}
