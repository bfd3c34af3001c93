package passes

import (
	"slices"

	"gsim/internal/bitvec"
	"gsim/internal/ir"
)

// bitSplit implements the paper's bit-level node splitting (§III-C, Fig. 4).
// When every reader of a multi-bit node accesses only bit slices, and the
// node's value is bitwise-decomposable (concatenations, bitwise logic,
// muxes, pads, slices), the node is split into one sub-node per accessed
// slice. Readers of an unchanged slice then stop being activated when only
// other slices change, reducing the activity factor.
//
// Splitting propagates: the sub-node expressions slice the original
// operands, turning full-width references upstream into slice references,
// which can make the upstream node splittable on the next round — the
// paper's path P0 P1 ... Pn. Rounds repeat to a fixed point (capped).
func bitSplit(g *ir.Graph, maxParts int) int {
	var s splitter
	total := 0
	for round := 0; round < 6; round++ {
		n := s.round(g, maxParts)
		if n == 0 {
			break
		}
		total += n
	}
	return total
}

// useInfo accumulates how a node is read.
type useInfo struct {
	full   bool
	ranges [][2]int
}

// splitter holds one round's tables; rounds reuse them.
type splitter struct {
	uses    []useInfo  // uses[id] is how node id is read
	readers []*ir.Node // nodes that slice a node reference somewhere
}

// round runs one round of splitting and returns the number of nodes split.
func (s *splitter) round(g *ir.Graph, maxParts int) int {
	s.uses = slices.Grow(s.uses[:0], len(g.Nodes))[:len(g.Nodes)]
	for i := range s.uses {
		s.uses[i].full, s.uses[i].ranges = false, s.uses[i].ranges[:0]
	}
	s.readers = s.readers[:0]
	uses := s.uses
	sliced := false
	var scan func(e *ir.Expr)
	scan = func(e *ir.Expr) {
		switch {
		case e.Op == ir.OpBits && e.Args[0].Op == ir.OpRef:
			u := &uses[e.Args[0].Node.ID]
			u.ranges = append(u.ranges, [2]int{e.Lo, e.Hi})
			sliced = true
			return // the inner ref is a slice use, not a full use
		case e.Op == ir.OpRef:
			uses[e.Node.ID].full = true
		}
		for _, a := range e.Args {
			scan(a)
		}
	}
	for _, n := range g.Nodes {
		if n == nil {
			continue
		}
		sliced = false
		n.EachExpr(func(slot **ir.Expr) { scan(*slot) })
		if sliced {
			s.readers = append(s.readers, n)
		}
		if n.Kind == ir.KindReg && n.ResetSig != nil {
			uses[n.ResetSig.ID].full = true
		}
	}

	// Select all candidates first, then rewrite the whole graph once: a
	// per-candidate rewrite walk would make the pass quadratic in graph
	// size (measured as minutes on the BOOM-scale design).
	var plans []*splitPlan
	byNode := make([]*splitPlan, len(g.Nodes)) // byNode[id] is id's plan
	for _, d := range g.Nodes {
		if d == nil || d.IsOutput || d.Width < 2 {
			continue
		}
		if d.Kind != ir.KindComb && d.Kind != ir.KindReg {
			continue
		}
		u := &uses[d.ID]
		if u.full || len(u.ranges) < 2 {
			continue
		}
		cuts := cutPoints(d.Width, u.ranges)
		if len(cuts) < 3 || len(cuts)-1 > maxParts {
			continue
		}
		if p := planSplit(d, cuts); p != nil {
			plans = append(plans, p)
			byNode[d.ID] = p
		}
	}
	if len(plans) == 0 {
		return 0
	}
	// Materialize sub-nodes for every plan.
	first := len(g.Nodes)
	for _, p := range plans {
		materialize(g, p)
	}
	// One rewrite pass over every node that slices a reference, including
	// the new sub-nodes (a split register's parts slice the original
	// register through its old name and must be redirected too). The
	// sub-nodes are never split in this round, so they have no byNode entry.
	var rewrite func(pe **ir.Expr)
	rewrite = func(pe **ir.Expr) {
		e := *pe
		if e.Op == ir.OpBits && e.Args[0].Op == ir.OpRef {
			if id := e.Args[0].Node.ID; id < len(byNode) && byNode[id] != nil {
				p := byNode[id]
				*pe = composeParts(p.cuts, p.parts, e.Hi, e.Lo)
				return
			}
		}
		for i := range e.Args {
			rewrite(&e.Args[i])
		}
	}
	for _, n := range s.readers {
		n.EachExpr(rewrite)
	}
	for _, n := range g.Nodes[first:] {
		n.EachExpr(rewrite)
	}
	for _, p := range plans {
		g.Nodes[p.node.ID] = nil
	}
	return len(plans)
}

// splitPlan is one node's pending bit-level split.
type splitPlan struct {
	node      *ir.Node
	cuts      []int
	partExprs []*ir.Expr
	parts     []*ir.Node
}

// planSplit checks decomposability and builds the per-part expressions
// without mutating the graph. Returns nil when the node does not decompose.
func planSplit(d *ir.Node, cuts []int) *splitPlan {
	nParts := len(cuts) - 1
	p := &splitPlan{node: d, cuts: cuts, partExprs: make([]*ir.Expr, nParts)}
	for i := 0; i < nParts; i++ {
		hi, lo := cuts[i+1]-1, cuts[i]
		pe := trySlice(d.Expr, hi, lo)
		if pe == nil {
			return nil
		}
		p.partExprs[i] = pe
	}
	return p
}

// materialize adds the sub-nodes for a plan.
func materialize(g *ir.Graph, p *splitPlan) {
	d := p.node
	p.parts = make([]*ir.Node, len(p.partExprs))
	for i := range p.partExprs {
		hi, lo := p.cuts[i+1]-1, p.cuts[i]
		nn := &ir.Node{
			Name:  nodeName(d.Name, "_", hi, lo),
			Kind:  d.Kind,
			Width: hi - lo + 1,
			Expr:  p.partExprs[i],
		}
		if d.Kind == ir.KindReg {
			init := d.Init
			if init.Width == 0 {
				init = ir.ZeroInit(d)
			}
			nn.Init = bitvec.Bits(init, hi, lo)
			nn.ResetSig = d.ResetSig
		}
		p.parts[i] = g.AddNode(nn)
	}
}

// cutPoints returns the sorted distinct cut positions {0, ..., width}
// implied by the use ranges.
func cutPoints(width int, ranges [][2]int) []int {
	cuts := make([]int, 0, 2*len(ranges)+2)
	cuts = append(cuts, 0, width)
	for _, r := range ranges {
		cuts = append(cuts, r[0], r[1]+1)
	}
	slices.Sort(cuts)
	return slices.Compact(cuts)
}

// composeParts builds the expression for bits [hi:lo] of the split node out
// of sub-nodes. Direct use ranges land on cut points and map onto whole
// parts; ranges that arrived indirectly (a split register slicing itself
// through an offset) may overlap parts partially and get an inner slice.
func composeParts(cuts []int, parts []*ir.Node, hi, lo int) *ir.Expr {
	var pieces []*ir.Expr // low to high
	for i := 0; i < len(parts); i++ {
		pl, ph := cuts[i], cuts[i+1]-1
		if ph < lo || pl > hi {
			continue
		}
		ref := ir.Ref(parts[i])
		il, ih := pl, ph
		if il < lo {
			il = lo
		}
		if ih > hi {
			ih = hi
		}
		if il == pl && ih == ph {
			pieces = append(pieces, ref)
		} else {
			pieces = append(pieces, ir.BitsOf(ref, ih-pl, il-pl))
		}
	}
	e := pieces[0]
	for _, p := range pieces[1:] {
		e = ir.Binary(ir.OpCat, p, e)
	}
	return e
}

// trySlice returns a fresh expression computing bits [hi:lo] of e, or nil
// when e does not decompose bitwise. 0 <= lo <= hi < e.Width.
func trySlice(e *ir.Expr, hi, lo int) *ir.Expr {
	switch e.Op {
	case ir.OpRef:
		if lo == 0 && hi == e.Width-1 {
			return ir.Ref(e.Node)
		}
		return ir.BitsOf(ir.Ref(e.Node), hi, lo)
	case ir.OpConst:
		return ir.Const(bitvec.Bits(e.Imm, hi, lo))
	case ir.OpCat:
		h, l := e.Args[0], e.Args[1]
		if hi < l.Width {
			return trySlice(l, hi, lo)
		}
		if lo >= l.Width {
			return trySlice(h, hi-l.Width, lo-l.Width)
		}
		lp := trySlice(l, l.Width-1, lo)
		if lp == nil {
			return nil
		}
		hp := trySlice(h, hi-l.Width, 0)
		if hp == nil {
			return nil
		}
		return ir.Binary(ir.OpCat, hp, lp)
	case ir.OpAnd, ir.OpOr, ir.OpXor:
		a := sliceZextTry(e.Args[0], hi, lo)
		if a == nil {
			return nil
		}
		b := sliceZextTry(e.Args[1], hi, lo)
		if b == nil {
			return nil
		}
		return ir.Binary(e.Op, a, b)
	case ir.OpNot:
		a := trySlice(e.Args[0], hi, lo)
		if a == nil {
			return nil
		}
		return ir.Unary(ir.OpNot, a, 0)
	case ir.OpPad:
		return sliceZextTry(e.Args[0], hi, lo)
	case ir.OpBits:
		return trySlice(e.Args[0], e.Lo+hi, e.Lo+lo)
	case ir.OpMux:
		t := sliceZextTry(e.Args[1], hi, lo)
		if t == nil {
			return nil
		}
		f := sliceZextTry(e.Args[2], hi, lo)
		if f == nil {
			return nil
		}
		return ir.MuxOf(e.Args[0].Clone(), t, f)
	}
	return nil
}

// sliceZextTry slices e as if zero-extended: bits above e.Width read zero.
func sliceZextTry(e *ir.Expr, hi, lo int) *ir.Expr {
	w := hi - lo + 1
	if lo >= e.Width {
		return ir.ConstUint(w, 0)
	}
	if hi < e.Width {
		return trySlice(e, hi, lo)
	}
	inner := trySlice(e, e.Width-1, lo)
	if inner == nil {
		return nil
	}
	return fit(inner, w)
}
