package passes

import "gsim/internal/ir"

// Normalize flattens every expression tree into single-operation nodes: the
// canonical "one IR node per register or logic unit" form the paper's graphs
// are in (Table I counts nodes this way). Programmatic builders produce fat
// expression trees for convenience; normalization rebuilds the fine-grained
// graph, and the inline/extract passes then re-fuse operations where the
// cost model says so — the same pipeline GSIM applies to FIRRTL input.
//
// Idempotent: a graph already in one-op form is returned unchanged.
// Returns the number of nodes created.
func Normalize(g *ir.Graph) int {
	created := 0
	fresh := 0
	var flatten func(owner string, e *ir.Expr) *ir.Expr
	flatten = func(owner string, e *ir.Expr) *ir.Expr {
		// Make every argument a leaf (ref or const), creating nodes for
		// interior operations bottom-up.
		for i, a := range e.Args {
			if a.Op == ir.OpRef || a.Op == ir.OpConst {
				continue
			}
			sub := flatten(owner, a)
			fresh++
			n := g.AddNode(&ir.Node{
				Name:  nodeName(owner, "#", fresh),
				Kind:  ir.KindComb,
				Width: sub.Width,
				Expr:  sub,
			})
			created++
			e.Args[i] = ir.Ref(n)
		}
		return e
	}
	// The range covers the nodes present on entry; the ones created here
	// are already in one-op form.
	for _, n := range g.Nodes {
		if n == nil {
			continue
		}
		n.EachExpr(func(slot **ir.Expr) {
			*slot = flatten(n.Name, *slot)
		})
	}
	if created > 0 {
		g.Compact()
	}
	return created
}
