// Package passes implements GSIM's node-level and bit-level graph
// optimizations (paper §III-B, §III-C):
//
//   - Simplify: constant propagation and expression simplification,
//     including the one-hot pattern bits(dshl(1,a),k,k) → eq(a,k);
//   - Redundant: alias-, dead-, and shorted-node elimination plus
//     unused-register elimination via reachability from outputs;
//   - Inline / Extract: the inline-versus-extraction trade-off decided by
//     the paper's cost model cost(f)·#refs ≷ cost(f) + cost_node;
//   - ResetOpt: hoisting reset muxes out of register next-value expressions
//     so engines check one reset signal per cycle instead of one per
//     register (Listing 5 → Listing 6);
//   - BitSplit: bit-level node splitting along per-bit dataflow (Fig. 4).
//
// All passes preserve cycle-accurate semantics; the test suite verifies
// optimized and unoptimized graphs produce identical trajectories.
//
// Complexity contract: each pass runs in time linear in the graph per
// round (BitSplit repeats up to six rounds to a fixed point).
//
//   - Side tables are slices indexed by node ID, never maps keyed by node.
//   - An expression tree belongs to one slot. Inlining moves a tree into its
//     last reader and copies it only for the others; the cost model allows
//     more than one reader only for trees of cost 2 or less, so a chain of
//     inlined nodes is never copied once per level.
//   - Facts about every subtree of a tree (structural hash, cost) are
//     computed in one bottom-up walk, never by re-walking at each level.
//
// The pass order and every decision are fixed: internal/core pins the
// optimized graph, design hash and partition of a set of designs.
package passes

import (
	"fmt"
	"strconv"

	"gsim/internal/ir"
)

// Options selects which optimizations to run. The zero value runs nothing.
type Options struct {
	Simplify  bool
	Redundant bool
	Inline    bool
	Extract   bool
	ResetOpt  bool
	BitSplit  bool

	// CostNode is the paper's cost_node constant: the abstract overhead of
	// introducing one extra node (activation bookkeeping + scheduling).
	// Zero means DefaultCostNode.
	CostNode int
	// MaxInlineCost caps the size of expressions that may be duplicated by
	// inlining. Zero means DefaultMaxInlineCost.
	MaxInlineCost int
	// MaxSplitParts caps how many pieces one node may be split into at the
	// bit level. Zero means DefaultMaxSplitParts.
	MaxSplitParts int

	// NoAlgebraic disables the generated algebraic rule set (rewriteAlgebraic,
	// from the table in internal/emit/rules) while keeping constant folding
	// and the structural rewrites. The zero value ships the rules enabled;
	// the fuzz harness flips this to diff simplified against unsimplified
	// builds.
	NoAlgebraic bool
}

// Defaults for the cost-model constants.
const (
	DefaultCostNode      = 2
	DefaultMaxInlineCost = 48
	DefaultMaxSplitParts = 8
)

// All returns Options with every optimization enabled.
func All() Options {
	return Options{
		Simplify: true, Redundant: true, Inline: true,
		Extract: true, ResetOpt: true, BitSplit: true,
	}
}

// Basic returns the light pipeline used for the Verilator-like baseline:
// expression simplification and redundant-node elimination only.
func Basic() Options {
	return Options{Simplify: true, Redundant: true}
}

func (o *Options) fill() {
	if o.CostNode == 0 {
		o.CostNode = DefaultCostNode
	}
	if o.MaxInlineCost == 0 {
		o.MaxInlineCost = DefaultMaxInlineCost
	}
	if o.MaxSplitParts == 0 {
		o.MaxSplitParts = DefaultMaxSplitParts
	}
}

// Result reports what each pass did.
type Result struct {
	Simplified    int // expressions rewritten
	AliasRemoved  int
	DeadRemoved   int // dead nodes + unused registers removed
	Inlined       int
	Extracted     int
	ResetsHoisted int
	NodesSplit    int
}

// String summarizes the result.
func (r Result) String() string {
	return fmt.Sprintf("simplified=%d alias=%d dead=%d inlined=%d extracted=%d resets=%d split=%d",
		r.Simplified, r.AliasRemoved, r.DeadRemoved, r.Inlined, r.Extracted, r.ResetsHoisted, r.NodesSplit)
}

// Run applies the selected passes in dependency order and compacts the
// graph. The graph is mutated in place.
func Run(g *ir.Graph, opts Options) Result {
	opts.fill()
	var res Result
	if opts.Simplify {
		res.Simplified += simplifyGraph(g, !opts.NoAlgebraic)
	}
	if opts.Redundant {
		res.AliasRemoved += eliminateAliases(g)
		res.DeadRemoved += eliminateDead(g)
	}
	if opts.BitSplit {
		res.NodesSplit += bitSplit(g, opts.MaxSplitParts)
		if res.NodesSplit > 0 {
			if opts.Simplify {
				res.Simplified += simplifyGraph(g, !opts.NoAlgebraic)
			}
			if opts.Redundant {
				res.AliasRemoved += eliminateAliases(g)
				res.DeadRemoved += eliminateDead(g)
			}
		}
	}
	if opts.Inline {
		res.Inlined += inlineNodes(g, opts.CostNode, opts.MaxInlineCost)
	}
	if opts.Extract {
		res.Extracted += extractCommon(g, opts.CostNode)
	}
	if opts.ResetOpt {
		res.ResetsHoisted += hoistResets(g)
	}
	if opts.Redundant {
		res.DeadRemoved += eliminateDead(g)
	}
	g.Compact()
	return res
}

// fit pads or slices e to exactly width bits, preserving value semantics
// (zero extension / truncation).
func fit(e *ir.Expr, width int) *ir.Expr {
	switch {
	case e.Width == width:
		return e
	case e.Width < width:
		return &ir.Expr{Op: ir.OpPad, Args: []*ir.Expr{e}, Width: width}
	default:
		return ir.BitsOf(e, width-1, 0)
	}
}

// nodeName returns base followed by each number, each after sep:
// nodeName("r", "_", 7, 0) is "r_7_0". A pass names every node it creates
// through here, so a name costs one allocation and no temporaries.
func nodeName(base, sep string, nums ...int) string {
	var buf [64]byte
	b := append(buf[:0], base...)
	for _, v := range nums {
		b = append(b, sep...)
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return string(b)
}

// keepAlive returns, indexed by node ID, the nodes that must never be
// removed or inlined: outputs, inputs, memory ports, registers, and reset
// signals.
func keepAlive(g *ir.Graph) []bool {
	keep := make([]bool, len(g.Nodes))
	for _, n := range g.Nodes {
		if n == nil {
			continue
		}
		if n.Kind != ir.KindComb || n.IsOutput {
			keep[n.ID] = true
		}
		if n.Kind == ir.KindReg && n.ResetSig != nil {
			keep[n.ResetSig.ID] = true
		}
	}
	return keep
}
