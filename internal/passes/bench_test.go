package passes

import (
	"testing"

	"gsim/internal/gen"
	"gsim/internal/ir"
)

// BenchmarkPasses times every step of the full pipeline (Normalize, then
// Run with All) on the rocket-like profile, one sub-benchmark per step.
// Each step runs on a fresh copy of the graph exactly as the steps before
// it left it, so a regression in one pass shows up as its own row. The
// "Run" row is the whole pipeline.
func BenchmarkPasses(b *testing.B) {
	opts := All()
	opts.fill()
	steps := []struct {
		name string
		run  func(g *ir.Graph)
	}{
		{"Normalize", func(g *ir.Graph) { Normalize(g) }},
		{"simplify", func(g *ir.Graph) { simplifyGraph(g, true) }},
		{"eliminateAliases", func(g *ir.Graph) { eliminateAliases(g) }},
		{"eliminateDead", func(g *ir.Graph) { eliminateDead(g) }},
		{"bitSplit", func(g *ir.Graph) { bitSplit(g, opts.MaxSplitParts) }},
		{"splitCleanup", func(g *ir.Graph) {
			simplifyGraph(g, true)
			eliminateAliases(g)
			eliminateDead(g)
		}},
		{"inlineNodes", func(g *ir.Graph) { inlineNodes(g, opts.CostNode, opts.MaxInlineCost) }},
		{"extractCommon", func(g *ir.Graph) { extractCommon(g, opts.CostNode) }},
		{"hoistResets", func(g *ir.Graph) { hoistResets(g) }},
		{"finalDead", func(g *ir.Graph) {
			eliminateDead(g)
			g.Compact()
		}},
	}
	// Production compiles a private clone of the elaborated graph; so do
	// these steps.
	input := gen.BuildProfile(gen.RocketLike()).Clone()
	state := input.Clone()
	for _, s := range steps {
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g := state.Clone()
				b.StartTimer()
				s.run(g)
			}
		})
		s.run(state)
	}
	b.Run("Run", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			g := input.Clone()
			b.StartTimer()
			Normalize(g)
			Run(g, All())
		}
	})
}
