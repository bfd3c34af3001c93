package emit

import (
	"testing"

	"gsim/internal/gen"
	"gsim/internal/passes"
)

// BenchmarkChainFusion measures what superinstruction fusion buys on its
// own: a profile's whole instruction stream, after the full pass pipeline,
// swept as one chain compiled by CompileChainBound ("fused") and as the same
// instructions compiled one compileKernelBound per instruction ("unfused").
// Both sweep the same machine with the same width classes and operand
// pointers, so the gap is the dispatch fusion removes. closures/op reports
// the chain length.
//
//	go test -run '^$' -bench BenchmarkChainFusion ./internal/emit
func BenchmarkChainFusion(b *testing.B) {
	for _, prof := range []gen.Profile{gen.StuCoreLike(), gen.RocketLike()} {
		b.Run(prof.Name, func(b *testing.B) { benchChainFusion(b, prof) })
	}
}

func benchChainFusion(b *testing.B, prof gen.Profile) {
	g := gen.BuildProfile(prof)
	passes.Normalize(g)
	passes.Run(g, passes.All())
	if err := g.SortTopological(); err != nil {
		b.Fatal(err)
	}
	p, err := Compile(g)
	if err != nil {
		b.Fatal(err)
	}
	chains := []struct {
		name    string
		compile func(m *Machine) []BoundFn
	}{
		{"fused", func(m *Machine) []BoundFn { return p.CompileChainBound(m, p.Instrs) }},
		{"unfused", func(m *Machine) []BoundFn {
			fns := make([]BoundFn, len(p.Instrs))
			for i, in := range p.Instrs {
				fns[i] = compileKernelBound(m, in)
			}
			return fns
		}},
	}
	for _, c := range chains {
		b.Run(c.name, func(b *testing.B) {
			fns := c.compile(NewMachine(p))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, f := range fns {
					f()
				}
			}
			b.ReportMetric(float64(len(fns)), "closures/op")
		})
	}
}
