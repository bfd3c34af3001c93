package core

import (
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"gsim/internal/firrtl"
	"gsim/internal/gen"
	"gsim/internal/ir"
	"gsim/internal/passes"
	"gsim/internal/rv"
)

// passPin is what one compile is pinned to: the program identity, the text
// of the optimized graph, every pass counter, and the partition shape.
type passPin struct {
	designHash string
	graphSHA   string // sha256 of firrtl.Write(d.Graph), first 16 hex digits
	res        passes.Result
	supernodes int
	cutEdges   int
}

// passPins holds the expected compile of every pinned case. A change to any
// pass that alters a decision — which node is inlined, extracted or split,
// or in what order nodes are created — moves these values; a change that
// only makes the passes faster must leave them exactly as they are.
var passPins = map[string]passPin{
	"stucore-like/gsim":      {"51cdb32f5c38967ff1fe3258122392fd389c01d52f2b8c3926d40a7dd1522a34", "7353a795061434e8", passes.Result{Simplified: 12, AliasRemoved: 164, DeadRemoved: 56, Inlined: 1873, Extracted: 146, ResetsHoisted: 1, NodesSplit: 32}, 101, 479},
	"stucore-like/verilator": {"fcaa90ff1e9db610726fe9bd5ea15a63cfe1522724c35c7b7ae4fa0d0c4db656", "d9c9837ab3104db7", passes.Result{Simplified: 12, AliasRemoved: 0, DeadRemoved: 56, Inlined: 1965, Extracted: 0, ResetsHoisted: 0, NodesSplit: 0}, 0, 0},
	"stucore-like/essent":    {"fcaa90ff1e9db610726fe9bd5ea15a63cfe1522724c35c7b7ae4fa0d0c4db656", "d9c9837ab3104db7", passes.Result{Simplified: 12, AliasRemoved: 0, DeadRemoved: 56, Inlined: 1965, Extracted: 0, ResetsHoisted: 0, NodesSplit: 0}, 172, 485},
	"stucore-like/arcilator": {"0fec2cac448b3a872e5fa2c5dcf360d679af4d651088d6e0da83c426dd2f6fbd", "2c3dd0c88adbbd69", passes.Result{Simplified: 12, AliasRemoved: 0, DeadRemoved: 56, Inlined: 1965, Extracted: 162, ResetsHoisted: 0, NodesSplit: 0}, 0, 0},
	"rocket-like/gsim":       {"28a576fa7e10f5552f4acc6d498c69bdd00ef7416a7ff7b011c1eedaaf5a3935", "b5dd388afcb78573", passes.Result{Simplified: 48, AliasRemoved: 6928, DeadRemoved: 448, Inlined: 173540, Extracted: 16334, ResetsHoisted: 1, NodesSplit: 1024}, 9666, 49326},
	"rocket-like/verilator":  {"b7dd9145e266b4c528763cbb7fbe8970ffb407bf3ebeebf781b6493d080fd784", "7c07f6bb44dd3db6", passes.Result{Simplified: 48, AliasRemoved: 0, DeadRemoved: 448, Inlined: 178388, Extracted: 0, ResetsHoisted: 0, NodesSplit: 0}, 0, 0},
	"rocket-like/essent":     {"b7dd9145e266b4c528763cbb7fbe8970ffb407bf3ebeebf781b6493d080fd784", "7c07f6bb44dd3db6", passes.Result{Simplified: 48, AliasRemoved: 0, DeadRemoved: 448, Inlined: 178388, Extracted: 0, ResetsHoisted: 0, NodesSplit: 0}, 13604, 52257},
	"rocket-like/arcilator":  {"453a9a0133aa7d1b193a920eceafbe9dbb8c1687b843163350441fc8d2dff438", "2d50c8902d8ec63c", passes.Result{Simplified: 48, AliasRemoved: 0, DeadRemoved: 448, Inlined: 178388, Extracted: 17294, ResetsHoisted: 0, NodesSplit: 0}, 0, 0},
	"boom-like/gsim":         {"f16ca42a3be07f316bee3861c5a1e301cebd2eeb59f27e3bfbc39fb7e071a390", "ef15e6b4fb60a9c9", passes.Result{Simplified: 60, AliasRemoved: 12020, DeadRemoved: 840, Inlined: 429367, Extracted: 42018, ResetsHoisted: 1, NodesSplit: 1760}, 22337, 126398},
	"rocket-like-fir/gsim":   {"32ca6b65da9a019101a12ca8e67ddc6f886a69b4d050e8376af82a88480ccd2d", "780c5434d293ff73", passes.Result{Simplified: 1009, AliasRemoved: 7136, DeadRemoved: 480, Inlined: 174550, Extracted: 16334, ResetsHoisted: 1, NodesSplit: 1024}, 9669, 49285},
	// The core has an output pc and a node pc_out; the writer renames the
	// node to pc_out_2 so it no longer redeclares the port pc_out.
	"stucore/gsim": {"5b142843d2e75663349f8c849ac4bcc9bfee7d5937d45579377d36ce9ab03059", "b75cc23dbeb05a52", passes.Result{Simplified: 4, AliasRemoved: 5, DeadRemoved: 2, Inlined: 189, Extracted: 4, ResetsHoisted: 0, NodesSplit: 2}, 9, 43},
	"alu/gsim":     {"6ce875036edae6686bab5d853ae05ca388a7c51b7a874d96fa70df9e1ac5df89", "635e96764241f66e", passes.Result{Simplified: 0, AliasRemoved: 0, DeadRemoved: 0, Inlined: 28, Extracted: 0, ResetsHoisted: 1, NodesSplit: 0}, 2, 0},
	"counter/gsim": {"8d5cdc7a7c7ca02fe89da745430c71167a1de5852e81262a90c687c54ff23d5a", "43132bf9fc39296d", passes.Result{Simplified: 0, AliasRemoved: 0, DeadRemoved: 0, Inlined: 15, Extracted: 0, ResetsHoisted: 1, NodesSplit: 0}, 1, 0},
	"fifo/gsim":    {"fc193b0286063a698744cb4d64a14b21f525fc3587efaccf85d33bbfb6f17f57", "b9538556cccf28cc", passes.Result{Simplified: 0, AliasRemoved: 4, DeadRemoved: 3, Inlined: 20, Extracted: 0, ResetsHoisted: 3, NodesSplit: 0}, 3, 4},
	"lfsr/gsim":    {"ad61b8450ee402e95acb21ed2b07978fb60b4d1f318a28b656da835daa84bd64", "f380c997b3cba29a", passes.Result{Simplified: 0, AliasRemoved: 3, DeadRemoved: 3, Inlined: 16, Extracted: 0, ResetsHoisted: 2, NodesSplit: 0}, 3, 1},
}

// pinCases returns the pinned (design, preset) pairs: the two smaller
// profiles under every single-threaded preset family, the boom-like profile
// and the rocket-like FIRRTL text under gsim, the RV32I core, and every
// testdata design.
func pinCases(t *testing.T) (names []string, graphs []func() *ir.Graph, cfgs []Config) {
	t.Helper()
	add := func(name string, g func() *ir.Graph, cfg Config) {
		names = append(names, name+"/"+cfg.Name)
		graphs = append(graphs, g)
		cfgs = append(cfgs, cfg)
	}
	presets := []Config{GSIM(), Verilator(), Essent(), Arcilator()}
	for _, p := range []gen.Profile{gen.StuCoreLike(), gen.RocketLike()} {
		p := p
		for _, cfg := range presets {
			add(p.Name, func() *ir.Graph { return gen.BuildProfile(p) }, cfg)
		}
	}
	add("boom-like", func() *ir.Graph { return gen.BuildProfile(gen.BoomLike()) }, GSIM())
	// The rocket-like profile as FIRRTL text, the form the benchmark
	// compiles: this also pins the writer's output for the profile.
	add("rocket-like-fir", func() *ir.Graph {
		var sb strings.Builder
		if err := firrtl.Write(&sb, gen.BuildProfile(gen.RocketLike())); err != nil {
			t.Fatal(err)
		}
		g, err := firrtl.Load(sb.String())
		if err != nil {
			t.Fatal(err)
		}
		return g
	}, GSIM())
	add("stucore", func() *ir.Graph {
		prog, err := rv.Assemble(rv.Workloads["coremark"])
		if err != nil {
			t.Fatal(err)
		}
		c, err := rv.BuildCore(prog, rv.DefaultCoreConfig())
		if err != nil {
			t.Fatal(err)
		}
		return c.Graph
	}, GSIM())
	files, err := filepath.Glob("../../testdata/*.fir")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata designs: %v", err)
	}
	for _, f := range files {
		f := f
		add(strings.TrimSuffix(filepath.Base(f), ".fir"), func() *ir.Graph {
			g, err := firrtl.LoadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}, GSIM())
	}
	return names, graphs, cfgs
}

// TestPassOutputPinned is the equivalence proof for pass-pipeline
// refactors: every pinned compile must reproduce its recorded design hash,
// optimized-graph text, pass counters and partition shape exactly. On a
// mismatch it prints the case's current values as a table entry.
func TestPassOutputPinned(t *testing.T) {
	names, graphs, cfgs := pinCases(t)
	for i, name := range names {
		d, err := CompileDesign(graphs[i](), cfgs[i])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var sb strings.Builder
		if err := firrtl.Write(&sb, d.Graph); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		got := passPin{
			designHash: d.DesignHash(),
			graphSHA:   fmt.Sprintf("%x", sha256.Sum256([]byte(sb.String())))[:16],
			res:        d.PassResult,
		}
		if d.Part != nil {
			got.supernodes, got.cutEdges = d.Part.Count(), d.Part.CutEdges
		}
		if want, ok := passPins[name]; !ok || got != want {
			t.Errorf("%s: compile drifted from its pin\n got: %q: {%q, %q, %#v, %d, %d},\nwant: %#v",
				name, name, got.designHash, got.graphSHA, got.res, got.supernodes, got.cutEdges, want)
		}
	}
}
